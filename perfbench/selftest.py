"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py

Runs one pass of the first two states of every workload, untraced once and
traced twice, and checks that

* every metric BENCHMARK.json declares is emitted with its declared unit
  by the run mode that reports it, and no other metric is;
* no result of these runs fails the correctness gate;
* the counts of the two traced runs of one seed are identical;
* results perturbed on purpose are counted as failed.

Prints each failed check and exits 1 if there is any, else exits 0.
"""

import dataclasses
import json
import sys

import run
from tracer import COUNT_METRICS

SEED = 1  # has recorded reference outputs


def emitted_units(metrics, out, trace):
    return {name: m["unit"] for name, m in run.result(metrics, out, trace)["metrics"].items()}


def check_workload(workload, declared):
    problems = []
    metrics, _, out = run.run(workload, SEED, 0, 0, limit=2, probes=1)
    if emitted_units(metrics, out, 0) != declared["end_to_end"]:
        problems.append(f"{workload}: end-to-end metrics or units differ from BENCHMARK.json")
    traced = [run.run(workload, SEED, 0, 1, limit=2) for _ in range(2)]
    if emitted_units(traced[0][0], traced[0][2], 1) != declared["per_layer"]:
        problems.append(f"{workload}: per-layer metrics or units differ from BENCHMARK.json")
    for name in COUNT_METRICS:
        if traced[0][0][name] != traced[1][0][name]:
            problems.append(f"{workload}: count {name} differs between two traced runs")
    for done in [out] + [t[2] for t in traced]:
        problems += [f"{workload}: {failure}" for failure in done.failures]
    return problems


def perturbations(res):
    """Perturbed copies of a thermal-anchor result, each of which must fail."""
    shift = 1e-4
    moved = dataclasses.replace(res, n_value=res.n_value + shift, m_value=res.m_value + shift)
    return {
        "m_value not n_value - baseline": dataclasses.replace(res, m_value=res.m_value + shift),
        "n_value off the closed form and the reference": moved,
        "err above tol": dataclasses.replace(res, err=2.0 * run.TOL),
        "classification not the rule's": dataclasses.replace(
            res, classification=run.quantifier.CERTIFIED_QUANTUM),
        "witness against the variance criterion": dataclasses.replace(
            res, witness_quantum=True, classification=run.quantifier.NOGO_INSTANCE),
        "baseline off": dataclasses.replace(
            res, baseline=res.baseline + shift, m_value=res.n_value - res.baseline - shift),
    }


def check_gate():
    """The gate counts perturbed results as failed and the true one as passed."""
    problems = []
    _, base_err = run.quantifier.baseline_with_error(run.CG, run.FN, run.TOL)
    out = run.Run("gaussian_sweep", SEED)
    case = out.cases(0)[0]  # the thermal anchor, r = 0
    if case.thermal_nbar is None or out.reference is None:
        return ["gaussian_sweep pass 0 does not start with a referenced thermal anchor"]
    res = run.quantifier.measure_m(case.state, run.CG, run.FN, run.TOL)
    out.record(0, 0, case, res, None, base_err)
    if out.failures:
        problems.append(f"gate fails the unperturbed result: {out.failures}")
    for what, bad in perturbations(res).items():
        before = len(out.failures)
        out.record(0, 0, case, bad, None, base_err)
        if len(out.failures) != before + 1:
            problems.append(f"gate passes a result with {what}")
    return problems


def main():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    problems = check_gate()
    for workload in spec["workloads"]:
        problems += check_workload(workload["name"], declared)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
