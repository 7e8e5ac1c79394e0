"""Benchmark of phasenorm.quantifier.measure_m on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gaussian_sweep --seed 1 --seconds 20 --trace 0

One process, one thread (BLAS and OpenMP pinned to one thread).  The run
sets up (imports the package and warms the cached baseline), then
evaluates passes of freshly generated states until ``--seconds`` have
passed, finishing the pass in progress.  Every result goes through the
correctness gate (gate.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` evaluates each
state once untraced and once traced and reports the per-layer metrics of
the traced calls (tracer.py) and the tracing overhead.  The output is one
``name value unit`` line per metric, one JSON line with the environment and
details, and, last, one JSON line with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every result passes the
gate, 1 otherwise or when the package cannot be imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

try:
    import phasenorm  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import phasenorm from {SRC}: {exc}")
if Path(phasenorm.__file__).resolve().parent != SRC / "phasenorm":
    sys.exit(f"perfbench: phasenorm was imported from {phasenorm.__file__}, not {SRC}")

from phasenorm import CG, FunctionalSpec, quantifier  # noqa: E402

import gate  # noqa: E402
from tracer import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, fingerprint, generate  # noqa: E402

TOL = 1e-6
FN = FunctionalSpec(s=0.0, p=1.0)
SETUP_PROBES = 7
CAL_X = np.linspace(0.0, 1.0, 513)
CAL_STEPS = 90
MAX_FAILURES_SHOWN = 10

END_TO_END_UNITS = {
    "ref.states_per_s": "1/ref_s",
    "ref.state_ms.p50": "ref_ms",
    "ref.state_ms.tail": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WALL_UNITS = {"states_per_s": "1/s", "state_ms.p50": "ms", "state_ms.tail": "ms"}
# Layer times that do not overlap, reported as shares of measure_m's time.
SELF_TIMES = ("quadrature.sign_scan.self_ms", "quadrature.plane.self_ms",
              "quadrature.radial.self_ms", "kernel.ms", "fock.channel.ms",
              "gaussian.channel.ms")


def tail_rank(size):
    """Rank (1-based) of the tail percentile for a pass of ``size`` states:
    the highest one with at least 10 states of the pass beyond it."""
    return max(size - 10, 1)


def calibrate():
    """Seconds taken by one fixed chunk of the work phasenorm mostly does:
    short NumPy calls on a few hundred points (about 1 ms on a 2 GHz core).

    Other tenants of a shared machine slow the program and this chunk alike
    for seconds to minutes at a time, so a state's time divided by the time
    of the chunks run next to it stays steady where its wall time drifts.
    One ``ref_ms`` is one chunk time.
    """
    start = time.perf_counter()
    acc = np.zeros_like(CAL_X)
    for i in range(CAL_STEPS):
        acc = np.where(CAL_X > 0.5, acc + CAL_X, acc - CAL_X) * 0.5
        acc[i] = float(acc.max())
    return time.perf_counter() - start


def probe_setup(tol):
    """Seconds from starting a fresh interpreter until its first state can start."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), repr(tol)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - start


def _measure(state):
    """(result or None, seconds, error text or None) of one measure_m call.

    ``quantifier.measure_m`` is looked up per call so the tracer can replace it.
    """
    start = time.perf_counter()
    try:
        res = quantifier.measure_m(state, CG, FN, TOL)
    except Exception as exc:  # a raising state counts as failed; the run goes on
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return res, time.perf_counter() - start, None


class Run:
    """Results of one benchmark run: timings, gate outcomes, counters."""

    def __init__(self, workload, seed, limit=None):
        self.workload = workload
        self.seed = seed
        self.limit = limit
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.err_total_above_tol = 0
        self.pass_sizes = []
        self.state_seconds = []
        self.state_ref_ms = []
        self.traced_seconds = []
        self.pass_counts = []

    def cases(self, pass_index):
        cases = generate(self.workload, self.seed, pass_index)
        if pass_index == 0:
            self.reference = gate.load_reference(self.workload, self.seed,
                                                 fingerprint(cases))
        return cases[: self.limit] if self.limit else cases

    def record(self, pass_index, index, case, res, error, base_err):
        """Gate one result; remember its violations."""
        self.attempted += 1
        if error is not None:
            bad = [error]
        else:
            self.err_total_above_tol += res.err > TOL
            bad = gate.check(case, res, TOL, base_err)
            if pass_index == 0 and self.reference is not None:
                bad += gate.check_reference(res, self.reference[index])
        if bad:
            self.failures.append(f"pass {pass_index} state {index} ({case.label}): "
                                 + ", ".join(bad))


def run(workload, seed, seconds, trace, limit=None, probes=SETUP_PROBES):
    """Set up, run passes for ``seconds``, return (metrics, details, Run)."""
    out = Run(workload, seed, limit)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.state_id = "setup"
    _, base_err = quantifier.baseline_with_error(CG, FN, TOL)
    if tracer:
        tracer.uninstall()
        setup_counts = tracer.take_counts()
    setup = [probe_setup(TOL) for _ in range(0 if trace else probes)]

    wall0, cpu0 = time.perf_counter(), time.process_time()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - wall0 < seconds:
        cases = out.cases(pass_index)
        cal_before = None if tracer else calibrate()
        for index, case in enumerate(cases):
            res, dt, error = _measure(case.state)
            out.state_seconds.append(dt)
            if not tracer:
                cal_after = calibrate()
                out.state_ref_ms.append(2.0 * dt / (cal_before + cal_after))
                cal_before = cal_after
            out.record(pass_index, index, case, res, error, base_err)
            if tracer:
                tracer.state_id = f"{pass_index}:{index}"
                tracer.install()
                res, dt, error = _measure(case.state)
                tracer.uninstall()
                out.traced_seconds.append(dt)
                out.record(pass_index, index, case, res, error, base_err)
        out.pass_sizes.append(len(cases))
        if tracer:
            out.pass_counts.append(tracer.take_counts())
        pass_index += 1
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    details = {
        "passes": pass_index,
        "states_per_pass": out.pass_sizes[0],
        "cpu_wall_ratio": cpu / wall,
        "reference_checked": out.reference is not None,
        "err_total_above_tol": out.err_total_above_tol,
        "failures": out.failures[:MAX_FAILURES_SHOWN],
    }
    if trace:
        metrics = _layer_metrics(out, setup_counts, details)
        spans = HERE / "out" / f"spans-{workload}-seed{seed}.csv"
        tracer.write_spans(spans)
        details["spans_file"] = str(spans.relative_to(HERE.parent))
    else:
        metrics = _end_to_end_metrics(out, setup, details)
    return metrics, details, out


def _end_to_end_metrics(out, setup, details):
    """End-to-end metrics in reference time; the same in wall time go to details."""
    size = out.pass_sizes[0]
    tail_pct = 100.0 * tail_rank(size) / size

    def summary(per_state_ms):
        ordered = sorted(per_state_ms)
        tail = max(math.ceil(tail_pct / 100.0 * len(ordered)) - 1, 0)
        return (1e3 * len(ordered) / sum(ordered), statistics.median(ordered),
                ordered[tail], len(ordered) - tail - 1)

    ref = summary(out.state_ref_ms)
    wall = summary([1e3 * t for t in out.state_seconds])
    details["state_ms.tail"] = {"percentile": tail_pct, "samples": len(out.state_ref_ms),
                                "beyond": ref[3]}
    details["wall"] = dict(zip(WALL_UNITS, wall))
    details["setup_s.samples"] = setup
    return {
        "ref.states_per_s": ref[0],
        "ref.state_ms.p50": ref[1],
        "ref.state_ms.tail": ref[2],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_metrics(out, setup_counts, details):
    """Counts and their ratios from the first pass (they repeat exactly for a
    seed); times as the median over passes of each pass's total."""
    per_pass = [layer_metrics(counts) for counts in out.pass_counts]
    metrics = dict(per_pass[0])
    for name in metrics:
        if LAYER_UNITS[name] in ("ms", "ns"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["quantifier.baseline.ms"] = setup_counts["quantifier.baseline.ns"] / 1e6
    untraced, traced = sum(out.state_seconds), sum(out.traced_seconds)
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    details["trace.overhead_ms_per_state"] = 1e3 * (traced - untraced) / len(out.traced_seconds)
    details["setup_layers"] = layer_metrics(setup_counts)
    base = metrics["quantifier.measure_m.ms"]
    details["share_of_measure_m"] = {name: metrics[name] / base for name in SELF_TIMES}
    return metrics


def environment(seed, cpu_wall_ratio):
    """Where and how the run was made; a CPU/wall ratio well below 1 flags
    a run slowed by other processes."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": phasenorm.KERNEL_BACKEND,
        "commit": _git_commit(),
        "seed": seed,
        "tol": TOL,
        "cpu_wall_ratio": cpu_wall_ratio,
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def result(metrics, out, trace):
    """The benchmark's last output line, as a dict."""
    unit_of = LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, details, out = run(args.workload, args.seed, args.seconds, args.trace)
    final = result(metrics, out, args.trace)
    details["failed_frac"] = final["failed"] / final["attempted"]
    for name, metric in final["metrics"].items():
        value = metric["value"]
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {metric['unit']}")
    for name, value in details.get("wall", {}).items():
        print(f"wall.{name} {value:.6g} {WALL_UNITS[name]}")
    print(f"failed_frac {details['failed_frac']:.6g} fraction")
    print(json.dumps({"environment": environment(args.seed, details.pop("cpu_wall_ratio")),
                      "workload": args.workload, "trace": args.trace, "details": details}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
