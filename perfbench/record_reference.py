"""Record the reference outputs the gate compares pass 0 of a run against.

    python3 perfbench/record_reference.py

For every workload and each seed in SEEDS it stores the digest of the
pass-0 inputs and, per state, [n_value, err, classification] in
reference.json.  Record only from a commit whose results are trusted: a
later change that moves a result beyond both error bars then fails the
gate instead of posting a speed-up.
"""

import json

from run import CG, FN, TOL, quantifier
from gate import REFERENCE_PATH
from workloads import WORKLOADS, fingerprint, generate

SEEDS = range(11)


def main():
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in SEEDS:
            cases = generate(workload, seed, 0)
            results = [quantifier.measure_m(case.state, CG, FN, TOL) for case in cases]
            reference[workload][str(seed)] = {
                "inputs": fingerprint(cases),
                "results": [[r.n_value, r.err, r.classification] for r in results],
            }
    # one line per (workload, seed) keeps the file diffable
    blocks = [f'"{workload}": {{\n' + ",\n".join(
        f'  "{seed}": {json.dumps(entry)}' for seed, entry in seeds.items()) + "\n}"
        for workload, seeds in reference.items()]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
