"""Correctness gate applied to every result the benchmark times.

A result that violates any check counts as failed.  The checks use only
closed forms and facts known from the inputs, plus the reference outputs
recorded in ``reference.json`` for a few seeds.
"""

import json
import math
from pathlib import Path

from phasenorm.quantifier import classify

BASELINE_CLOSED = 4.0 * math.sqrt(3.0) / 9.0
BASELINE_TOL = 1e-7  # the baseline is computed to min(tol, 1e-7)
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def thermal_norm(nbar):
    """Closed-form N of a thermal state under C_g at (s, p) = (0, 1)."""
    q = (2.0 * nbar + 1.0) / (2.0 * nbar + 3.0)
    return 2.0 * (q ** (q / (1.0 - q)) - q ** (1.0 / (1.0 - q)))


def check(case, res, tol, base_err):
    """Names of the checks ``res`` (the QuantifierResult of ``case``) violates.

    ``base_err`` is the error bound of the cached baseline.  Comparisons are
    written as ``not a <= b`` so that NaN fails them.
    """
    bad = []
    if not abs(res.baseline - BASELINE_CLOSED) <= base_err:
        bad.append("baseline")
    # err sums two bounds with separate promises: the norm's (<= tol) and
    # the baseline's (<= min(tol, 1e-7)); each promise is checked
    if not (res.err - base_err <= tol and base_err <= min(tol, BASELINE_TOL)):
        bad.append("err_above_tol")
    if res.m_value != res.n_value - res.baseline:
        bad.append("m_not_n_minus_baseline")
    if res.classification != classify(res.m_value, res.err, res.witness_quantum):
        bad.append("classification")
    if (case.quantum_by_variance is not None
            and res.witness_quantum != case.quantum_by_variance):
        bad.append("gaussian_witness")
    if case.classical and not res.m_value <= res.err:
        bad.append("classical_m_above_err")
    if (case.thermal_nbar is not None
            and not abs(res.n_value - thermal_norm(case.thermal_nbar)) <= res.err):
        bad.append("thermal_closed_form")
    return bad


def check_reference(res, ref):
    """Violations of one recorded reference output ``[n_value, err, class]``.

    N must agree within both error bars; the classification must agree
    unless M is within its own error bar of zero.
    """
    n_ref, err_ref, cls_ref = ref
    bad = []
    if not abs(res.n_value - n_ref) <= res.err + err_ref:
        bad.append("reference_n_value")
    if res.classification != cls_ref and abs(res.m_value) > res.err:
        bad.append("reference_classification")
    return bad


def load_reference(workload, seed, digest):
    """Recorded outputs for (workload, seed), or None when none were recorded.

    Raises ValueError when outputs exist for the seed but were recorded for
    other inputs: the workload generator changed and the file is stale.
    """
    with REFERENCE_PATH.open() as fh:
        entry = json.load(fh).get(workload, {}).get(str(seed))
    if entry is None:
        return None
    if entry["inputs"] != digest:
        raise ValueError(f"reference outputs for {workload} seed {seed} were "
                         f"recorded for other inputs; re-record them")
    return entry["results"]
