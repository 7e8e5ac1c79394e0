"""Pin the bits of the exact p = 1 Fock route and of one multi-row sign scan.

The exact route's bookkeeping (the scan, the window interpolant, the
ladder and the mass passes) may be rewritten for speed only if every
element still goes through the same floating-point operations in the
same order.  These digests hold the results to the last bit: N, its err,
the witness value and the class of ``measure_m`` on the Fig. 2 triplets,
the corners and a few high-cutoff diagonal states, and the cuts, widths
and heights of a three-row ``locate_sign_changes`` call with ``stop`` and
``close``.
"""

import hashlib

import numpy as np

from phasenorm import make_mixture, make_thermal_fock, measure_m, number_state
from phasenorm.cli import sample_triplets
from phasenorm.quadrature import locate_sign_changes

MEASURE_SHA256 = "3d471a59193ac2dfe27a390c14bcdb4c47c08bde8e76ebc9d140b682d0cc845e"
SCAN_SHA256 = "67d6c11e144bf9e2e1acfbd5160dc0cbbdf055c078521f79789ff7fd1f45b2f8"


def _digest(values):
    text = "\n".join(v.hex() if isinstance(v, float) else str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _states():
    corners = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    states = [make_mixture(list(t)) for t in sample_triplets(20, 42) + corners]
    states += [number_state(5), number_state(40), make_thermal_fock(3.0, cutoff=106)]
    states.append(make_mixture(np.random.default_rng(7).dirichlet(np.ones(37))))
    return states


def test_measure_m_bits():
    values = []
    for state in _states():
        res = measure_m(state, tol=1e-6)
        values += [res.n_value, res.err, res.witness_value, res.classification]
    assert _digest(values) == MEASURE_SHA256


def test_three_row_scan_bits():
    def f(r):
        return np.array([np.sin(5.0 * r + 0.3) + 0.2, np.cos(2.0 * r) * np.exp(-r),
                         (r - 1.1) * (r - 2.9) * (r - 4.4)])

    found = locate_sign_changes(f, (0.0, 6.0), [12, 4, 3], stop=[5.0, 9.0, 3.5],
                                close=([1e-9, 0.0, 1e-12], [0.0, 1e-3, 0.0]))
    values = []
    for cuts in found:
        values += list(cuts) + cuts.widths.tolist() + cuts.heights.tolist() + [len(cuts)]
    assert _digest(values) == SCAN_SHA256
