"""Pin the bits of the exact p = 1 Fock route, the planar route and one sign scan.

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

from phasenorm import (CG, Amplifier, Attenuator, ChannelSpec, Displacement, FunctionalSpec,
                       GaussianState, Rotation, make_coherent, make_mixture, make_squeezed_thermal,
                       make_thermal, make_thermal_fock, measure_m, number_state)
from phasenorm.cli import sample_triplets
from phasenorm.quadrature import locate_sign_changes

MEASURE_SHA256 = "3d471a59193ac2dfe27a390c14bcdb4c47c08bde8e76ebc9d140b682d0cc845e"
SCAN_SHA256 = "67d6c11e144bf9e2e1acfbd5160dc0cbbdf055c078521f79789ff7fd1f45b2f8"
PLANAR_SHA256 = "ee6969260152abec47b572a9f44f71b53a58d7dff9f7c0c6d718d8f8fd87898b"


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
    for cuts, widths, heights in found:
        values += list(cuts) + widths.tolist() + heights.tolist() + [len(cuts)]
    assert _digest(values) == SCAN_SHA256


def _planar_cases():
    vacuum = GaussianState()
    off_centre = GaussianState((0.3, -0.2), make_squeezed_thermal(1.0, 0.7, 0.3).cov)
    return [
        (vacuum, CG, FunctionalSpec(0.0, 1.0)),
        (vacuum, CG, FunctionalSpec(0.0, 2.0)),
        (vacuum, CG, FunctionalSpec(-0.5, 1.5)),
        (off_centre, CG, FunctionalSpec()),
        (make_squeezed_thermal(1.0, 1.2, 0.4), CG, FunctionalSpec(0.0, 2.0)),
        (make_squeezed_thermal(0.5, 0.8, 0.2),
         ChannelSpec((Attenuator(0.5), Rotation(0.3), Amplifier(2.0))), FunctionalSpec()),
        (make_coherent(1 + 0.5j), ChannelSpec((Attenuator(0.7),)), FunctionalSpec()),
        (make_squeezed_thermal(1.0, 0.5),
         ChannelSpec((Attenuator(0.5), Amplifier(2.0), Displacement(0.3 + 0.1j))),
         FunctionalSpec()),
        (make_thermal(0.7), CG, FunctionalSpec(0.0, 3.0)),
        (make_squeezed_thermal(1.0, 20.0, 0.7), CG, FunctionalSpec()),
        (make_squeezed_thermal(0.0, 0.9), CG, FunctionalSpec(-1.0, 1.0)),
        (make_thermal(1.0), ChannelSpec((Attenuator(0.3),)), FunctionalSpec(-0.5, 1.0)),
    ]


def test_planar_measure_m_bits():
    values = []
    for state, channel, fn in _planar_cases():
        res = measure_m(state, channel, fn, 1e-6)
        values += [res.n_value, res.err, res.m_value, res.witness_value, res.classification]
    assert _digest(values) == PLANAR_SHA256
