"""Every constructor, and every public evaluator and integrator, rejects NaN
and infinities, wherever they sit (a planar term's variances, mean and
theta among them); the integrators and the quantifier's entry points take one
number tol, and the exact p = 1 route one tol per signal, each checked by
``quadrature.checked_tol``, so a tol that is no number raises ValueError too."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenorm import (CG, Amplifier, Attenuator, Displacement, FockDiagonalState,
                       FunctionalSpec, GaussianState, Rotation, apply_channel_gaussian,
                       baseline_with_error, convexity_gap, measure_m, monotonicity_gap_strong,
                       monotonicity_gap_weak, norm_value, wigner_negativity)
from phasenorm.fock import (amplify_fock, number_state, radial_l1, radial_profile,
                            sign_search, wigner_mass_outside, wigner_s_fock)
from phasenorm.gaussian import wigner_s_gaussian, wigner_term
from phasenorm.quadrature import checked_tol, integrate_plane_abs_pow, integrate_radial_abs_pow

BAD = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(-10.0, 10.0)


def poked(values, index, bad):
    """``values`` with ``bad`` at ``index`` (taken modulo the length)."""
    values = list(values)
    values[index % len(values)] = bad
    return values


BUILDS = {
    "mean": lambda bad, i, x: GaussianState(poked([x[0], x[-1]], i, bad)),
    "cov": lambda bad, i, x: GaussianState(
        np.zeros(2), np.reshape(poked([0.5, 0.1, 0.1, 0.5], i, bad), (2, 2))),
    "weights": lambda bad, i, x: FockDiagonalState(
        poked((np.abs(x) + 1.0) / np.sum(np.abs(x) + 1.0), i, bad)),
    "functional": lambda bad, i, x: FunctionalSpec(*poked([-abs(x[0]), 1.0 + abs(x[-1])],
                                                          i, bad)),
    "attenuator": lambda bad, i, x: Attenuator(bad),
    "amplifier": lambda bad, i, x: Amplifier(bad),
    "rotation": lambda bad, i, x: Rotation(bad),
    "displacement": lambda bad, i, x: Displacement(complex(*poked([x[0], x[-1]], i, bad))),
}


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BUILDS)), BAD, st.integers(0, 2**16),
       st.lists(FINITE, min_size=1, max_size=12))
def test_non_finite_input_rejected(kind, bad, index, values):
    with pytest.raises(ValueError):
        BUILDS[kind](bad, index, values)


NON_FINITE = (math.nan, math.inf, -math.inf)
NOT_A_NUMBER = ("1e-6", None, 1e-6 + 0j, (1e-6,), [1e-6])
BAD_TOLS = NON_FINITE + (-1.0,) + NOT_A_NUMBER
RADIAL = radial_profile(number_state(1), 0.0)
TWO_SIGNALS = ((0.0, None), (0.0, None))
PLANAR = (wigner_term(GaussianState(), 0.0),
          wigner_term(apply_channel_gaussian(GaussianState(), CG), 0.0))

# orderings, norm orders, tolerances and gains; a tolerance must also be > 0
CALLS = {
    "wigner_s_fock": (lambda bad: wigner_s_fock(number_state(1), bad, 0.5), NON_FINITE),
    "wigner_mass_outside": (lambda bad: wigner_mass_outside(number_state(1), bad, 0.5),
                            NON_FINITE),
    "sign_search": (lambda bad: sign_search(number_state(1), ((bad, 1.0),), 1), NON_FINITE),
    "radial_profile": (lambda bad: radial_profile(number_state(1), bad), NON_FINITE),
    "wigner_s_gaussian": (lambda bad: wigner_s_gaussian(GaussianState(), bad, 0j), NON_FINITE),
    "amplify_fock": (lambda bad: amplify_fock(number_state(1), bad), NON_FINITE),
    "radial_p": (lambda bad: integrate_radial_abs_pow(RADIAL, bad, 1e-6), NON_FINITE),
    "radial_tol": (lambda bad: integrate_radial_abs_pow(RADIAL, 1.0, bad), BAD_TOLS),
    "radial_tol_entry": (lambda bad: radial_l1(number_state(1), TWO_SIGNALS, (1e-6, bad)),
                         BAD_TOLS),
    "radial_l1_s": (lambda bad: radial_l1(number_state(1), ((bad, None),), (1e-6,)), NON_FINITE),
    "plane_p": (lambda bad: integrate_plane_abs_pow(*PLANAR, bad, 1e-6), NON_FINITE),
    "plane_tol": (lambda bad: integrate_plane_abs_pow(*PLANAR, 1.0, bad), BAD_TOLS),
    "plane_variance": (lambda bad: integrate_plane_abs_pow(
        PLANAR[0]._replace(variances=(0.25, bad)), PLANAR[1], 1.0, 1e-6), NON_FINITE),
    "plane_mean": (lambda bad: integrate_plane_abs_pow(PLANAR[0]._replace(mean=(0.0, bad)),
                                                       PLANAR[1], 1.0, 1e-6), NON_FINITE),
    "plane_theta": (lambda bad: integrate_plane_abs_pow(PLANAR[0]._replace(theta=bad),
                                                        PLANAR[1], 1.0, 1e-6), NON_FINITE),
    "norm_value_tol": (lambda bad: norm_value(number_state(1), CG, FunctionalSpec(), bad),
                       BAD_TOLS),
    "measure_m_tol": (lambda bad: measure_m(number_state(1), tol=bad), BAD_TOLS),
    "baseline_tol": (lambda bad: baseline_with_error(tol=bad), BAD_TOLS),
    "negativity_tol": (lambda bad: wigner_negativity(number_state(1), bad), BAD_TOLS),
    "convexity_tol": (lambda bad: convexity_gap([number_state(0), number_state(1)],
                                                [0.5, 0.5], tol=bad), BAD_TOLS),
    "weak_gap_tol": (lambda bad: monotonicity_gap_weak(number_state(1), 0.5, tol=bad),
                     BAD_TOLS),
    "strong_gap_tol": (lambda bad: monotonicity_gap_strong(number_state(1), 0.5, tol=bad),
                       BAD_TOLS),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, bad", [(name, bad) for name, (_, bads) in CALLS.items()
                                       for bad in bads])
def test_non_finite_argument_rejected(name, bad):
    with pytest.raises(ValueError):
        CALLS[name][0](bad)


# a tuple tol holds one tolerance per signal of the exact p = 1 route,
# radial_l1, and the integrators take none
@pytest.mark.parametrize("call", [
    lambda: integrate_radial_abs_pow(RADIAL, 2.0, (1e-6,)),
    lambda: radial_l1(number_state(1), TWO_SIGNALS, 1e-6),
    lambda: radial_l1(number_state(1), TWO_SIGNALS, (1e-6,)),
    lambda: radial_l1(number_state(1), TWO_SIGNALS, (1e-6, 1e-6, 1e-6)),
    lambda: integrate_plane_abs_pow(*PLANAR, 1.0, (1e-6,)),
], ids=["off_hook_route", "number_for_two", "one_for_two", "three_for_two", "plane"])
def test_tuple_tol_must_match_the_hook(call):
    with pytest.raises(ValueError):
        call()


# one rule for every tol: a real number, finite and > 0, passed through as it came
@pytest.mark.parametrize("tol", [np.float32(1e-6), np.float64(1e-6), 1, 1e-6])
def test_number_tol_passes_unchanged(tol):
    assert checked_tol(tol) is tol

