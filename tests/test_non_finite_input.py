"""Every constructor, and every public evaluator and integrator, rejects NaN
and infinities, wherever they sit (a planar term's weight, mean and theta
among them); the integrators also reject a tuple of tolerances that does not
fit a p = 1 hook's signals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenorm import (Amplifier, Attenuator, Displacement, FockDiagonalState,
                       FunctionalSpec, GaussianState, Rotation)
from phasenorm.fock import (amplify_fock, number_state, radial_profile, sign_search,
                            wigner_mass_outside, wigner_s_fock)
from phasenorm.gaussian import wigner_s_gaussian, wigner_term
from phasenorm.quadrature import integrate_plane_abs_pow, integrate_radial_abs_pow

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
RADIAL = radial_profile(number_state(1), 0.0)
TWO_SIGNALS = radial_profile(number_state(1), 0.0, also=((0.0, None),))
PLANAR = (wigner_term(GaussianState(), 0.0),)

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
    "radial_tol": (lambda bad: integrate_radial_abs_pow(RADIAL, 1.0, bad), NON_FINITE + (-1.0,)),
    "radial_tol_entry": (lambda bad: integrate_radial_abs_pow(TWO_SIGNALS, 1.0, (1e-6, bad)),
                         NON_FINITE + (-1.0,)),
    "plane_p": (lambda bad: integrate_plane_abs_pow(PLANAR, bad, 1e-6), NON_FINITE),
    "plane_tol": (lambda bad: integrate_plane_abs_pow(PLANAR, 1.0, bad), NON_FINITE + (-1.0,)),
    "plane_weight": (lambda bad: integrate_plane_abs_pow((PLANAR[0]._replace(weight=bad),),
                                                         1.0, 1e-6), NON_FINITE),
    "plane_mean": (lambda bad: integrate_plane_abs_pow((PLANAR[0]._replace(mean=(0.0, bad)),),
                                                       1.0, 1e-6), NON_FINITE),
    "plane_theta": (lambda bad: integrate_plane_abs_pow((PLANAR[0]._replace(theta=bad),),
                                                        1.0, 1e-6), NON_FINITE),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, bad", [(name, bad) for name, (_, bads) in CALLS.items()
                                       for bad in bads])
def test_non_finite_argument_rejected(name, bad):
    with pytest.raises(ValueError):
        CALLS[name][0](bad)


# a tuple tol holds one tolerance per signal of a p = 1 hook, and nothing else
@pytest.mark.parametrize("call", [
    lambda: integrate_radial_abs_pow(RADIAL, 2.0, (1e-6,)),
    lambda: integrate_radial_abs_pow(TWO_SIGNALS, 1.0, 1e-6),
    lambda: integrate_radial_abs_pow(TWO_SIGNALS, 1.0, (1e-6,)),
    lambda: integrate_radial_abs_pow(TWO_SIGNALS, 1.0, (1e-6, 1e-6, 1e-6)),
    lambda: integrate_plane_abs_pow(PLANAR, 1.0, (1e-6,)),
], ids=["off_hook_route", "number_for_two", "one_for_two", "three_for_two", "plane"])
def test_tuple_tol_must_match_the_hook(call):
    with pytest.raises(ValueError):
        call()
