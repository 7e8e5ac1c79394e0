"""Finite input outside a state's, channel's or profile's domain raises
ValueError, without a warning on the way."""

import numpy as np
import pytest

from phasenorm import (CG, Amplifier, ChannelSpec, FockDiagonalState, FunctionalSpec,
                       GaussianState, apply_channel_gaussian, loss_kraus_decomposition,
                       make_thermal_fock, mix_states, norm_value, number_state)
from phasenorm.fock import attenuate_fock
from phasenorm.quadrature import GaussianTerm, integrate_plane_abs_pow, tail_radius

FLAT = GaussianTerm((0.0, 0.0), 0.0, (0.0, 1.0))
VACUUM_TERM = GaussianTerm((0.0, 0.0), 0.0, (0.25, 0.25))
CALLS = {
    "no_weights": lambda: FockDiagonalState([]),
    "negative_weight": lambda: FockDiagonalState([1.5, -0.5]),
    "negative_tail": lambda: FockDiagonalState([1.0], -1e-13),
    "negative_photon_number": lambda: number_state(-1),
    "negative_thermal_nbar": lambda: make_thermal_fock(-0.5),
    "attenuate_at_zero": lambda: attenuate_fock(number_state(1), 0.0),
    "attenuate_above_one": lambda: attenuate_fock(number_state(1), 1.5),
    "kraus_at_one": lambda: loss_kraus_decomposition(number_state(1), 1.0),
    "mix_weights_over_one": lambda: mix_states([number_state(0), number_state(1)],
                                               [0.7, 0.7]),
    "overflowing_fold": lambda: apply_channel_gaussian(
        GaussianState(), ChannelSpec((Amplifier(1e200), Amplifier(1e200)))),
    "tail_of_no_terms": lambda: tail_radius((), 1.0, 1e-7),
    "tail_of_no_decay": lambda: tail_radius(((0.0, 0.0),), 1.0, 1e-7),
    # a variance of exactly 0 has no decay: refused at entry, before the
    # co-centred route (p = 1) or a term's peak (p = 2) divides by it
    "zero_variance_p1": lambda: integrate_plane_abs_pow(FLAT, VACUUM_TERM, 1.0, 1e-6),
    "zero_variance_p2": lambda: integrate_plane_abs_pow(FLAT, VACUUM_TERM, 2.0, 1e-6),
    # variances 1e-300 and 1e300 at theta = 0.3 invert, in double precision,
    # to a ray form that is not positive along every ray
    "ill_conditioned_ray": lambda: integrate_plane_abs_pow(
        GaussianTerm((0.0, 0.0), 0.3, (1e-300, 1e300)),
        GaussianTerm((0.0, 0.0), 0.0, (0.25, 0.25)), 2.0, 1e-3),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CALLS))
def test_out_of_domain_input_rejected(name):
    with pytest.raises(ValueError):
        CALLS[name]()


def test_zero_nbar_thermal_is_the_vacuum():
    state = make_thermal_fock(0.0)
    assert np.array_equal(state.weights, [1.0]) and state.tail_mass_bound == 0.0


@pytest.mark.filterwarnings("error")
def test_ill_conditioned_ray_names_its_cause():
    # the ray check in the planar outer integrand, not the variance check at entry
    with pytest.raises(ValueError, match="a profile term does not decay along every ray"):
        CALLS["ill_conditioned_ray"]()


@pytest.mark.filterwarnings("error")
def test_zero_decay_rate_names_its_cause():
    # the rate check itself, not the log of p * rate that follows it
    with pytest.raises(ValueError, match="positive"):
        CALLS["tail_of_no_decay"]()


# covariances whose variance product passes double range: a term's peak
# 1 / (2 sqrt(v0 v1)) then reads 0
OVERFLOWING = {"isotropic": np.diag([1e160, 1e160]), "anisotropic": np.diag([1e155, 1e170])}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", sorted(OVERFLOWING))
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_overflowing_planar_term_names_its_cause(p, shape):
    state = GaussianState(cov=OVERFLOWING[shape])
    with pytest.raises(ValueError, match="variance product overflows double range"):
        norm_value(state, CG, FunctionalSpec(0.0, p), 1e-6)


@pytest.mark.filterwarnings("error")
def test_overflow_check_spares_finite_products_and_the_co_centred_route():
    # at 1e150 the product is finite and the per-ray route runs; the
    # co-centred p = 1 route needs no peak and returns before the check
    value, err = norm_value(GaussianState(cov=np.diag([1e150, 1e150])), CG,
                            FunctionalSpec(0.0, 2.0), 1e-6)
    assert value == 0.0 and err == pytest.approx(4.7e-7, rel=0.01)
    for cov in OVERFLOWING.values():
        value, err = norm_value(GaussianState(cov=cov), CG, FunctionalSpec(0.0, 1.0), 1e-6)
        assert value == 0.0 and err == pytest.approx(7.1e-15, rel=0.01)
