import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenorm import (CG, Amplifier, Attenuator, ChannelSpec, Displacement,
                       FunctionalSpec, GaussianState, Rotation, apply_channel_gaussian,
                       make_coherent, make_squeezed_thermal, make_thermal,
                       min_quadrature_variance, norm_value)
from phasenorm.channels import IDENTITY
from phasenorm.gaussian import PHYS_EPS, SUB_VACUUM, wigner_s_gaussian, wigner_term
from phasenorm.quadrature import EPS

VAC = np.diag([0.25, 0.25])

PRIMITIVE = st.one_of(
    st.floats(0.05, 1.0).map(Attenuator),
    st.floats(1.0, 3.0).map(Amplifier),
    st.floats(-2.0 * math.pi, 2.0 * math.pi).map(Rotation),
    st.complex_numbers(max_magnitude=2.0).map(Displacement))


class TestConstructors:
    def test_vacuum_default(self):
        state = GaussianState()
        assert np.array_equal(state.mean, np.zeros(2))
        assert np.array_equal(state.cov, VAC)

    def test_squeezed_thermal_identity_case(self):
        state = make_squeezed_thermal(0.0, 0.0)
        assert np.allclose(state.cov, VAC)

    def test_thermal_variance(self):
        # (2 nbar + 1)/4 per axis, cross-checked against the Fock engine
        # in test_fock
        state = make_squeezed_thermal(1.0, 0.0)
        assert np.allclose(state.cov, np.diag([0.75, 0.75]))

    def test_onset_eigenvalue(self):
        # r = ln(3)/2 puts the minor axis exactly at the vacuum variance
        state = make_squeezed_thermal(1.0, 0.5493)
        assert abs(min_quadrature_variance(state) - 0.25) < 1e-4

    def test_squeezing_axis_rotated(self):
        theta = 0.7
        state = make_squeezed_thermal(0.5, 0.3, theta)
        evals, evecs = np.linalg.eigh(state.cov)
        minor = evecs[:, 0]
        assert abs(abs(minor @ [math.cos(theta), math.sin(theta)]) - 1.0) < 1e-12

    def test_coherent_moves_mean_only(self):
        state = make_coherent(1 + 2j)
        assert np.allclose(state.mean, [1.0, 2.0])
        assert np.array_equal(state.cov, VAC)
        assert np.array_equal(make_coherent(0).cov, VAC)

    @pytest.mark.parametrize("nbar,r", [(-0.1, 0.0), (1.0, -0.2)])
    def test_negative_parameters_rejected(self, nbar, r):
        with pytest.raises(ValueError):
            make_squeezed_thermal(nbar, r)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda: make_squeezed_thermal(math.nan, 0.3),
        lambda: make_squeezed_thermal(1.0, 0.3, math.nan),
        lambda: make_coherent(math.inf),
        lambda: GaussianState(np.zeros(2), np.diag([math.inf, 0.25])),
        lambda: make_squeezed_thermal(1.0, math.inf),
        lambda: make_squeezed_thermal(math.inf, 0.3),
        lambda: make_squeezed_thermal(1.0, 400.0),
        lambda: make_squeezed_thermal(1e308, 1.0),
    ], ids=["nbar_nan", "theta_nan", "coherent_inf", "cov_inf", "r_inf", "nbar_inf",
            "r_overflows", "variance_overflows"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_large_squeezing_builds_symmetric(self):
        # entries near 1e5 carry rounding far above an absolute 1e-12
        state = make_squeezed_thermal(1.0, 6.0, 0.3)
        assert state.cov[0, 1] == state.cov[1, 0]
        assert min_quadrature_variance(state) == pytest.approx(0.75 * math.exp(-12.0),
                                                               rel=1e-6)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.diag([0.1, 0.1]))  # det < 1/16
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.array([[0.5, 0.1], [0.2, 0.5]]))
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.diag([-0.5, -0.5]))

    def test_diagonal_covariance_round_trips(self):
        # c = 0 converts exactly to axes at theta 0, with no rounding carried
        for cov in (np.diag([0.5, 0.3]), np.diag([0.3, 0.5]), VAC):
            state = GaussianState(np.zeros(2), cov)
            assert (state.theta, state.rounding) == (0.0, 0.0)
            assert np.array_equal(state.cov, cov)


class TestChannels:
    def test_attenuator_fixes_vacuum(self):
        out = apply_channel_gaussian(GaussianState(), ChannelSpec((Attenuator(0.5),)))
        assert np.array_equal(out.cov, VAC)
        assert np.array_equal(out.mean, np.zeros(2))

    def test_amplifier_on_vacuum_is_thermal(self):
        out = apply_channel_gaussian(GaussianState(), ChannelSpec((Amplifier(2.0),)))
        assert np.allclose(out.cov, np.diag([0.75, 0.75]))

    def test_cg_shift_exact_on_random_covariances(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            nu = rng.uniform(0.25, 1.5)
            state = make_squeezed_thermal((4 * nu - 1) / 2, rng.uniform(0, 1.2),
                                          rng.uniform(0, math.pi))
            out = apply_channel_gaussian(state, CG)
            assert np.max(np.abs(out.cov - state.cov - np.diag([0.5, 0.5]))) <= 1e-15
            # the shift is the noise C_g adds, on the same axes
            assert (out.theta, out.axes, out.noise) == (state.theta, state.axes, 0.5)
            assert np.array_equal(out.mean, state.mean)

    def test_displacement_and_rotation(self):
        ch = ChannelSpec((Displacement(2 - 1j), Rotation(math.pi / 2)))
        out = apply_channel_gaussian(make_coherent(1), ch)
        # (1, 0) -> (3, -1) -> rotated 90 degrees -> (1, 3)
        assert np.allclose(out.mean, [1.0, 3.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(PRIMITIVE, min_size=1, max_size=6),
           st.floats(0.0, 2.0), st.floats(0.0, 1.2), st.floats(0.0, math.pi))
    def test_composition_matches_affine_form(self, elements, nbar, r, theta):
        # the one-shot fold against the oracle of applying each element
        # as its own channel; entries are compared on their own scale
        state = make_squeezed_thermal(nbar, r, theta)
        once = apply_channel_gaussian(state, ChannelSpec(tuple(elements)))
        seq = state
        for el in elements:
            seq = apply_channel_gaussian(seq, ChannelSpec((el,)))
        for got, want in ((once.cov, seq.cov), (once.mean, seq.mean)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_split_application_equals_composite(self):
        first = ChannelSpec((Attenuator(0.3),))
        second = ChannelSpec((Amplifier(1.7), Rotation(0.4)))
        state = make_squeezed_thermal(0.8, 0.6, 0.2)
        via_parts = apply_channel_gaussian(apply_channel_gaussian(state, first), second)
        via_composite = apply_channel_gaussian(state, first.then(second))
        assert np.allclose(via_parts.cov, via_composite.cov, atol=1e-15)
        assert np.allclose(via_parts.mean, via_composite.mean, atol=1e-15)


class TestWigner:
    def test_vacuum_values_at_origin(self):
        vac = GaussianState()
        assert wigner_s_gaussian(vac, 0.0, 0j) == pytest.approx(2.0, abs=1e-14)
        assert wigner_s_gaussian(vac, -1.0, 0j) == pytest.approx(1.0, abs=1e-14)

    def test_classicalized_vacuum_at_origin(self):
        out = apply_channel_gaussian(GaussianState(), CG)
        assert wigner_s_gaussian(out, 0.0, 0j) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_vacuum_radial_profile(self):
        grid = np.linspace(0, 3, 31).astype(complex)
        vals = wigner_s_gaussian(GaussianState(), 0.0, grid)
        assert np.allclose(vals, 2.0 * np.exp(-2.0 * np.abs(grid) ** 2), atol=1e-14)

    def test_s_shift_identity(self):
        # W^(s) of the classicalized state equals W^(s-2) of the input
        rng = np.random.default_rng(9)
        pts = (rng.uniform(-2, 2, size=20) + 1j * rng.uniform(-2, 2, size=20))
        for _ in range(10):
            state = make_squeezed_thermal(rng.uniform(0, 2), rng.uniform(0, 1),
                                          rng.uniform(0, math.pi))
            out = apply_channel_gaussian(state, CG)
            for s in (0.0, -1.0):
                assert np.allclose(wigner_s_gaussian(out, s, pts),
                                   wigner_s_gaussian(state, s - 2.0, pts),
                                   atol=1e-12)

    def test_order_too_large_rejected(self):
        with pytest.raises(ValueError):
            wigner_s_gaussian(GaussianState(), 1.5, 0j)


class TestVarianceWitness:
    # the Gaussian witness: a minor quadrature variance below the vacuum's
    def test_vacuum_not_quantum(self):
        assert not min_quadrature_variance(GaussianState()) < SUB_VACUUM

    def test_above_onset_quantum(self):
        assert min_quadrature_variance(make_squeezed_thermal(1.0, 0.7)) < SUB_VACUUM

    def test_below_onset_not_quantum(self):
        assert not min_quadrature_variance(make_squeezed_thermal(1.0, 0.5)) < SUB_VACUUM

    def test_thermal_not_quantum(self):
        assert not min_quadrature_variance(make_thermal(2.0)) < SUB_VACUUM


def accepted(build):
    try:
        build()
    except ValueError:
        return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.floats(-math.pi, math.pi),
       st.floats(0.5, 1.5), st.complex_numbers(max_magnitude=3.0),
       st.lists(PRIMITIVE, max_size=6), st.floats(-2.0, 0.0))
def test_closed_forms_match_linalg(nbar, r, theta, scale, mean, elements, s):
    # numpy.linalg is the oracle of every closed form on the Gaussian route;
    # a scale below 1 can break the uncertainty relation
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    v = (2.0 * nbar + 1.0) / 4.0
    cov = scale * (rot @ np.diag([v * math.exp(-2.0 * r), v * math.exp(2.0 * r)]) @ rot.T)
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    physical = eigs[0] > 0.0 and eigs[0] * eigs[1] >= 1.0 / 16.0 - PHYS_EPS
    mu = np.array([mean.real, mean.imag])
    assert accepted(lambda: GaussianState(mu, cov)) == physical
    if not physical:
        return
    state = GaussianState(mu, cov)
    assert abs(min_quadrature_variance(state) - eigs[0]) <= 1e-13 * eigs[1]

    # both dets carry rounding up to the bound the constructor judges, so
    # amp and the exponent may differ by that much beyond 1e-13
    cov_s = cov - s / 4.0 * np.eye(2)
    det = np.linalg.det(cov_s)
    slack = 1e-13 + 2.0 * EPS * (cov_s[0, 0] * cov_s[1, 1] + cov_s[0, 1] ** 2) / det
    amp = 1.0 / (2.0 * math.sqrt(det))
    assert wigner_term(state, s).amp == pytest.approx(amp, rel=slack, abs=0.0)
    pts = mu[0] + 1j * mu[1] + np.array([0.0, 0.3 - 0.2j, -0.5 + 1.1j])
    d = np.column_stack([pts.real, pts.imag]) - mu
    quad = np.einsum("ij,jk,ik->i", d, np.linalg.inv(cov_s), d)
    logs = np.log(wigner_s_gaussian(state, s, pts) / amp) + 0.5 * quad
    assert np.all(np.abs(logs) <= slack * (1.0 + quad))

    channel = ChannelSpec(tuple(elements))
    k, y, phi, shift = channel.fold()
    turn = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    want = k * (turn @ cov @ turn.T) + y * np.eye(2)
    out = apply_channel_gaussian(state, channel)
    assert np.max(np.abs(out.cov - want)) <= 1e-14 * np.max(np.abs(want))
    want_mean = math.sqrt(k) * (turn @ mu) + [shift.real, shift.imag]
    assert np.max(np.abs(out.mean - want_mean)) <= 1e-14 * max(1.0, np.max(np.abs(want_mean)))

    assert norm_value(state, IDENTITY, FunctionalSpec(), 1e-6)[0] == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, math.pi, exclude_max=True))
def test_covariance_and_axes_build_the_same_state(nbar, r, theta):
    # make_squeezed_thermal builds from its axes; its .cov keeps the bits of
    # the rotation of diag(minor, major) by theta as a 2x2 (a, c, b) with
    # c = 0, so states built from that covariance see the same input
    axes = make_squeezed_thermal(nbar, r, theta)
    v = (2.0 * nbar + 1.0) / 4.0
    minor, major, c = v * math.exp(-2.0 * r), v * math.exp(2.0 * r), 0.0
    cos, sin = math.cos(theta), math.sin(theta)
    cc, ss, cs = cos * cos, sin * sin, cos * sin
    rotated = (cc * minor - 2.0 * cs * c + ss * major, cs * (minor - major) + (cc - ss) * c,
               ss * minor + 2.0 * cs * c + cc * major)
    a, c, b = (x.hex() for x in rotated)
    assert [x.hex() for x in axes.cov.ravel().tolist()] == [a, c, c, b]
    # the conversion back to axes is within the rounding it carries: twice
    # that total variation bounds the relative change of the minor variance,
    # against that eigenvalue of the covariance as given, at 30 digits; a
    # diagonal covariance converts exactly and gives itself back
    converted = GaussianState(axes.mean, axes.cov)
    assert axes.rounding == 0.0 and (converted.rounding > 0.0) == (axes.cov[0, 1] != 0.0)
    with mp.workdps(30):
        a, c, b = (mp.mpf(x) for x in (axes.cov[0, 0], axes.cov[0, 1], axes.cov[1, 1]))
        exact = float(min(mp.eig(mp.matrix([[a, c], [c, b]]))[0], key=mp.re).real)
    assert abs(min_quadrature_variance(converted) - exact) <= 2.0 * converted.rounding * exact
    if converted.rounding == 0.0:
        assert np.array_equal(converted.cov, axes.cov)
    n_axes, err_axes = norm_value(axes, CG, FunctionalSpec(), 1e-6)
    n_cov, err_cov = norm_value(converted, CG, FunctionalSpec(), 1e-6)
    assert abs(n_axes - n_cov) <= err_axes + err_cov
