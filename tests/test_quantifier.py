import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasenorm.fock
import phasenorm.quadrature
import phasenorm.quantifier
from phasenorm import (CG, CERTIFIED_QUANTUM, CLASSICAL_CONSISTENT,
                       Amplifier, Attenuator, ChannelSpec, Displacement,
                       FunctionalSpec, GaussianState, IDENTITY, IntegralEstimate,
                       NOGO_INSTANCE, RadialProfile, Rotation,
                       ToleranceNotReached, UnsupportedInputError,
                       apply_channel_fock, baseline_with_error, classify,
                       convexity_gap, integrate_radial_abs_pow, make_coherent,
                       make_mixture, make_squeezed_thermal, make_thermal,
                       make_thermal_fock, measure_m, monotonicity_gap_strong,
                       monotonicity_gap_weak, norm_value, number_state,
                       radial_profile, wigner_negativity, wigner_s_fock)

TOL = 1e-6

# closed forms, confirmed independently by quadrature during development
BASELINE_CG = 4.0 * math.sqrt(3.0) / 9.0              # 0.7698003589195010
THERMAL1_CG = 2.0 * (0.6**1.5 - 0.6**2.5)             # 0.3718064012359120
NEGATIVITY_FOCK1 = 4.0 * math.exp(-0.5) - 2.0         # 0.4261226388505319
# W of |2> has the mass e^(-x/2) (2 + x^2) / 2 outside x = 4 rho^2 and
# changes sign at the roots x1, x2 = 2 -+ sqrt(2) of L_2, so its negativity
# is e^(-x2/2) (2 + x2^2) - e^(-x1/2) (2 + x1^2)
NEGATIVITY_FOCK2 = (math.exp(-1.0 - math.sqrt(0.5)) * (8.0 + 4.0 * math.sqrt(2.0))
                    - math.exp(-1.0 + math.sqrt(0.5)) * (8.0 - 4.0 * math.sqrt(2.0)))

# quadrature-pinned golden values (radial integrator, tol 1e-9)
N_FOCK1 = 1.2316448502
N_FOCK2 = 1.5870725075


class TestBaseline:
    def test_closed_form_default(self):
        assert baseline_with_error()[0] == BASELINE_CG
        value, err = baseline_with_error(CG, FunctionalSpec(), 1e-7)
        assert value == BASELINE_CG
        assert err <= 1e-7

    def test_husimi_baseline(self):
        # closed form: two isotropic Gaussians with variances 1/2 and 1
        assert baseline_with_error(CG, FunctionalSpec(s=-1.0), 1e-7)[0] == pytest.approx(
            0.5, abs=1e-7)

    def test_p2_baseline(self):
        assert baseline_with_error(CG, FunctionalSpec(p=2.0), 1e-6)[0] == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-6)

    def test_baseline_equals_vacuum_norm(self):
        res = measure_m(GaussianState(), CG, FunctionalSpec(), TOL)
        assert res.baseline == baseline_with_error()[0]
        assert res.n_value == pytest.approx(res.baseline, abs=2 * TOL)


def mpmath_squeezed_norm(nbar, r):
    """N of a squeezed thermal state under CG at (s, p) = (0, 1), by mpmath.

    Nested quadrature of |W_in - W_out| in polar coordinates scaled by the
    output's axes, the radial integral split where mpmath.findroot puts the
    sign change; no closed form of the ray integral is used.
    """
    with mp.workdps(10):
        v = mp.mpf(2 * nbar + 1) / 4
        var_in = (v * mp.exp(-2 * r), v * mp.exp(2 * r))
        var_out = (var_in[0] + mp.mpf(1) / 2, var_in[1] + mp.mpf(1) / 2)
        amp_in = 1 / (2 * mp.sqrt(var_in[0] * var_in[1]))
        amp_out = 1 / (2 * mp.sqrt(var_out[0] * var_out[1]))

        def ray(phi):
            # along the scaled ray W_out decays as exp(-rho^2/2)
            rate = (var_out[0] * mp.cos(phi) ** 2 / var_in[0]
                    + var_out[1] * mp.sin(phi) ** 2 / var_in[1]) / 2

            def diff(rho):
                return amp_in * mp.exp(-rate * rho**2) - amp_out * mp.exp(-rho**2 / 2)

            def ratio(rho):
                return amp_in / amp_out * mp.exp((mp.mpf(1) / 2 - rate) * rho**2) - 1

            cut = mp.findroot(ratio, (mp.mpf(0), mp.mpf(4)), solver="anderson")
            return (mp.quad(lambda rho: rho * diff(rho), [0, cut], method="gauss-legendre")
                    - mp.quad(lambda rho: rho * diff(rho), [cut, mp.inf],
                              method="gauss-legendre"))

        # W is even in both axes: four quarter turns
        scale = mp.sqrt(var_out[0] * var_out[1])
        return float(4 * scale / mp.pi * mp.quad(ray, [0, mp.pi / 2]))


class TestNorm:
    def test_vacuum_value(self):
        res = measure_m(GaussianState(), CG, FunctionalSpec(), TOL)
        assert res.n_value == pytest.approx(BASELINE_CG, abs=1e-7)

    def test_coherent_invariance(self):
        res = measure_m(make_coherent(2 - 1j), CG, FunctionalSpec(), TOL)
        assert res.n_value == pytest.approx(BASELINE_CG, abs=2 * TOL)

    def test_thermal_closed_form(self):
        res = measure_m(make_thermal(1.0), CG, FunctionalSpec(), TOL)
        assert res.n_value == pytest.approx(THERMAL1_CG, abs=1e-6)

    def test_fock_golden_values(self):
        res1 = measure_m(number_state(1), CG, FunctionalSpec(), TOL)
        res2 = measure_m(number_state(2), CG, FunctionalSpec(), TOL)
        assert res1.n_value == pytest.approx(N_FOCK1, abs=1e-6)
        assert res2.n_value == pytest.approx(N_FOCK2, abs=1e-6)

    @pytest.mark.parametrize("nbar,r", [(0.5, 0.3), (1.0, 1.0), (0.0, 1.5)])
    def test_squeezed_thermal_matches_mpmath(self, nbar, r):
        value, err = norm_value(make_squeezed_thermal(nbar, r), CG, FunctionalSpec(), TOL)
        assert abs(value - mpmath_squeezed_norm(nbar, r)) <= err

    def test_identity_channel_gives_zero(self):
        res = measure_m(make_thermal(0.7), IDENTITY, FunctionalSpec(), TOL)
        assert res.n_value == 0.0

    def test_unsupported_state_type(self):
        with pytest.raises(TypeError):
            measure_m(np.zeros(3), CG, FunctionalSpec(), TOL)


def channel_route_integral(state, channel, s, tol):
    """int |W^(s)(rho) - W^(s)(channel(rho))| with the output built by the
    Fock transition laws (binomial and negative-binomial columns)."""
    out = apply_channel_fock(state, channel)
    diff = RadialProfile(
        lambda r: wigner_s_fock(state, s, r) - wigner_s_fock(out, s, r),
        radial_profile(state, s).decay + radial_profile(out, s).decay,
        degree_hint=state.cutoff + out.cutoff + 2)
    return integrate_radial_abs_pow(diff, 1.0, tol)


class TestExactRadialRoute:
    def test_fock_p1_runs_no_panels(self, monkeypatch):
        # at p = 1 the radial integral is the sum of masses between sign cuts
        def refuse(*args, **kwargs):
            raise AssertionError("Fock p = 1 route ran adaptive panels")

        baseline_with_error(CG, FunctionalSpec(), TOL)  # planar, cached
        monkeypatch.setattr(phasenorm.quadrature, "_adaptive_panels", refuse)
        for state in (number_state(1), make_mixture([0.38, 0.57, 0.05]),
                      make_thermal_fock(2.0, 80)):
            measure_m(state, CG, FunctionalSpec(), TOL)
            wigner_negativity(state, TOL)
        for s in (-0.5, -1.0):
            norm_value(number_state(4), CG, FunctionalSpec(s=s), TOL)

    def test_thermal_closed_form_to_rounding(self):
        # the closed form is 0.3718064012359121 to 16 digits (mpmath)
        value, err = norm_value(make_thermal_fock(1.0, 60), CG, FunctionalSpec(), TOL)
        assert abs(value - THERMAL1_CG) <= 1e-12
        assert err <= TOL

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.lists(st.one_of(st.floats(0.1, 1.0).map(Attenuator),
                              st.floats(1.0, 2.0).map(Amplifier),
                              st.floats(0.0, 2.0 * math.pi).map(Rotation)),
                    min_size=1, max_size=4),
           st.sampled_from([0.0, -0.5, -1.0]))
    def test_matches_panel_route(self, cutoff, seed, elements, s):
        # the panel route integrates the same profile with its mass removed
        state = make_mixture(np.random.default_rng(seed).dirichlet(np.ones(cutoff + 1)))
        channel, fn = ChannelSpec(tuple(elements)), FunctionalSpec(s=s)

        def panel_route(profile, p, tol):
            return integrate_radial_abs_pow(dataclasses.replace(profile, mass=None), p, tol)

        value, err = norm_value(state, channel, fn, TOL)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(phasenorm.quantifier, "integrate_radial_abs_pow", panel_route)
            oracle, oracle_err = norm_value(state, channel, fn, TOL)
        assert abs(value - oracle) <= err + oracle_err


class TestErrorContract:
    @pytest.mark.parametrize("state", [make_squeezed_thermal(1.0, 0.7), make_coherent(1 - 1j),
                                       number_state(2), make_thermal_fock(1.0),
                                       make_mixture([0.38, 0.57, 0.05])],
                             ids=["squeezed", "coherent", "fock2", "thermal_fock", "nogo"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_err_is_norm_bound_plus_baseline_bound(self, state, tol):
        res = measure_m(state, CG, FunctionalSpec(), tol)
        n_value, n_err = norm_value(state, CG, FunctionalSpec(), tol)
        base, base_err = baseline_with_error(CG, FunctionalSpec(), tol)
        assert (res.n_value, res.baseline) == (n_value, base)
        assert res.err == n_err + base_err
        assert n_err <= tol
        assert base_err <= min(tol, 1e-7)

    def test_exhausted_retries_raise_with_estimate(self, monkeypatch):
        # an integral that never tightens: at p = 2 its root keeps err at
        # sqrt(1 + 1e-3) - 1 = 5.0e-4 whatever tolerance is asked for
        calls = []

        def stuck(state, channel, fn, quad_tol):
            calls.append(quad_tol)
            return IntegralEstimate(1.0, 1e-3, 1, 1.0)

        monkeypatch.setattr(phasenorm.quantifier, "_integral_once", stuck)
        with pytest.raises(ToleranceNotReached) as excinfo:
            norm_value(number_state(1), CG, FunctionalSpec(p=2.0), TOL)
        value, err = excinfo.value.estimate
        assert len(calls) == 4
        assert value == 1.0
        assert err == pytest.approx(math.sqrt(1.001) - 1.0, rel=1e-12)


class TestFockOrderingShift:
    def test_no_transition_law_at_runtime(self, monkeypatch):
        # the quantifier applies a channel to a diagonal state as an ordering
        # shift; building the amplified state is left to the oracles
        def refuse(*args, **kwargs):
            raise AssertionError("quantifier applied a Fock transition law")

        monkeypatch.setattr(phasenorm.fock, "amplify_fock", refuse)
        monkeypatch.setattr(phasenorm.quantifier, "apply_channel_fock", refuse)
        nogo = measure_m(make_mixture([0.38, 0.57, 0.05]), CG, FunctionalSpec(), TOL)
        assert nogo.classification == NOGO_INSTANCE
        thermal = measure_m(make_thermal_fock(1.0), CG, FunctionalSpec(), TOL)
        assert abs(thermal.n_value - THERMAL1_CG) <= thermal.err
        assert thermal.classification == CLASSICAL_CONSISTENT

    def test_identity_channel_gives_zero(self):
        assert measure_m(number_state(3), IDENTITY).n_value == 0.0

    def test_loss_fixes_the_vacuum(self):
        # the two terms agree only to rounding; noise flips must not be
        # counted as sign changes (they exceeded the root budget)
        loss = ChannelSpec((Attenuator(0.3), Rotation(1.0), Attenuator(0.7)))
        for s in (0.0, -1.0, -3.0):
            assert norm_value(make_mixture([1.0, 0.0, 0.0]), loss,
                              FunctionalSpec(s=s), TOL)[0] == 0.0

    def test_displacement_rejected(self):
        with pytest.raises(UnsupportedInputError):
            measure_m(number_state(1), ChannelSpec((Displacement(1 + 0j),)))

    def test_cancelling_displacements_fold_away(self):
        # the fold nets the displacements: D(-1) D(1) is the identity, so
        # only a net shift breaks photon-number diagonality
        state = number_state(3)
        undone = ChannelSpec((Displacement(1), Displacement(-1)))
        assert measure_m(state, undone).n_value == measure_m(state, IDENTITY).n_value == 0.0
        with pytest.raises(UnsupportedInputError):
            measure_m(state, ChannelSpec((Displacement(1), Displacement(-0.5))))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=13).filter(
               lambda w: sum(w) > 0.01),
           st.lists(st.one_of(st.floats(0.1, 1.0).map(Attenuator),
                              st.floats(1.0, 2.0).map(Amplifier),
                              st.floats(0.0, 2.0 * math.pi).map(Rotation)),
                    min_size=1, max_size=4),
           st.sampled_from([0.0, -0.5, -1.0]))
    def test_matches_transition_law_route(self, weights, elements, s):
        state = make_mixture(np.array(weights) / sum(weights))
        channel = ChannelSpec(tuple(elements))
        value, err = norm_value(state, channel, FunctionalSpec(s=s), TOL)
        oracle = channel_route_integral(state, channel, s, TOL)
        assert abs(value - oracle.value) <= err + oracle.abs_error_bound + 1e-8

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 120), st.integers(0, 2**32 - 1),
           st.sampled_from([0.05, 1.0]),
           st.sampled_from([0.0, -0.5, -1.0, -2.0, -3.0, -5.0]),
           st.floats(0.1, 9.0))
    def test_rescaled_decay_envelope_holds(self, cutoff, seed, alpha, s, k):
        # the ordering-shift route integrates W^(s)(r / sqrt(k)) / k, bounded
        # by the envelope of radial_profile with log amplitude - ln k and
        # rate / k; checked out to the radius where that envelope's tail
        # drops below 1e-7 (a tol 1e-6 integral truncates there)
        rng = np.random.default_rng(seed)
        state = make_mixture(rng.dirichlet(np.full(cutoff + 1, alpha)))
        decay = [(log_a - math.log(k), rate / k)
                 for log_a, rate in radial_profile(state, s).decay]
        log_amp = np.logaddexp.reduce([log_a for log_a, _ in decay])
        rate_min = min(rate for _, rate in decay)
        radius = math.sqrt(max(
            (log_amp - math.log(rate_min) - math.log(1e-7)) / rate_min, 1.0))
        r = np.linspace(0.0, radius, 2001)
        values = wigner_s_fock(state, s, r / math.sqrt(k)) / k
        envelope = np.logaddexp.reduce([log_a - rate * r**2 for log_a, rate in decay])
        with np.errstate(divide="ignore"):
            excess = np.log(np.abs(values)) - envelope
        assert np.max(excess) <= 1e-12


class TestMeasure:
    def test_vacuum_classical_consistent(self):
        res = measure_m(GaussianState(), CG, FunctionalSpec(), TOL)
        assert abs(res.m_value) <= 2 * TOL
        assert res.classification == CLASSICAL_CONSISTENT
        assert res.m_value == res.n_value - res.baseline  # exact float identity

    def test_squeezed_thermal_nogo(self):
        res = measure_m(make_squeezed_thermal(1.0, 0.7), CG, FunctionalSpec(), TOL)
        assert res.witness_kind == "gaussian_variance"
        assert res.witness_quantum
        assert res.m_value < 0
        assert res.classification == NOGO_INSTANCE

    def test_squeezed_thermal_certified(self):
        res = measure_m(make_squeezed_thermal(1.0, 1.2), CG, FunctionalSpec(), TOL)
        assert res.m_value > res.err
        assert res.classification == CERTIFIED_QUANTUM

    def test_large_squeezing_certified(self):
        # rotating a covariance with entries near 1e5 leaves rounding above
        # any absolute symmetry slack; the state is valid and far from classical
        res = measure_m(make_squeezed_thermal(1.0, 6.0, 0.3), CG, FunctionalSpec(), TOL)
        assert res.classification == CERTIFIED_QUANTUM

    def test_fock_mixture_nogo(self):
        res = measure_m(make_mixture([0.38, 0.57, 0.05]), CG, FunctionalSpec(), TOL)
        assert res.witness_kind == "wigner_negativity"
        assert res.witness_value > 1e-3
        assert res.m_value < 0
        assert res.classification == NOGO_INSTANCE

    def test_classify_rules(self):
        assert classify(-0.1, 1e-6, True) == NOGO_INSTANCE
        assert classify(0.0, 1e-6, True) == NOGO_INSTANCE
        assert classify(-0.1, 1e-6, False) == CLASSICAL_CONSISTENT
        assert classify(1e-7, 1e-6, False) == CLASSICAL_CONSISTENT
        assert classify(1e-7, 1e-6, True) == CLASSICAL_CONSISTENT
        assert classify(0.1, 1e-6, False) == CERTIFIED_QUANTUM
        assert classify(0.1, 1e-6, True) == CERTIFIED_QUANTUM


class TestNegativity:
    def test_vacuum_zero(self):
        assert abs(wigner_negativity(number_state(0), TOL)) <= TOL

    def test_fock1_golden(self):
        assert wigner_negativity(number_state(1), TOL) == pytest.approx(
            NEGATIVITY_FOCK1, abs=1e-6)

    def test_fock2_golden(self):
        assert wigner_negativity(number_state(2), TOL) == pytest.approx(
            NEGATIVITY_FOCK2, abs=1e-6)

    def test_thermal_zero(self):
        assert abs(wigner_negativity(make_mixture([0.6, 0.3, 0.1]), TOL)) <= 2 * TOL

    def test_gaussian_rejected(self):
        with pytest.raises(UnsupportedInputError):
            wigner_negativity(GaussianState(), TOL)


class TestConvexity:
    def test_single_state_zero_gap(self):
        gap = convexity_gap([number_state(1)], [1.0], CG, FunctionalSpec(), TOL)
        assert abs(gap) <= 2 * TOL

    def test_vacuum_fock1_halves(self):
        gap = convexity_gap([number_state(0), number_state(1)], [0.5, 0.5],
                            CG, FunctionalSpec(), TOL)
        assert gap >= -3 * TOL
        assert gap > 0.1  # strictly convex here, pinned during development

    def test_fock1_fock2_weights(self):
        gap = convexity_gap([number_state(1), number_state(2)], [0.3, 0.7],
                            CG, FunctionalSpec(), TOL)
        assert gap >= -3 * TOL

    def test_gaussian_mixture_rejected(self):
        with pytest.raises(UnsupportedInputError):
            convexity_gap([GaussianState(), make_coherent(1)], [0.5, 0.5],
                          CG, FunctionalSpec(), TOL)


class TestMonotonicity:
    def test_vacuum_fixed_point(self):
        for lam in (0.2, 0.5, 0.8):
            assert abs(monotonicity_gap_weak(number_state(0), lam)) <= 2 * TOL
            assert abs(monotonicity_gap_strong(number_state(0), lam)) <= 2 * TOL

    def test_fock1_half_loss(self):
        weak = monotonicity_gap_weak(number_state(1), 0.5)
        strong = monotonicity_gap_strong(number_state(1), 0.5)
        assert weak >= -2 * TOL
        assert strong >= -4 * TOL
        # convexity makes the branch average at least the branch mixture
        assert weak >= strong - 4 * TOL
        # frozen from the closed-form branch decomposition:
        # strong = N(|1>) - (N(|1>) + N(|0>))/2
        assert strong == pytest.approx((N_FOCK1 - BASELINE_CG) / 2.0, abs=1e-5)

    def test_strong_requires_fock(self):
        with pytest.raises(UnsupportedInputError):
            monotonicity_gap_strong(GaussianState(), 0.5)

    def test_transmittivity_validated(self):
        with pytest.raises(ValueError):
            monotonicity_gap_weak(number_state(1), 1.0)


class TestFunctionalSpec:
    def test_defaults(self):
        fn = FunctionalSpec()
        assert fn.s == 0.0 and fn.p == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionalSpec(s=0.5)
        with pytest.raises(ValueError):
            FunctionalSpec(p=0.9)

    @pytest.mark.parametrize("s,p", [(math.nan, 1.0), (-math.inf, 1.0),
                                     (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_rejected(self, s, p):
        with pytest.raises(ValueError):
            FunctionalSpec(s, p)
