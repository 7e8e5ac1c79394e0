import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasenorm.fock
import phasenorm.quadrature
import phasenorm.quantifier
from phasenorm import (CG, CERTIFIED_QUANTUM, CLASSICAL_CONSISTENT,
                       Amplifier, Attenuator, ChannelSpec, Displacement,
                       FunctionalSpec, GaussianState, IntegralEstimate,
                       NOGO_INSTANCE, Rotation,
                       ToleranceNotReached, UnsupportedInputError,
                       apply_channel_gaussian,
                       baseline_with_error, classify, convexity_gap, make_coherent,
                       make_mixture, make_squeezed_thermal, make_thermal,
                       make_thermal_fock, measure_m, monotonicity_gap_strong,
                       monotonicity_gap_weak, norm_value, number_state,
                       wigner_negativity)
from phasenorm.channels import IDENTITY
from phasenorm.fock import apply_channel_fock, radial_profile, wigner_s_fock
from phasenorm.gaussian import wigner_term
from phasenorm.quadrature import integrate_radial_abs_pow

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

    def test_same_pair_at_every_tol(self):
        # Imhof's closed form for the isotropic pair: no tolerance tightens it
        pairs = {baseline_with_error(CG, FunctionalSpec(), tol)
                 for tol in (1e-3, 1e-6, 1e-7, 1e-10, 1e-13)}
        assert len(pairs) == 1
        value, err = pairs.pop()
        assert value == BASELINE_CG and err <= 1e-14

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
    with mp.workdps(16):
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

        # W is even in both axes: four quarter turns; the ray integral is smooth in phi
        scale = mp.sqrt(var_out[0] * var_out[1])
        return float(4 * scale / mp.pi * mp.quad(ray, [0, mp.pi / 2], method="gauss-legendre"))


def mpmath_rotated_norm(nbar, r, angle):
    """N of the squeezed thermal state (nbar, r) under a rotation by ``angle``
    at (s, p) = (0, 1), by mpmath at 30 digits.

    A rotation keeps det, so both terms have the amplitude A = 1/(2 v), v =
    (2 nbar + 1)/4, and a ray of rates k_1, k_2 integrates in closed form to
    A |1/k_1 - 1/k_2| / 2.  The angle integral is split where k_1 = k_2:
    k_2 - k_1 = (p cos 2 phi + q sin 2 phi) / 2, as C_2^-1 - C_1^-1 = [[p, q],
    [q, -p]] is traceless.
    """
    with mp.workdps(30):
        v = (2 * mp.mpf(nbar) + 1) / 4
        a, b = v * mp.exp(-2 * mp.mpf(r)), v * mp.exp(2 * mp.mpf(r))
        c, s = mp.cos(angle), mp.sin(angle)
        p, q = s * s * (1 / b - 1 / a), c * s * (1 / a - 1 / b)

        def ray(phi):
            k1 = (mp.cos(phi) ** 2 / a + mp.sin(phi) ** 2 / b) / 2
            k2 = k1 + (p * mp.cos(2 * phi) + q * mp.sin(2 * phi)) / 2
            return abs(1 / k1 - 1 / k2) / 2

        zero = mp.atan2(q, p) / 2 + mp.pi / 4
        cuts = sorted((zero + k * mp.pi / 2) % mp.pi for k in range(2))
        return float(2 / (2 * v) / mp.pi * mp.quad(ray, [0] + cuts + [mp.pi]))


@functools.lru_cache(maxsize=None)
def imhof_squeezed_norm(nbar, r):
    """N of the squeezed thermal state (nbar, r) under CG at (s, p) = (0, 1),
    by Imhof's angular form in mpmath at 30 digits.

    The input's variances v e^(-+2r), v = (2 nbar + 1)/4, and the output's
    (+ 1/2 each) give the pencil eigenvalues lambda = 1 + 1/(2 v e^(-+2r)),
    masses 1 and ell = ln(lambda_1 lambda_2)/2, so N = 2 (P_1 - P_2) with
    P_i = (2/pi) int_0^(pi/2) (1 - e^(-ell/q_i)) dpsi, q_1 = 1 - 1/lambda
    and q_2 = lambda - 1 per axis, the squeezed axis on cos^2.  The shares'
    needle sits at pi/2; breakpoints at pi/2 - 10^-k split it off.
    """
    with mp.workdps(30):
        v = (2 * mp.mpf(nbar) + 1) / 4
        lam = [1 + 1 / (2 * v * mp.exp(-2 * mp.mpf(r))), 1 + 1 / (2 * v * mp.exp(2 * mp.mpf(r)))]
        ell = mp.log(lam[0] * lam[1]) / 2
        cuts = [0] + [mp.pi / 2 - mp.mpf(10) ** -k for k in range(1, 12)] + [mp.pi / 2]

        def share(mu):
            q = lambda psi: mu[0] * mp.cos(psi) ** 2 + mu[1] * mp.sin(psi) ** 2
            return 2 / mp.pi * mp.quad(lambda psi: -mp.expm1(-ell / q(psi)), cuts)

        return float(2 * (share([1 - 1 / x for x in lam]) - share([x - 1 for x in lam])))


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

    # the three CG cases nest mpmath quadratures in mpmath_squeezed_norm
    @pytest.mark.parametrize("nbar,r,angle", [
        pytest.param(0.5, 0.3, None, marks=pytest.mark.slow),
        pytest.param(1.0, 1.0, None, marks=pytest.mark.slow),
        pytest.param(0.0, 1.5, None, marks=pytest.mark.slow),
        (1.0, 0.3, 1.2), (0.0, 1.0, math.pi / 2)],
        ids=["0.5-0.3", "1.0-1.0", "0.0-1.5", "rotation-1.0-0.3", "rotation-0.0-1.0"])
    def test_squeezed_thermal_matches_mpmath(self, nbar, r, angle):
        # under CG, or under a rotation by angle: that keeps det, so the two
        # amplitudes are equal and Imhof's form takes its ell = 0 closed form
        state = make_squeezed_thermal(nbar, r)
        if angle is None:
            channel, oracle = CG, mpmath_squeezed_norm(nbar, r)
        else:
            channel, oracle = ChannelSpec((Rotation(angle),)), mpmath_rotated_norm(nbar, r, angle)
            out = apply_channel_gaussian(state, channel)
            assert wigner_term(out, 0.0).amp == wigner_term(state, 0.0).amp
        value, err = norm_value(state, channel, FunctionalSpec(), TOL)
        assert abs(value - oracle) <= err

    @pytest.mark.parametrize("nbar,r,want", [
        (1.0, 5.0, 1.95531253895219), (1.0, 10.0, 1.99958808143489),
        (1.0, 15.0, 1.99999664108826), (1.0, 20.0, 1.99999997402689),
        (0.0, 20.0, 1.99999998480746)])
    def test_strong_squeezing_matches_imhof_oracle(self, nbar, r, want):
        # the shares' needle near the squeezed axis is 1e-8 wide at r = 20;
        # a route that misses it returned N = 1.5000005 with err 7.3e-7 there
        value, err = norm_value(make_squeezed_thermal(nbar, r), CG, FunctionalSpec(), TOL)
        oracle = imhof_squeezed_norm(nbar, r)
        assert oracle == pytest.approx(want, abs=1e-14)
        assert abs(value - oracle) <= err

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
    return integrate_radial_abs_pow(
        lambda r: wigner_s_fock(state, s, r) - wigner_s_fock(out, s, r),
        radial_profile(state, s)[1] + radial_profile(out, s)[1],
        state.cutoff + out.cutoff + 2, 1.0, tol)


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
        # the panel route integrates the same signal's profile at p = 1
        state = make_mixture(np.random.default_rng(seed).dirichlet(np.ones(cutoff + 1)))
        channel, fn = ChannelSpec(tuple(elements)), FunctionalSpec(s=s)
        value, err = norm_value(state, channel, fn, TOL)
        oracle = integrate_radial_abs_pow(*radial_profile(state, s, channel), 1.0, TOL)
        assert abs(value - oracle.value) <= err + oracle.abs_error_bound


class TestErrorContract:
    @pytest.mark.parametrize("state", [make_squeezed_thermal(1.0, 0.7), make_coherent(1 - 1j),
                                       number_state(2), make_thermal_fock(1.0),
                                       make_mixture([0.38, 0.57, 0.05]),
                                       make_thermal_fock(1e9, 10)],
                             ids=["squeezed", "coherent", "fock2", "thermal_fock", "nogo",
                                  "huge_tail"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_err_is_norm_bound_plus_baseline_bound(self, state, tol):
        # nbar 1e9 stored to cutoff 10 keeps 1.1e-8 of its mass: its err,
        # 2.0, is far above 2 tol but within 2 tol + 2 tail_mass_bound
        res = measure_m(state, CG, FunctionalSpec(), tol)
        n_value, n_err = norm_value(state, CG, FunctionalSpec(), tol)
        base, base_err = baseline_with_error(CG, FunctionalSpec(), tol)
        tail = getattr(state, "tail_mass_bound", 0.0)
        assert (res.n_value, res.baseline) == (n_value, base)
        assert res.err == n_err + base_err + 2.0 * tail
        assert res.err <= 2.0 * tol + 2.0 * tail
        assert n_err <= tol
        assert base_err <= min(tol, 1e-7)

    @pytest.mark.parametrize("nbar,cutoff", [(3.0, 40), (0.5, 10), (1.0, 20)])
    def test_stored_tail_enters_the_err_of_m(self, nbar, cutoff):
        # a thermal state stored to a small cutoff misses the full state's
        # closed form by its tail (6.4e-8, 3.8e-7 and 1.2e-8 here), which M's
        # err carries as twice the stored tail's mass
        q = (2.0 * nbar + 1.0) / (2.0 * nbar + 3.0)
        closed = 2.0 * (q ** (q / (1.0 - q)) - q ** (1.0 / (1.0 - q)))
        res = measure_m(make_thermal_fock(nbar, cutoff), CG, FunctionalSpec(), TOL)
        assert abs(res.n_value - closed) <= res.err

    def test_exhausted_retries_raise_with_estimate(self, monkeypatch):
        # an integral that never tightens: at p = 2 its root keeps err at
        # sqrt(1 + 1e-3) - 1 = 5.0e-4 whatever tolerance is asked for
        calls = []

        def stuck(state, channel, fn, quad_tol):
            calls.append(quad_tol)
            return IntegralEstimate(1.0, 1e-3, 1)

        monkeypatch.setattr(phasenorm.quantifier, "_integral_once", stuck)
        with pytest.raises(ToleranceNotReached) as excinfo:
            norm_value(number_state(1), CG, FunctionalSpec(p=2.0), TOL)
        est = excinfo.value.estimate
        assert len(calls) == 4
        assert est.value == 1.0
        assert est.abs_error_bound == pytest.approx(math.sqrt(1.001) - 1.0, rel=1e-12)


    def test_underflowing_retry_tolerance_raises_with_estimate(self, monkeypatch):
        # at p = 1000 the tightened integral tol 0.9 ((N + tol)^p - N^p)
        # underflows to 0: the retries stop there instead of passing it on
        calls = []
        once = phasenorm.quantifier._integral_once
        monkeypatch.setattr(phasenorm.quantifier, "_integral_once",
                            lambda *args: calls.append(args[-1]) or once(*args))
        with pytest.raises(ToleranceNotReached) as excinfo:
            norm_value(make_thermal(1.0), CG, FunctionalSpec(p=1000.0), TOL)
        est = excinfo.value.estimate
        assert isinstance(est, IntegralEstimate)
        assert est.abs_error_bound > TOL and est.subdivisions > 0
        assert calls == [TOL]


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
                 for log_a, rate in radial_profile(state, s)[1]]
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

    @pytest.mark.parametrize("r", range(6, 21))
    def test_ill_conditioned_squeezing_is_never_misreported(self, r):
        # a state built from its axes carries no covariance, so it builds at
        # any angle and N lies within err of the Imhof oracle
        oracle = imhof_squeezed_norm(1.0, float(r))
        for theta in (0.0, 0.3, 0.7, math.pi / 4):
            res = measure_m(make_squeezed_thermal(1.0, float(r), theta), CG, FunctionalSpec(), TOL)
            assert abs(res.n_value - oracle) <= res.err, theta

    @pytest.mark.parametrize("r", range(6, 21))
    def test_ill_conditioned_covariance_is_never_misreported(self, r):
        # the same states given as covariances: the conversion's rounding
        # rides in err, so N lies within it of the oracle, or the norm raises
        # with its estimate attached (r = 7 at 0.3), or a det lost to
        # rounding breaks the uncertainty relation when built
        oracle = imhof_squeezed_norm(1.0, float(r))
        for theta in (0.3, 0.7, math.pi / 4):
            try:
                state = GaussianState(np.zeros(2), make_squeezed_thermal(1.0, float(r), theta).cov)
            except ValueError:
                continue
            try:
                n_value, err = norm_value(state, CG, FunctionalSpec(), TOL)
            except ToleranceNotReached as exc:
                n_value, err = exc.estimate.value, exc.estimate.abs_error_bound
            assert abs(n_value - oracle) <= err, theta

    @pytest.mark.parametrize("r", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_converted_covariance_at_p2_within_err(self, r, theta):
        # the per-ray route carries the conversion's rounding through |f|^p:
        # N at p = 2 lies within err of the L2 norm of the covariance as
        # given, sum of the overlaps 1/(2 sqrt(det(C_i + C_j))), C_2 = C + I/2
        cov = make_squeezed_thermal(1.0, r, theta).cov
        state = GaussianState(np.zeros(2), cov)
        assert state.rounding > 0.0
        n_value, err = norm_value(state, CG, FunctionalSpec(p=2.0), TOL)
        with mp.workdps(50):
            a, c, b = (mp.mpf(x) for x in (cov[0, 0], cov[0, 1], cov[1, 1]))

            def overlap(shift):
                return 1 / (2 * mp.sqrt((2 * a + shift) * (2 * b + shift) - 4 * c * c))

            oracle = float(mp.sqrt(overlap(0) - 2 * overlap(0.5) + overlap(1)))
        assert abs(n_value - oracle) <= err

    def test_gaussian_route_calls_no_linalg(self, monkeypatch):
        # every 2x2 quantity of the route is closed form: the state checks,
        # the channel, the Wigner terms, the planar frame and the witness
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called on the Gaussian route")

        for name in ("eigh", "eigvalsh", "inv", "det", "norm", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rotated = GaussianState(np.array([0.4, -0.3]), make_squeezed_thermal(0.8, 1.1, 0.6).cov)
        for state in (rotated, GaussianState()):
            # a tol no other test uses, so the baseline is computed here too
            res = measure_m(state, CG, FunctionalSpec(), 6.5e-7)
            assert res.err <= 2 * 6.5e-7

    def test_gaussian_route_builds_no_covariance(self, monkeypatch):
        # at p = 1 a co-centred state goes from its axes through the channel
        # to the pencil in scalars: no covariance array and no (a, c, b) is
        # derived, while both layer hooks a tracer wraps are still called
        rotated = GaussianState(np.array([0.4, -0.3]), make_squeezed_thermal(0.8, 1.1, 0.6).cov)
        states = (rotated, make_squeezed_thermal(0.8, 1.1, 0.6), make_coherent(1 - 2j),
                  GaussianState())

        def refuse(*args, **kwargs):
            raise AssertionError("a covariance was built on the p = 1 route")

        monkeypatch.setattr(GaussianState, "cov", property(refuse))
        monkeypatch.setattr(phasenorm.quadrature, "covariance_entries", refuse)
        reached = []
        for name in ("apply_channel_gaussian", "integrate_plane_abs_pow"):
            def counted(*args, _name=name, _layer=getattr(phasenorm.quantifier, name)):
                reached.append(_name)
                return _layer(*args)
            monkeypatch.setattr(phasenorm.quantifier, name, counted)
        for state in states:
            # a tol no other test uses, so the baseline is computed here too
            res = measure_m(state, CG, FunctionalSpec(), 6.3e-7)
            assert res.err <= 2 * 6.3e-7
        assert sorted(reached) == sorted(["apply_channel_gaussian", "integrate_plane_abs_pow"]
                                         * (len(states) + 1))

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("witness", [True, False])
    def test_classify_rejects_non_finite_input(self, bad, witness):
        # nan fails every comparison, so it would fall through to classical;
        # a negative err is no bound either
        with pytest.raises(ValueError):
            classify(bad, 1e-6, witness)
        with pytest.raises(ValueError):
            classify(0.5, bad, witness)
        with pytest.raises(ValueError):
            classify(0.5, -1e-6, witness)


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

    def test_integral_below_the_stored_mass_raises(self):
        with pytest.raises(RuntimeError, match="below -2\\*tol"):
            wigner_negativity(number_state(0), 1e-6, IntegralEstimate(0.5, 0.0, 1))


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

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]],
                             ids=["short", "long"])
    def test_weight_count_must_match(self, weights):
        # a short list used to drop |2> and return 0.3508
        with pytest.raises(ValueError):
            convexity_gap([number_state(0), number_state(1), number_state(2)], weights,
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


WEAK_GAP_T = st.floats(0.05, 0.95)
WEAK_GAP_FN = st.builds(FunctionalSpec, st.floats(-1.0, 0.0), st.sampled_from([1.0, 2.0]))
WEAK_GAP_CHANNELS = [CG, ChannelSpec((Attenuator(0.6),)),
                     ChannelSpec((Attenuator(0.8), Amplifier(1.7)))]


def assert_weak_gap_matches(state, attenuated, t, channel, fn):
    # the gap never builds E_t(rho); the oracle does.  Summed err: the
    # gap's two norms (each within tol) and the oracle's two
    gap = monotonicity_gap_weak(state, t, channel, fn, TOL)
    n_in, err_in = norm_value(state, channel, fn, TOL)
    n_out, err_out = norm_value(attenuated, channel, fn, TOL)
    assert abs(gap - (n_in - n_out)) <= 2.0 * TOL + err_in + err_out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7).filter(lambda w: sum(w) > 0.1),
       WEAK_GAP_T, st.sampled_from(WEAK_GAP_CHANNELS), WEAK_GAP_FN)
@example([0.2, 0.5, 0.3], 1e-6, CG, FunctionalSpec(-0.5, 2.0))
@example([0.2, 0.5, 0.3], 1.0 - 1e-6, CG, FunctionalSpec(-0.5, 2.0))
@example([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 1e-6, CG, FunctionalSpec())
@example([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], 1.0 - 1e-6, CG, FunctionalSpec())
def test_weak_gap_matches_the_attenuated_fock_state(weights, t, channel, fn):
    state = make_mixture(np.array(weights) / sum(weights))
    lossy = ChannelSpec((Attenuator(t),))
    assert_weak_gap_matches(state, apply_channel_fock(state, lossy), t, channel, fn)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.2), st.floats(0.0, math.pi),
       st.complex_numbers(max_magnitude=1.5), WEAK_GAP_T,
       st.sampled_from(WEAK_GAP_CHANNELS + [ChannelSpec((Rotation(0.4), Attenuator(0.7),
                                                         Displacement(0.3 + 0.2j)))]),
       WEAK_GAP_FN)
@example(1.0, 0.7, 0.3, 0.5 - 1j, 1e-6, CG, FunctionalSpec(-0.5, 2.0))
@example(1.0, 0.7, 0.3, 0.5 - 1j, 1.0 - 1e-6, CG, FunctionalSpec(-0.5, 2.0))
@example(0.0, 1.2, 1.0, 0j, 1e-6, CG, FunctionalSpec())
@example(0.0, 1.2, 1.0, 0j, 1.0 - 1e-6, CG, FunctionalSpec())
def test_weak_gap_matches_the_attenuated_gaussian_state(nbar, r, theta, delta, t,
                                                        channel, fn):
    state = apply_channel_gaussian(make_squeezed_thermal(nbar, r, theta),
                                   ChannelSpec((Displacement(delta),)))
    lossy = ChannelSpec((Attenuator(t),))
    assert_weak_gap_matches(state, apply_channel_gaussian(state, lossy), t, channel, fn)


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


def test_fock_p1_err_is_certified_by_the_masses():
    # the tail is the terms' exact mass at the reach, not the (1 + |u|)^N
    # envelope's bound: |40> had err 2.25e-7 with it, now the baseline's
    # 2.5e-8 dominates
    assert measure_m(number_state(40), tol=TOL).err <= 5e-8


def test_scan_widens_when_the_reach_is_too_short(monkeypatch):
    # a reach of 1 leaves most of |40>'s mass outside the scan, so the
    # route must rescan up to the envelope radius and agree within err
    want, want_err = norm_value(number_state(40), CG, FunctionalSpec(), TOL)
    search_of = phasenorm.fock.sign_search
    monkeypatch.setattr(phasenorm.fock, "sign_search", lambda state, terms, lead: (
        search_of(state, terms, lead)._replace(reach=lambda tol: 1.0)))
    scans = []
    locate = phasenorm.quadrature.locate_sign_changes

    def counted(*args, **kwargs):
        scans.append(kwargs.get("stop"))
        return locate(*args, **kwargs)

    monkeypatch.setattr(phasenorm.quadrature, "locate_sign_changes", counted)
    got, err = norm_value(number_state(40), CG, FunctionalSpec(), TOL)
    assert len(scans) == 2 and scans[0] == 1.0
    assert abs(got - want) <= err + want_err


def test_loose_tolerance_keeps_the_reach_finite():
    # the reach's ln(1 + 10/tol) stays positive above tol = 10
    value, err = norm_value(number_state(2), CG, FunctionalSpec(), 50.0)
    assert abs(value - N_FOCK2) <= err


def geometric_tail_mixture(cutoff, q, seed):
    # random head weights on a geometric decay, so most stored terms are negligible
    w = np.random.default_rng(seed).uniform(0.5, 1.5, cutoff + 1) * q ** np.arange(cutoff + 1)
    return make_mixture(w / w.sum())


LEADING_STATES = st.one_of(
    st.builds(make_thermal_fock, st.floats(0.05, 3.0), st.integers(20, 120)),
    st.builds(geometric_tail_mixture, st.integers(20, 120), st.floats(0.1, 0.7),
              st.integers(0, 2**32 - 1)),
    st.builds(number_state, st.integers(0, 40)))
LEADING_CHANNELS = st.sampled_from([
    CG, ChannelSpec((Attenuator(0.6),)), ChannelSpec((Attenuator(0.3), Attenuator(0.5))),
    ChannelSpec((Amplifier(1.5),)), ChannelSpec((Attenuator(0.8), Amplifier(1.7))),
    ChannelSpec(CG.elements + (Amplifier(1.3),))])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(LEADING_STATES, LEADING_CHANNELS, st.sampled_from([0.0, -0.5, -1.0]))
def test_leading_weights_match_all_weights(state, channel, s):
    # the sign search on the leading weights moves N and the negativity by
    # rounding only: the masses keep every weight, and the cuts of the
    # truncated series miss those of the full one by O(dropped) where the
    # masses are stationary
    fn = FunctionalSpec(s=s)

    def results():
        return norm_value(state, channel, fn, TOL) + (wigner_negativity(state, TOL),)

    value, err, negativity = results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phasenorm.fock, "leading_cutoff",
                      lambda state, orderings, budget: state.cutoff)
        want, want_err, want_negativity = results()
    assert abs(value - want) <= 1e-12
    assert abs(negativity - want_negativity) <= 1e-12
    assert err <= TOL and want_err <= TOL


@pytest.mark.parametrize("nbar", [2.0, 3.0])
def test_witness_of_a_stored_tail(nbar):
    # a thermal state stored to cutoff 20 misses 2.0e-4 (nbar 2) and 2.4e-3
    # (nbar 3) of its mass; its W >= 0 integrates to the stored mass, which
    # the negativity subtracts instead of 1
    res = measure_m(make_thermal_fock(nbar, 20), CG, FunctionalSpec(), TOL)
    assert res.classification == CLASSICAL_CONSISTENT
    assert abs(res.witness_value) <= 2.0 * TOL


@pytest.mark.parametrize("lead", [0, 2, 5])
def test_dropped_bound_covers_a_coarse_search(lead, monkeypatch):
    # cuts searched on a few leading weights miss N by far more than
    # rounding: the value stays a lower estimate, and the certified bound,
    # now far above tol, still covers the miss
    monkeypatch.setattr(phasenorm.fock, "leading_cutoff",
                        lambda state, orderings, budget: lead)
    with pytest.raises(ToleranceNotReached) as excinfo:
        norm_value(make_thermal_fock(1.0, 60), CG, FunctionalSpec(), TOL)
    est = excinfo.value.estimate
    assert 0.0 <= THERMAL1_CG - est.value + 1e-12
    assert THERMAL1_CG - est.value <= est.abs_error_bound


def test_cutoff_zero_tail_is_the_exact_mass():
    # for the vacuum under CG the reach lies past the envelope radius, which
    # lies past both terms' sign radius, so the terms' exact masses there
    # (2.6e-8) bound the tail instead of the envelope (1e-7): err 2.0e-7 -> 5e-8
    value, err = norm_value(number_state(0), CG, FunctionalSpec(), TOL)
    assert abs(value - BASELINE_CG) <= err <= 6e-8


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
@pytest.mark.parametrize("call", [
    lambda tol: norm_value(number_state(2), CG, FunctionalSpec(), tol),
    lambda tol: measure_m(number_state(2), CG, FunctionalSpec(), tol),
    lambda tol: wigner_negativity(number_state(2), tol),
    lambda tol: baseline_with_error(CG, FunctionalSpec(), tol)],
    ids=["norm_value", "measure_m", "wigner_negativity", "baseline_with_error"])
def test_tolerance_must_be_finite_and_positive(call, tol):
    # tol inf gave N = 2.2e-16 with err 54 for |2>, a false no-go row
    with pytest.raises(ValueError, match="tol"):
        call(tol)


def dirichlet_mixture(cutoff, seed):
    return make_mixture(np.random.default_rng(seed).dirichlet(np.ones(cutoff + 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.builds(make_thermal_fock, st.floats(0.05, 3.0), st.integers(8, 80)),
                 st.builds(number_state, st.integers(0, 30)),
                 st.builds(dirichlet_mixture, st.integers(0, 12), st.integers(0, 2**32 - 1))),
       st.sampled_from([CG, ChannelSpec((Attenuator(0.6),)), ChannelSpec((Attenuator(0.3),)),
                        ChannelSpec((Amplifier(1.5),)),
                        ChannelSpec((Attenuator(0.8), Amplifier(1.7)))]),
       st.sampled_from([0.0, -0.5, -1.0]), st.sampled_from([1e-7, 1e-6, 1e-5]))
def test_shared_route_matches_each_signal_alone(state, channel, s, tol):
    # measure_m runs the norm and the witness as two signals of one exact
    # route; each must read as it does alone: N bitwise, and the witness,
    # whose cuts come from the norm's scan grid, to rounding.  At tol 1e-5
    # the witness's own 1e-6 sets its tail and any widened scan
    fn = FunctionalSpec(s=s)
    res = measure_m(state, channel, fn, tol)
    assert res.n_value == norm_value(state, channel, fn, tol)[0]
    assert abs(res.witness_value - wigner_negativity(state, min(tol, 1e-6))) <= 1e-12


def test_witness_past_the_norms_bracket_scans_alone():
    # at tol 1e-5 the witness's scan radius (its tol is 1e-6) lies past the
    # norm's envelope radius, the shared scan's bracket, so it scans in a
    # round of its own and reads bit for bit as it does alone
    state = number_state(3)
    res = measure_m(state, ChannelSpec((Attenuator(0.6),)), FunctionalSpec(), 1e-5)
    assert res.witness_value == wigner_negativity(state, 1e-6)
