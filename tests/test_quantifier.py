import math

import mpmath as mp
import numpy as np
import pytest

from phasenorm import (CG, CERTIFIED_QUANTUM, CLASSICAL_CONSISTENT,
                       FunctionalSpec, GaussianState, IDENTITY, NOGO_INSTANCE,
                       UnsupportedInputError, baseline_with_error, classify,
                       convexity_gap, make_coherent, make_mixture,
                       make_squeezed_thermal, make_thermal, measure_m,
                       monotonicity_gap_strong, monotonicity_gap_weak,
                       norm_value, number_state, wigner_negativity)

TOL = 1e-6

# closed forms, confirmed independently by quadrature during development
BASELINE_CG = 4.0 * math.sqrt(3.0) / 9.0              # 0.7698003589195010
THERMAL1_CG = 2.0 * (0.6**1.5 - 0.6**2.5)             # 0.3718064012360424
NEGATIVITY_FOCK1 = 4.0 * math.exp(-0.5) - 2.0         # 0.4261226388505319
# piecewise closed form with Laguerre sign cuts at x = 2 +- sqrt(2)
NEGATIVITY_FOCK2 = 0.7289892577870898

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
