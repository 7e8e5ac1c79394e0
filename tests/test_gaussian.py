import math

import numpy as np
import pytest

from phasenorm import (CG, Amplifier, Attenuator, ChannelSpec, Displacement,
                       GaussianState, Rotation, apply_channel_gaussian,
                       channel_affine, is_quantum_gaussian, make_coherent,
                       make_squeezed_thermal, make_thermal,
                       min_quadrature_variance, wigner_s_gaussian)

VAC = np.diag([0.25, 0.25])


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
            assert np.array_equal(out.mean, state.mean)

    def test_displacement_and_rotation(self):
        ch = ChannelSpec((Displacement(2 - 1j), Rotation(math.pi / 2)))
        out = apply_channel_gaussian(make_coherent(1), ch)
        # (1, 0) -> (3, -1) -> rotated 90 degrees -> (1, 3)
        assert np.allclose(out.mean, [1.0, 3.0])

    def test_composition_matches_affine_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ch = ChannelSpec((
                Attenuator(rng.uniform(0.1, 1.0)),
                Rotation(rng.uniform(0, 2 * math.pi)),
                Amplifier(rng.uniform(1.0, 3.0)),
                Displacement(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
            ))
            state = make_squeezed_thermal(rng.uniform(0, 2), rng.uniform(0, 1))
            seq = apply_channel_gaussian(state, ch)
            X, Y, d = channel_affine(ch)
            assert np.max(np.abs(seq.cov - (X @ state.cov @ X.T + Y))) <= 1e-14
            assert np.max(np.abs(seq.mean - (X @ state.mean + d))) <= 1e-14

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
    def test_vacuum_not_quantum(self):
        assert not is_quantum_gaussian(GaussianState())

    def test_above_onset_quantum(self):
        assert is_quantum_gaussian(make_squeezed_thermal(1.0, 0.7))

    def test_below_onset_not_quantum(self):
        assert not is_quantum_gaussian(make_squeezed_thermal(1.0, 0.5))

    def test_thermal_not_quantum(self):
        assert not is_quantum_gaussian(make_thermal(2.0))
