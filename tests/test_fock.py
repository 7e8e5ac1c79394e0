import math

import numpy as np
import pytest

from phasenorm import (CG, FockDiagonalState, GaussianState, TailBoundError,
                       UnsupportedInputError, amplify_fock, apply_channel_fock,
                       attenuate_fock, classicalize_fock, ChannelSpec,
                       Displacement, loss_kraus_decomposition, make_mixture,
                       make_thermal, make_thermal_fock, mean_photons,
                       number_state, wigner_s_fock, wigner_s_gaussian)


class TestConstruction:
    def test_corner_states(self):
        assert np.array_equal(make_mixture([1, 0, 0]).weights, [1, 0, 0])
        assert np.array_equal(make_mixture([0, 1, 0]).weights, [0, 1, 0])

    def test_mean_photons(self):
        assert mean_photons(make_mixture([0.2, 0.3, 0.5])) == pytest.approx(1.3)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            make_mixture([0.5, -0.1, 0.6])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            make_mixture([0.5, 0.4])

    def test_slightly_off_normalization_accepted(self):
        state = make_mixture([0.5, 0.5 + 5e-10])
        assert state.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            FockDiagonalState(np.array([0.7, 0.2]), tail_mass_bound=0.0)

    def test_weights_immutable(self):
        state = number_state(1)
        with pytest.raises(ValueError):
            state.weights[0] = 0.5

    @pytest.mark.parametrize("build", [
        lambda: make_mixture([math.nan, 1.0]),
        lambda: make_thermal_fock(math.nan),
        lambda: FockDiagonalState(np.array([math.inf])),
        lambda: FockDiagonalState(np.array([1.0]), tail_mass_bound=math.nan),
    ], ids=["mixture_nan", "thermal_nan", "weight_inf", "tail_nan"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_thermal_tail_is_exact_geometric_remainder(self):
        state = make_thermal_fock(1.0, cutoff=40)
        assert state.tail_mass_bound == pytest.approx(0.5 ** 41, rel=1e-12)
        assert state.weights.sum() + state.tail_mass_bound == pytest.approx(1.0, abs=1e-12)


class TestWigner:
    def test_fock1_at_origin(self):
        assert wigner_s_fock(number_state(1), 0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_s_minus2_at_origin(self, n):
        # prefactor algebra: W_n^(-2)(0) = (2/3) (1/3)^n
        want = (2.0 / 3.0) * (1.0 / 3.0) ** n
        assert wigner_s_fock(number_state(n), -2.0, 0.0) == pytest.approx(want, rel=1e-12)

    def test_vacuum_matches_gaussian_engine(self):
        grid = np.linspace(0.0, 4.0, 81)
        fock = wigner_s_fock(number_state(0), 0.0, grid)
        gauss = wigner_s_gaussian(GaussianState(), 0.0, grid.astype(complex))
        assert np.allclose(fock, gauss, atol=1e-14)

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0])
    def test_thermal_matches_gaussian_engine(self, nbar, s):
        grid = np.linspace(0.0, 4.0, 41)
        fock = wigner_s_fock(make_thermal_fock(nbar, cutoff=120), s, grid)
        gauss = wigner_s_gaussian(make_thermal(nbar), s, grid.astype(complex))
        assert np.max(np.abs(fock - gauss)) <= 1e-8

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            wigner_s_fock(number_state(0), 1.0, 0.0)


class TestAttenuator:
    def test_single_photon_half_loss(self):
        out = attenuate_fock(number_state(1), 0.5)
        assert np.allclose(out.weights, [0.5, 0.5], atol=1e-15)

    def test_two_photon_half_loss(self):
        out = attenuate_fock(number_state(2), 0.5)
        assert np.allclose(out.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_unit_transmittivity_identity(self):
        state = make_mixture([0.2, 0.3, 0.5])
        assert attenuate_fock(state, 1.0) is state

    def test_columns_stochastic(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = rng.uniform(0, 1, size=int(rng.integers(1, 9)))
            state = make_mixture(w / w.sum())
            out = attenuate_fock(state, float(rng.uniform(0.05, 0.95)))
            assert out.weights.sum() == pytest.approx(state.weights.sum(), abs=1e-12)
            assert np.all(out.weights >= 0)


class TestAmplifier:
    def test_vacuum_becomes_geometric_thermal(self):
        out = amplify_fock(number_state(0), 2.0)
        m = np.arange(len(out.weights))
        assert np.allclose(out.weights, 0.5 * 0.5**m, rtol=1e-12, atol=1e-300)

    def test_unit_gain_identity(self):
        state = number_state(3)
        assert amplify_fock(state, 1.0) is state

    def test_mean_photon_law(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            w = rng.uniform(0, 1, size=int(rng.integers(1, 7)))
            state = make_mixture(w / w.sum())
            g = float(rng.uniform(1.0, 3.0))
            out = amplify_fock(state, g)
            assert mean_photons(out) == pytest.approx(
                g * mean_photons(state) + (g - 1.0), abs=1e-8)

    def test_cutoff_policy_and_tail(self):
        state = number_state(2)
        out = amplify_fock(state, 2.0, margin=40)
        assert len(out.weights) - 1 == math.ceil(2.0 * 3) + 40
        assert out.tail_mass_bound <= 1e-10
        assert out.weights.sum() + out.tail_mass_bound == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_margin_raises_with_requirement(self):
        with pytest.raises(TailBoundError) as excinfo:
            amplify_fock(number_state(2), 2.0, margin=2)
        required = excinfo.value.required_margin
        assert required > 2
        out = amplify_fock(number_state(2), 2.0, margin=required)
        assert out.tail_mass_bound <= 1e-10

    def test_auto_margin_is_minimal(self):
        out = amplify_fock(number_state(2), 2.0)
        base = math.ceil(2.0 * 3)
        margin = len(out.weights) - 1 - base
        assert out.tail_mass_bound <= 1e-10
        if margin > 0:
            with pytest.raises(TailBoundError):
                amplify_fock(number_state(2), 2.0, margin=margin - 1)


class TestClassicalize:
    def test_vacuum_becomes_thermal_nbar1(self):
        # output P function is the vacuum Husimi e^{-|a|^2}, i.e. thermal
        # nbar = 1 (mean photons: 2*0 + 1); geometric weights (1/2)^(m+1)
        out = classicalize_fock(number_state(0))
        m = np.arange(len(out.weights))
        assert np.allclose(out.weights, 0.5 * 0.5**m, rtol=1e-12, atol=1e-300)
        # tail mass <= 1e-10 at photon numbers ~cutoff shifts the mean by
        # at most a few 1e-9
        assert mean_photons(out) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_matches_ordering_shift(self, n):
        # W^(0) of the classicalized state equals W^(-2) of the input
        grid = np.linspace(0.0, 4.0, 81)
        state = number_state(n)
        out = classicalize_fock(state)
        diff = np.abs(wigner_s_fock(out, 0.0, grid) - wigner_s_fock(state, -2.0, grid))
        assert np.max(diff) <= 1e-8

    def test_normalization_preserved(self):
        out = classicalize_fock(make_mixture([0.38, 0.57, 0.05]))
        assert out.weights.sum() + out.tail_mass_bound == pytest.approx(1.0, abs=1e-12)

    def test_channel_spec_dispatch(self):
        state = make_mixture([0.2, 0.3, 0.5])
        via_spec = apply_channel_fock(state, CG)
        direct = classicalize_fock(state)
        assert np.allclose(via_spec.weights, direct.weights, atol=1e-15)

    def test_displacement_rejected(self):
        with pytest.raises(UnsupportedInputError):
            apply_channel_fock(number_state(1), ChannelSpec((Displacement(1 + 0j),)))


class TestLossKraus:
    def test_single_photon_branches(self):
        branches = loss_kraus_decomposition(number_state(1), 0.5)
        assert len(branches) == 2
        (p0, s0), (p1, s1) = branches
        assert p0 == pytest.approx(0.5) and np.allclose(s0.weights, [0, 1])
        assert p1 == pytest.approx(0.5) and np.allclose(s1.weights, [1])

    def test_vacuum_single_branch(self):
        branches = loss_kraus_decomposition(number_state(0), 0.3)
        assert len(branches) == 1
        assert branches[0][0] == pytest.approx(1.0)
        assert np.allclose(branches[0][1].weights, [1.0])

    def test_two_photon_branches(self):
        branches = loss_kraus_decomposition(make_mixture([0, 0, 1]), 0.5)
        probs = [p for p, _ in branches]
        assert probs == pytest.approx([0.25, 0.5, 0.25])
        assert np.allclose(branches[0][1].weights, [0, 0, 1])
        assert np.allclose(branches[1][1].weights, [0, 1])
        assert np.allclose(branches[2][1].weights, [1])

    def test_recombination_equals_attenuation(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            w = rng.uniform(0, 1, size=int(rng.integers(1, 7)))
            state = make_mixture(w / w.sum())
            lam = float(rng.uniform(0.1, 0.9))
            branches = loss_kraus_decomposition(state, lam)
            assert sum(p for p, _ in branches) == pytest.approx(1.0, abs=1e-12)
            recombined = np.zeros(len(state.weights))
            for p, s in branches:
                recombined[: len(s.weights)] += p * s.weights
            assert np.allclose(recombined, attenuate_fock(state, lam).weights,
                               atol=1e-12)

    def test_truncated_tail_rejected(self):
        lossy = amplify_fock(make_thermal_fock(1.0, cutoff=30), 1.5)
        if lossy.tail_mass_bound > 1e-12:
            with pytest.raises(UnsupportedInputError):
                loss_kraus_decomposition(lossy, 0.5)
