import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasenorm.fock
from phasenorm.fock import (MASS_EPS, amplify_fock, apply_channel_fock, attenuate_fock,
                            leading_cutoff, mean_photons, sign_search, term_l1_bound,
                            wigner_mass_outside, wigner_s_fock)
from phasenorm import (CG, FockDiagonalState, GaussianState,
                       UnsupportedInputError, Attenuator, ChannelSpec, Displacement,
                       loss_kraus_decomposition, make_mixture, make_thermal,
                       make_thermal_fock, mix_states, monotonicity_gap_strong, number_state)
from phasenorm.gaussian import wigner_s_gaussian


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

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]],
                             ids=["short", "long"])
    def test_mix_states_weight_count_must_match(self, weights):
        with pytest.raises(ValueError):
            mix_states([number_state(0), number_state(1), number_state(2)], weights)

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


def mpmath_mass_outside(weights, s, r):
    """int_{|alpha|>r} W^(s) d^2alpha/pi term by term, at 50 digits.

    W_n^(s) = beta e^{-beta x} sum_k C(n, k) tau^{n-k} (a x)^k / k! with
    x = r^2, beta = 2/(1-s), a = 4/(1-s)^2, so each power integrates to an
    upper incomplete gamma function; no Laguerre recurrence is used.
    """
    with mp.workdps(50):
        s, x = mp.mpf(s), mp.mpf(r) ** 2
        beta, a, tau = 2 / (1 - s), 4 / (1 - s) ** 2, (s + 1) / (s - 1)
        return float(sum(
            mp.mpf(p) * mp.binomial(n, k) * tau ** (n - k) * (a / beta) ** k
            / mp.factorial(k) * mp.gammainc(k + 1, beta * x)
            for n, p in enumerate(weights) for k in range(n + 1)))


class TestMassOutside:
    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0, -2.0, -3.0])
    @pytest.mark.parametrize("state", [number_state(7), make_mixture([0.1, 0.2, 0.3, 0.4]),
                                       make_thermal_fock(1.5, cutoff=20)],
                             ids=["fock7", "mixture", "thermal"])
    def test_matches_mpmath(self, state, s):
        radii = np.array([0.0, 0.3, 0.8, 1.5, 2.4, 4.0])
        got = wigner_mass_outside(state, s, radii)
        want = [mpmath_mass_outside(state.weights, s, r) for r in radii]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            wigner_mass_outside(number_state(0), 1.0, 0.0)


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

    @pytest.mark.parametrize("t", [1e-6, 0.5, 1.0 - 1e-6])
    def test_binomial_columns_match_mpmath(self, t):
        # a product started at (1 - t)^n and grown by the ratios
        # t/(1 - t) (n - m)/(m + 1) overflowed at t = 1 - 1e-6: column sums
        # inf at n = 52-53, nan at n = 60 and 200; differences of ln k! then
        # missed this bound at n = 1100 by up to 1.9 times
        columns = phasenorm.fock._binomial_law(1100, 1100, t, 1.0 - t).T
        assert np.all(np.abs(columns.sum(axis=0) - 1.0) <= 1e-12)
        with mp.workdps(30):
            for n in (53, 60, 200, 1100):
                want = np.array([float(mp.binomial(n, m) * mp.mpf(t) ** m
                                       * (1 - mp.mpf(t)) ** (n - m)) for m in range(n + 1)])
                assert np.all(np.abs(columns[:n + 1, n] - want) <= 1e-12 * want + 1e-300)
                assert not np.any(columns[n + 1:, n])

    def test_high_photon_numbers_keep_their_mass(self):
        # with differences of ln k! the output of |3000> lost 1.2e-12 of its mass
        # and the state raised ValueError
        out = attenuate_fock(number_state(3000), 0.5)
        assert abs(out.weights.sum() - 1.0) <= MASS_EPS

    def test_near_unit_transmittivity(self):
        out = attenuate_fock(number_state(53), 1.0 - 1e-6)
        assert out.weights[-1] == pytest.approx((1.0 - 1e-6) ** 53, rel=1e-12)
        assert math.isfinite(monotonicity_gap_strong(number_state(60), 1.0 - 1e-6))


class TestAmplifier:
    def test_vacuum_becomes_geometric_thermal(self):
        out = amplify_fock(number_state(0), 2.0)
        m = np.arange(len(out.weights))
        assert np.allclose(out.weights, 0.5 * 0.5**m, rtol=1e-12, atol=1e-300)

    def test_reach_past_the_largest_trial_raises_at_once(self):
        # the vacuum's reach at gain 1e6 is about 8.5e6 > 2^20: no matrix is
        # built; at 1e155 g (g - 1) overflows, at 1.7e308 so does g (n + 1)
        for n, gain in ((0, 1e6), (0, 1e155), (1, 1.7e308)):
            with pytest.raises(RuntimeError, match="does not certify"):
                amplify_fock(number_state(n), gain)

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
        out = amplify_fock(state, 2.0)
        assert len(out.weights) - 1 >= math.ceil(2.0 * 3)
        assert out.tail_mass_bound <= 1e-10
        assert out.weights.sum() + out.tail_mass_bound == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 40, 1100])
    @pytest.mark.parametrize("gain", [1.5, 2.0, 10.0])
    def test_amplifier_columns_match_mpmath(self, n, gain):
        # at m ~ 1e4 (n = 1100, g = 10) differences of ln k! would lose 4e-11
        # of an entry; m_max lies six standard deviations past the mean
        m_max = math.ceil(gain * (n + 1) + 6.0 * math.sqrt(gain * (gain - 1.0) * (n + 1))
                          + 20.0 * gain)
        columns = phasenorm.fock._binomial_law(n, m_max, 1.0 / gain, (gain - 1.0) / gain)
        columns *= 1.0 / gain
        with mp.workdps(30):
            g = mp.mpf(gain)
            want = np.array([float(mp.binomial(m, n) * g ** -(n + 1) * (1 - 1 / g) ** (m - n))
                             for m in range(n, m_max + 1)])
        assert np.all(np.abs(columns[n:, n] - want) <= 1e-12 * want + 1e-300)
        assert not np.any(columns[:n, n])

    @pytest.mark.parametrize("n,gain", [(1100, 2.0), (320, 10.0)])
    def test_high_photon_numbers_stay_finite(self, n, gain):
        # a column product started at g^-(n+1) and grown by ratios underflowed,
        # then overflowed: |1030> at g = 2 and |310> at g = 10 raised ValueError
        out = amplify_fock(number_state(n), gain)
        assert np.all(np.isfinite(out.weights)) and out.tail_mass_bound <= 1e-10
        assert abs(mean_photons(out) - (gain * n + gain - 1.0)) <= 1e-6

    def test_auto_margin_is_minimal(self):
        # one photon number less would leave the last weight truncated too,
        # above the bound (5.6e-11 kept, 1.08e-10 without the last weight)
        out = amplify_fock(number_state(2), 2.0)
        assert out.tail_mass_bound <= 1e-10 < out.tail_mass_bound + out.weights[-1]

    @pytest.mark.parametrize("n, gain, reach, cutoff, tail, digest", [
        (300, 10.0, 1397, 4184, 9.847800352957847e-11,
         "375a0116db6bcdd7176202bac22c21c33253ba09eb139bf1dee9850b500f156c"),
        (1000, 2.0, 380, 2306, 8.853184851886908e-11,
         "1a59286460c1d2a85405af9170826deb5ccf27a9cfc16566d63f8fa00f661801"),
        (40, 2.0, 77, 159, 8.762257586170108e-11,
         "164f246b0b2591e150826ce0e27c7de47fe0e75104e6a8b9541d1209845619c8")],
        ids=["300-g10", "1000-g2", "40-g2"])
    def test_first_trial_margin_from_the_spread(self, n, gain, reach, cutoff, tail, digest,
                                                monkeypatch):
        # these laws need margins of 6.8-8.5 sigma, sigma^2 = g (g - 1) (n + 1);
        # the first trial, the ceiling of the top weight's reach past the base,
        # certifies in one build no larger than that, and the cutoff, the
        # weights' bytes and the tail are those of trials doubled from 16
        builds = self.counted_builds(monkeypatch)
        out = amplify_fock(number_state(n), gain)
        base = math.ceil(gain * (n + 1))
        assert len(builds) == 1 and builds[0][1] <= base + reach
        assert out.cutoff == cutoff
        assert hashlib.sha256(out.weights.tobytes()).hexdigest() == digest
        assert abs(out.tail_mass_bound - tail) <= 1e-15 * tail

    def test_light_top_weights_keep_the_smallest_trial(self, monkeypatch):
        # thermal nbar 3 at cutoff 120 certifies at the base: its top weights are
        # far below the bound, so one build with the smallest margin, 16, serves
        builds = self.counted_builds(monkeypatch)
        out = amplify_fock(make_thermal_fock(3.0, 120), 2.0)
        assert builds == [(120, 242 + 16, 0.5, 0.5)] and out.cutoff == 242

    def test_columns_peak_within_three_and_a_half_results(self):
        # ln b is built in one buffer and one scratch, and the special entries
        # and exp are written in place: about three result-sized arrays are
        # alive at once (the amplifier's 1/g factor is written in place too)
        tracemalloc.start()
        try:
            columns = phasenorm.fock._binomial_law(300, 3600, 0.1, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * columns.nbytes

    @staticmethod
    def counted_builds(monkeypatch):
        builds, columns = [], phasenorm.fock._binomial_law

        def counted(*args):
            builds.append(args)
            return columns(*args)

        monkeypatch.setattr(phasenorm.fock, "_binomial_law", counted)
        return builds


def amplify_by_columns(weights, gain, out_cutoff):
    """The amplifier law column by column, each a product grown from (1/g)^(n+1),
    which is exact while it stays in range: output weights and truncated mass."""
    out, truncated = np.zeros(out_cutoff + 1), 0.0
    for n, p in enumerate(weights):
        ms = np.arange(n + 1, out_cutoff + 1)
        ratios = ms / (ms - n) * (1.0 - 1.0 / gain)
        col = (1.0 / gain) ** (n + 1) * np.cumprod(np.append(1.0, ratios))
        out[n:] += p * col
        truncated += p * max(0.0, 1.0 - float(col.sum()))
    return out, truncated


@pytest.mark.parametrize("state", [number_state(0), number_state(7), make_thermal_fock(1.0, 60),
                                   make_mixture([0.1, 0.0, 0.3, 0.2, 0.0, 0.4])],
                         ids=["vacuum", "n7", "thermal", "mixture"])
@pytest.mark.parametrize("gain", [1.01, 2.0, 7.0])
def test_amplifier_matches_column_products(state, gain):
    out = amplify_fock(state, gain)
    want, truncated = amplify_by_columns(state.weights, gain, out.cutoff)
    assert np.all(np.abs(out.weights - want) <= 1e-13)
    assert abs(out.tail_mass_bound - state.tail_mass_bound - truncated) <= 1e-12
    # the cutoff is the smallest from ceil(g (N + 1)) on that certifies 1e-10
    assert truncated <= 1e-10
    base = math.ceil(gain * (state.cutoff + 1))
    assert out.cutoff == base or amplify_by_columns(state.weights, gain, out.cutoff - 1)[1] > 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda w: sum(w) > 0.01),
       st.lists(st.one_of(st.tuples(st.just(attenuate_fock), st.floats(0.05, 1.0)),
                          st.tuples(st.just(amplify_fock), st.floats(1.0, 2.5))),
                min_size=1, max_size=3))
def test_channels_keep_mass_bookkeeping(weights, chain):
    # truncated mass moves into tail_mass_bound and is never dropped
    state = make_mixture(np.array(weights) / sum(weights))
    for channel, param in chain:
        state = channel(state, param)
        assert abs(state.weights.sum() + state.tail_mass_bound - 1.0) <= MASS_EPS


class TestClassicalize:
    def test_vacuum_becomes_thermal_nbar1(self):
        # output P function is the vacuum Husimi e^{-|a|^2}, i.e. thermal
        # nbar = 1 (mean photons: 2*0 + 1); geometric weights (1/2)^(m+1)
        out = apply_channel_fock(number_state(0), CG)
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
        out = apply_channel_fock(state, CG)
        diff = np.abs(wigner_s_fock(out, 0.0, grid) - wigner_s_fock(state, -2.0, grid))
        assert np.max(diff) <= 1e-8

    def test_normalization_preserved(self):
        out = apply_channel_fock(make_mixture([0.38, 0.57, 0.05]), CG)
        assert out.weights.sum() + out.tail_mass_bound == pytest.approx(1.0, abs=1e-12)

    def test_displacement_rejected(self):
        with pytest.raises(UnsupportedInputError):
            apply_channel_fock(number_state(1), ChannelSpec((Displacement(1 + 0j),)))

    def test_cancelling_displacements_leave_weights(self):
        state = make_mixture([0.2, 0.3, 0.5])
        out = apply_channel_fock(state, ChannelSpec((Displacement(1), Displacement(-1))))
        assert np.array_equal(out.weights, state.weights)

    def test_displacement_through_loss_cancels(self):
        # D(1) passes the attenuator as D(sqrt(t)), so D(-sqrt(t)) undoes it
        state = make_mixture([0.2, 0.3, 0.5])
        chain = ChannelSpec((Displacement(1), Attenuator(0.5),
                             Displacement(-math.sqrt(0.5))))
        out = apply_channel_fock(state, chain)
        assert np.array_equal(out.weights, attenuate_fock(state, 0.5).weights)

    def test_net_displacement_rejected(self):
        chain = ChannelSpec((Displacement(1), Attenuator(0.5), Displacement(-1)))
        with pytest.raises(UnsupportedInputError):
            apply_channel_fock(number_state(1), chain)


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

    def test_branches_are_the_per_k_formula(self):
        # past 128 weights NumPy sums pairwise, on a strided diagonal as on a copy
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 1, size=200)
        state = make_mixture(w / w.sum())
        B = phasenorm.fock._binomial_law(state.cutoff, state.cutoff, 0.37, 1.0 - 0.37).T
        branches = loss_kraus_decomposition(state, 0.37)
        assert len(branches) == state.cutoff + 1
        for k, (pk, branch) in enumerate(branches):
            ms = np.arange(state.cutoff - k + 1)
            w_k = state.weights[ms + k] * B[ms, ms + k]
            assert pk == float(w_k.sum())
            assert np.array_equal(branch.weights, w_k / pk)

    def test_truncated_tail_rejected(self):
        lossy = amplify_fock(make_thermal_fock(1.0, cutoff=30), 1.5)
        if lossy.tail_mass_bound > 1e-12:
            with pytest.raises(UnsupportedInputError):
                loss_kraus_decomposition(lossy, 0.5)


# ------------------------------------------------- turning-point bracket

def test_laguerre_zeros_lie_below_4n_plus_2():
    # the zeros of L_n are the eigenvalues of its Jacobi matrix (diagonal
    # 2k + 1, off-diagonal k); Szego 6.31 puts them all below 4n + 2
    for n in range(1, 321):
        k = np.arange(n, dtype=float)
        jacobi = np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1)
        assert np.linalg.eigvalsh(jacobi)[-1] < 4 * n + 2


def mpmath_abs_mass_outside(weights, s, r):
    """int_{|alpha|>r} |W^(s)| d^2alpha/pi by mpmath quadrature in x = rho^2.

    W_n^(s) = beta tau^n e^{-beta x} L_n(4x / (1 - s^2)), with L_n from its
    three-term recurrence at 30 digits.
    """
    with mp.workdps(30):
        s = mp.mpf(s)
        beta, tau = 2 / (1 - s), (s + 1) / (s - 1)

        def w(x):
            y = 4 * x / (1 - s**2)
            prev, cur, total = mp.mpf(0), mp.mpf(1), mp.mpf(weights[0])
            for n in range(1, len(weights)):
                prev, cur = cur, ((2 * n - 1 - y) * cur - (n - 1) * prev) / n
                total += weights[n] * tau**n * cur
            return abs(beta * mp.exp(-beta * x) * total)

        x0 = mp.mpf(r) ** 2
        return float(mp.quad(w, [x0, x0 + 2 / beta, x0 + 10 / beta, x0 + 40 / beta, mp.inf]))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=41).filter(lambda w: sum(w) > 0.1),
       st.sampled_from([0.0, -0.5, -0.9]))
def test_wigner_is_positive_beyond_the_turning_point(weights, s):
    # beyond rho_t every W_n^(s), n <= N, is positive, so the mass outside
    # a radius there is the integral of |W| outside it
    state = make_mixture(np.array(weights) / sum(weights))
    rho_t = math.sqrt((state.cutoff + 0.75) * (1.0 - s * s))
    assert np.all(wigner_s_fock(state, s, rho_t + np.linspace(0.0, 4.0, 81)) > 0.0)
    reach = sign_search(state, ((s, 1.0),), state.cutoff).reach(1e-6)
    assert reach >= rho_t
    for r in (rho_t, reach):
        want = mpmath_abs_mass_outside(state.weights, s, r)
        assert abs(wigner_mass_outside(state, s, r) - want) <= 1e-12


class TestLeadingCutoff:
    # B_0(1) + B_-2(1) = 1 + 4 (1 + 3/4) + 1 = 9 bounds the L1 norms of W_1
    # at the two orderings of the norm under CG
    ORDERINGS = (0.0, -2.0)

    def test_bound(self):
        assert term_l1_bound(0.0, 1) + term_l1_bound(-2.0, 1) == 9.0
        assert term_l1_bound(-0.5, 2) == 1.0 + 4.0 * 2.75 * 0.75

    @pytest.mark.parametrize("scale,lead", [(1.0 - 1e-9, 1), (1.0 + 1e-9, 0)])
    def test_top_weight_at_the_budget(self, scale, lead):
        # a top bound just above the budget drops nothing, just below drops it
        top = 1e-9
        state = make_mixture([1.0 - top, top])
        assert leading_cutoff(state, self.ORDERINGS, 9.0 * top * scale) == lead

    def test_trailing_zeros_drop_with_bound_zero(self):
        state = make_mixture([0.3, 0.7, 0.0, 0.0])
        assert leading_cutoff(state, self.ORDERINGS, 0.0) == 1
        search = sign_search(state, ((-0.5, 1.0),), 1)
        assert search.dropped == (0.0, 0.0)
        assert search.degree == 1 and search.mass_degree == 3

    def test_dropped_bounds(self):
        state = make_thermal_fock(0.5, 40)
        lead = leading_cutoff(state, (0.0,), 1e-8)
        rest = state.weights[lead + 1:]
        l1, sup = sign_search(state, ((0.0, 1.0),), lead).dropped
        assert l1 == pytest.approx(sum(p * (4.0 * n + 4.0) for n, p in enumerate(rest, lead + 1)))
        assert sup == pytest.approx(2.0 * rest.sum())
        assert 0.0 < l1 <= 1e-8 < l1 + state.weights[lead] * (4.0 * lead + 4.0)

    def test_positive_ordering_keeps_every_weight(self):
        state = make_thermal_fock(0.5, 40)
        assert leading_cutoff(state, (0.0, 0.3), 1.0) == state.cutoff
