"""Independent Laguerre-series oracles for the kernel."""

import math

import mpmath as mp
import numpy as np
import numpy.polynomial.laguerre as nplag
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenorm import backend, number_state
from phasenorm.fock import wigner_s_fock


def _reference_series(weights, tau, u, pref):
    """Independent oracle via numpy's Laguerre evaluator (tau != 0)."""
    x = u / tau
    coeffs = weights * tau ** np.arange(len(weights))
    return pref * nplag.lagval(x, coeffs)


@pytest.mark.parametrize("tau", [-1.0, 1.0 / 3.0, 0.6, -0.25])
def test_series_matches_numpy_laguerre(tau):
    rng = np.random.default_rng(42)
    weights = rng.uniform(0.0, 1.0, size=17)
    u = rng.uniform(-30.0, 0.0, size=40)
    pref = rng.uniform(0.1, 2.0, size=40)
    expected = _reference_series(weights, tau, u, pref)
    got = backend.wigner_series(weights, tau, u, pref)
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_series_tau_zero_is_poisson_limit():
    # tau = 0 is the Husimi limit: sum_n w_n pref (-u)^n / n!
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.0, 1.0, size=8)
    u = -rng.uniform(0.0, 9.0, size=25)
    pref = np.exp(u / 2.0)
    expected = pref * sum(w * (-u) ** n / math.factorial(n)
                          for n, w in enumerate(weights))
    got = backend.wigner_series(weights, 0.0, u, pref)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        backend.wigner_series(np.ones(3), 0.5, np.zeros(4), np.zeros(3))


@pytest.mark.parametrize("weights,tau,u,pref", [
    (np.ones(3), [0.5, -0.2], np.zeros(5), np.zeros(5)),          # 5 points, 2 terms
    (np.ones(3), [], np.zeros(0), np.zeros(0)),                   # no term
    (np.ones((3, 3)), [0.5, -0.2], np.zeros(4), np.zeros(4)),     # 3 columns, 2 terms
    (np.ones((3, 2, 1)), [0.5, -0.2], np.zeros(4), np.zeros(4)),  # weights not 1-D or 2-D
    (np.ones(3), [0.5, -0.2], np.zeros(4), np.zeros(6)),          # pref and u lengths
    (np.ones(3), [0.5, -0.2], np.zeros((2, 2)), np.zeros((2, 2))),  # u not flat
], ids=["uneven-blocks", "no-term", "columns", "weights-rank", "pref-length", "u-2d"])
def test_stacked_shape_errors_rejected(weights, tau, u, pref):
    with pytest.raises(ValueError):
        backend.wigner_series(weights, tau, u, pref)


def _kernel_arguments(s, radii):
    """tau, u and pref of W^(s) at ``radii``, as the Fock engine builds them."""
    rho2 = np.asarray(radii) ** 2
    return ((s + 1.0) / (s - 1.0), -4.0 * rho2 / (1.0 - s) ** 2,
            (2.0 / (1.0 - s)) * np.exp(-2.0 * rho2 / (1.0 - s)))


ORDERINGS = st.sampled_from([0.0, -0.5, -1.0, -2.0, -3.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(ORDERINGS, min_size=1, max_size=3), st.integers(0, 120), st.booleans(),
       st.integers(0, 6), st.integers(0, 2**16))
def test_stacked_call_is_the_concatenated_single_calls(orderings, cutoff, shared, extra, seed):
    # every point of a stacked call takes the one-term call's operations in
    # its order, so the values agree bit for bit, at radius 0 and past the
    # reach (about 22 for cutoff 120 at s = -3) alike
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(cutoff + 1, len(orderings)))
    if shared:
        weights = weights[:, 0]
    blocks = [_kernel_arguments(s, np.concatenate([[0.0, 30.0], rng.uniform(0.0, 25.0, extra)]))
              for s in orderings]
    singles = [backend.wigner_series(weights if shared else weights[:, i], tau, u, pref)
               for i, (tau, u, pref) in enumerate(blocks)]
    taus, us, prefs = zip(*blocks)
    stacked = backend.wigner_series(weights, list(taus), np.concatenate(us), np.concatenate(prefs))
    assert np.array_equal(stacked, np.concatenate(singles))


@pytest.mark.parametrize("n", [0, 5, 40])
@pytest.mark.parametrize("s", [0.0, -1.0, -3.0])
def test_zero_weight_steps_change_no_bit(n, s):
    # a number state's shared weights are 0 but one, so its steps skip the
    # accumulation a weight column never skips; the sums agree bit for bit,
    # at radius 0, across the oscillations and far past them
    weights = number_state(n).weights
    tau, u, pref = _kernel_arguments(s, np.linspace(0.0, 40.0, 201))
    skipped = backend.wigner_series(weights, tau, u, pref)
    summed = backend.wigner_series(weights[:, None], tau, u, pref)
    assert skipped.tobytes() == summed.tobytes()


@pytest.mark.parametrize("n", [256, 320])
@pytest.mark.parametrize("s", [0.0, -1.0, -3.0])
def test_high_cutoff_matches_mpmath(n, s):
    # the recurrence stays bounded by 2 and accurate to rounding at high
    # cutoff and out to radius 25, far past the last oscillation of |n>
    radii = np.linspace(0.0, 25.0, 101)
    got = wigner_s_fock(number_state(n), s, radii)
    with mp.workdps(40):
        sm = mp.mpf(s)
        want = []
        for r in radii:
            r = mp.mpf(float(r))
            if s == -1.0:
                # the Husimi function Q_n = e^(-r^2) r^(2n) / n!
                want.append(mp.exp(-r**2) * r ** (2 * n) / mp.factorial(n))
            else:
                want.append(2 / (1 - sm) * ((sm + 1) / (sm - 1)) ** n
                            * mp.exp(-2 * r**2 / (1 - sm))
                            * mp.laguerre(n, 0, 4 * r**2 / (1 - sm**2)))
    want = np.array([float(w) for w in want])
    assert np.max(np.abs(got)) <= 2.0
    assert np.max(np.abs(got - want)) <= 2.0 * np.finfo(float).eps * (n + 1)
