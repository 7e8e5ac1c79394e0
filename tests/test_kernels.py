"""Independent Laguerre-series oracles for the kernel."""

import math

import mpmath as mp
import numpy as np
import numpy.polynomial.laguerre as nplag
import pytest

from phasenorm import backend, number_state, wigner_s_fock


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
