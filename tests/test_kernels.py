"""Independent Laguerre-series oracles for the kernel."""

import math

import numpy as np
import numpy.polynomial.laguerre as nplag
import pytest

from phasenorm import backend


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
