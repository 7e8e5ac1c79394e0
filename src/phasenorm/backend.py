"""The hot kernel: weighted Laguerre-series evaluation in NumPy.

``wigner_series(weights, tau, u, pref)`` evaluates, for each entry ``u[j]``
with per-point prefactor ``pref[j]``,

    out[j] = sum_n weights[n] * h_n(u[j])

where the h_n follow the three-term recurrence

    h_0 = pref,   h_{n+1} = (((2n+1) tau - u) h_n - n tau^2 h_{n-1}) / (n+1).

With tau = (s+1)/(s-1), u = -4 rho^2/(1-s)^2 and
pref = (2/(1-s)) exp(-2 rho^2/(1-s)) this makes h_n the s-ordered Wigner
function of the number state |n> at radius rho, so the sum is the Wigner
function of a photon-number-diagonal state.  Every h_n is bounded by 2 for
s <= 0, which keeps the upward recurrence well conditioned at any cutoff
and radius (no overflow, no cancellation blow-up).
"""

import numpy as np

KERNEL_BACKEND = "numpy"


def wigner_series(weights, tau, u, pref):
    weights = np.asarray(weights, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    pref = np.asarray(pref, dtype=np.float64)
    if pref.shape != u.shape:
        raise ValueError("pref and u must have the same length")

    h_prev = np.zeros_like(u)
    h_cur = pref.copy()
    acc = weights[0] * h_cur
    tau2 = tau * tau
    for n in range(len(weights) - 1):
        h_next = (((2 * n + 1) * tau - u) * h_cur - (n * tau2) * h_prev) / (n + 1)
        h_prev, h_cur = h_cur, h_next
        acc += weights[n + 1] * h_cur
    return acc
