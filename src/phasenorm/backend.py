"""The hot kernel: weighted Laguerre-series evaluation in NumPy.

``wigner_series(weights, tau, u, pref)`` evaluates one or more terms in a
single recurrence.  ``tau`` holds one value per term (a scalar is one
term); ``u`` and ``pref`` are flat 1-D arrays of the same length holding
the terms' points one block after another, in equal blocks, so term i owns
the points j of block i.  ``weights`` is one vector shared by every term,
or a 2-D array with one column per term.  For each point j of term i,

    out[j] = sum_n weights[n] (or weights[n, i]) * h_n(u[j])

where the h_n follow the three-term recurrence

    h_0 = pref,   h_{n+1} = (((2n+1) tau_i - u) h_n - n tau_i^2 h_{n-1}) / (n+1).

With tau = (s+1)/(s-1), u = -4 rho^2/(1-s)^2 and
pref = (2/(1-s)) exp(-2 rho^2/(1-s)) this makes h_n the s-ordered Wigner
function of the number state |n> at radius rho, so the sum is the Wigner
function of a photon-number-diagonal state.  Every h_n is bounded by 2 for
s <= 0, which keeps the upward recurrence well conditioned at any cutoff
and radius (no overflow, no cancellation blow-up).

NumPy's per-call overhead, not arithmetic, sets the cost of a step, so
the terms share one recurrence: a step is five whole-array calls for the
recurrence and two that add the step's term to the sum, plus two row
fills per term.  A step whose shared weight is exactly 0 adds +-0 to
every point, so it skips those two calls (a number state's steps all do
but one); the sum keeps every value, up to the sign of an exact zero.
The recurrence runs in buffers allocated once per call, so no step
allocates.  Every point goes through the same operations in the same
order whatever the number of terms, so a call on several terms returns,
bit for bit, the concatenation of the one-term calls.
"""

import numpy as np

KERNEL_BACKEND = "numpy"


def wigner_series(weights, tau, u, pref):
    weights = np.asarray(weights, dtype=np.float64)
    taus = np.asarray(tau, dtype=np.float64).reshape(-1).tolist()
    u = np.asarray(u, dtype=np.float64)
    pref = np.asarray(pref, dtype=np.float64)
    if u.ndim != 1 or pref.shape != u.shape:
        raise ValueError("pref and u must be 1-D arrays of the same length")
    terms = len(taus)
    if not terms or len(u) % terms:
        raise ValueError(f"{len(u)} points do not split into {terms} equal blocks")
    if weights.ndim == 2 and weights.shape[1] != terms or weights.ndim > 2:
        raise ValueError(f"weights need one column per term ({terms}), "
                         f"got shape {weights.shape}")

    # one row per term.  Each step fills the rows with the term's n tau^2
    # and (2n + 1) tau, the scalars a one-term recurrence uses; every other
    # operation is one call over all terms.  A shared weight is a scalar,
    # a weight column broadcasts over a row.
    shape = (terms, len(u) // terms)
    u = u.reshape(shape)
    w = weights if weights.ndim == 1 else weights[:, :, None]
    h_prev, h_cur, lag = np.zeros(shape), pref.reshape(shape).copy(), np.empty(shape)
    zero = (weights == 0.0).tolist() if weights.ndim == 1 else [False] * len(weights)
    # the two recurrence buffers swap roles each step; each keeps its rows
    prev, cur = (h_prev, list(zip(taus, h_prev, lag))), (h_cur, list(zip(taus, h_cur, lag)))
    acc = w[0] * h_cur
    for n in range(len(weights) - 1):
        h, rows = prev
        for t, _, lag_i in rows:
            lag_i.fill(n * (t * t))
        np.multiply(lag, h, lag)
        # h_{n-1} is spent: h_{n+1} is built in its buffer
        for t, h_i, _ in rows:
            h_i.fill((2 * n + 1) * t)
        np.subtract(h, u, h)
        np.multiply(h, cur[0], h)
        np.subtract(h, lag, h)
        np.divide(h, n + 1.0, h)
        prev, cur = cur, prev
        if not zero[n + 1]:
            np.multiply(w[n + 1], h, lag)
            np.add(acc, lag, acc)
    return acc.reshape(-1)
