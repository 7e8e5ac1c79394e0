"""Truncated photon-number-diagonal states and their exact channel laws.

The attenuator acts on diagonal states through the binomial transition law
P(m|n) = C(n, m) t^m (1-t)^{n-m} (each photon independently survives with
probability t); the quantum-limited amplifier through the negative-binomial
law P(m|n) = C(m, n) (1/g)^{n+1} (1-1/g)^{m-n}, m >= n.  Neither law is
assumed: the test suite validates both against the Gaussian covariance
engine and against the ordering-shift identity of the classicalization
channel (its output Wigner function equals the input W^(s-2)).

Amplification grows the cutoff; the mass pushed beyond the chosen cutoff is
bounded exactly from the transition columns and carried in the state's
``tail_mass_bound``, never silently dropped.  Every s-ordered Wigner value
of a number state is bounded by 2, so a tail bound of 1e-10 perturbs any
evaluated Wigner function by at most 2e-10.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .channels import Amplifier, Attenuator, Displacement, Rotation
from .quadrature import RadialProfile

MASS_EPS = 1e-12        # invariant slack on sum(weights) + tail == 1
USER_NORM_EPS = 1e-9    # acceptance slack for user-supplied weights
TAIL_BOUND_MAX = 1e-10  # certified truncation mass per channel application


class TailBoundError(ValueError):
    """Requested amplifier margin cannot certify the tail bound."""

    def __init__(self, message, required_margin):
        super().__init__(message)
        self.required_margin = required_margin


class UnsupportedInputError(TypeError):
    """Operation undefined for the supplied state or channel element."""


@dataclass(frozen=True)
class FockDiagonalState:
    """Nonnegative weights p_0..p_N plus a bound on truncated-away mass."""

    weights: np.ndarray
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).reshape(-1)
        if len(w) == 0:
            raise ValueError("weights must be non-empty")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.tail_mass_bound)):
            raise ValueError("weights and tail_mass_bound must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if self.tail_mass_bound < 0.0:
            raise ValueError("tail_mass_bound must be >= 0")
        mass = float(w.sum()) + self.tail_mass_bound
        if abs(mass - 1.0) > MASS_EPS:
            raise ValueError(f"weights + tail must sum to 1 within {MASS_EPS}, got {mass!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def cutoff(self):
        return len(self.weights) - 1


def make_mixture(weights):
    """Diagonal state from user weights (>= 0, summing to 1 within 1e-9)."""
    w = np.array(weights, dtype=float).reshape(-1)
    if np.any(w < 0.0):
        raise ValueError("mixture weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > USER_NORM_EPS:
        raise ValueError(f"mixture weights must sum to 1 within {USER_NORM_EPS}, got {total}")
    return FockDiagonalState(w / total)


def number_state(n):
    """The Fock state |n><n|."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    w = np.zeros(n + 1)
    w[n] = 1.0
    return FockDiagonalState(w)


def make_thermal_fock(nbar, cutoff=60):
    """Thermal state truncated at ``cutoff`` with the exact geometric tail."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        return number_state(0)
    q = nbar / (1.0 + nbar)
    w = (1.0 - q) * q ** np.arange(cutoff + 1)
    return FockDiagonalState(w, tail_mass_bound=q ** (cutoff + 1))


def mean_photons(state):
    """Mean photon number of the stored weights (tail mass ignored)."""
    return float(np.arange(len(state.weights)) @ state.weights)


# ------------------------------------------------------------------ Wigner

def wigner_s_fock(state, s, radius):
    """s-ordered Wigner function at radius |alpha|, s < 1.

    W_n^(s) = (2/(1-s)) ((s+1)/(s-1))^n e^{-2 rho^2/(1-s)} L_n(4 rho^2/(1-s^2)),
    summed with the state's weights.  Evaluated by the bounded three-term
    recurrence of :func:`phasenorm.backend.wigner_series` (stable at any
    cutoff; the s = -1 Husimi limit is regular in this parametrization).
    """
    if s >= 1.0:
        raise ValueError(f"ordering parameter must be < 1, got {s}")
    rho = np.asarray(radius, dtype=float)
    scalar = rho.ndim == 0
    rho1 = np.atleast_1d(rho).astype(float)
    tau = (s + 1.0) / (s - 1.0)
    u = -4.0 * rho1**2 / (1.0 - s) ** 2
    pref = (2.0 / (1.0 - s)) * np.exp(-2.0 * rho1**2 / (1.0 - s))
    out = backend.wigner_series(state.weights, tau, u, pref)
    return float(out[0]) if scalar else out


def radial_profile(state, s):
    """RadialProfile of W^(s) with a certified Gaussian-decay envelope.

    The envelope uses |sum_n p_n tau^n L_n| <= (1 + |u|)^N and splits off
    half the exponential rate to absorb the polynomial factor, all in log
    space (the envelope amplitude is astronomically large for big cutoffs
    but only its logarithm is ever used).
    """
    if s >= 1.0:
        raise ValueError(f"ordering parameter must be < 1, got {s}")
    n = state.cutoff
    full_rate = 2.0 / (1.0 - s)
    log_pref = math.log(2.0 / (1.0 - s))
    if n == 0:
        decay = ((log_pref, full_rate),)
    else:
        a = 4.0 / (1.0 - s) ** 2
        b = full_rate / 2.0
        if n * a > b:
            log_poly = n * math.log(n * a / b) - (n * a - b) / a
        else:
            log_poly = 0.0
        decay = ((log_pref + log_poly, b),)
    return RadialProfile(lambda r: wigner_s_fock(state, s, r), decay, degree_hint=n)


# ---------------------------------------------------------------- channels

def _binomial_columns(n_max, t):
    """Matrix B[m, n] = C(n, m) t^m (1-t)^{n-m}, m <= n (else 0)."""
    B = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        col = np.empty(n + 1)
        col[0] = (1.0 - t) ** n
        if n:
            ms = np.arange(n)
            col[1:] = col[0] * np.cumprod((n - ms) / (ms + 1.0) * (t / (1.0 - t)))
        B[: n + 1, n] = col
    return B


def attenuate_fock(state, transmittivity):
    """Quantum-limited attenuator on a diagonal state; cutoff unchanged."""
    if not 0.0 < transmittivity <= 1.0:
        raise ValueError(f"transmittivity must be in (0, 1], got {transmittivity}")
    if transmittivity == 1.0:
        return state
    B = _binomial_columns(state.cutoff, transmittivity)
    return FockDiagonalState(B @ state.weights, state.tail_mass_bound)


def _amplifier_columns(weights, gain, out_cutoff):
    """Output weights and the exact per-input-column truncated mass."""
    q = 1.0 - 1.0 / gain
    out = np.zeros(out_cutoff + 1)
    truncated = 0.0
    for n, p in enumerate(weights):
        ms = np.arange(n, out_cutoff + 1)
        col = np.empty(len(ms))
        col[0] = (1.0 / gain) ** (n + 1)
        if len(ms) > 1:
            col[1:] = col[0] * np.cumprod(ms[1:] / (ms[1:] - n) * q)
        out[n:] += p * col
        truncated += p * max(0.0, 1.0 - float(col.sum()))
    return out, truncated


def amplify_fock(state, gain, margin=None):
    """Quantum-limited amplifier; output cutoff ceil(gain*(N+1)) + margin.

    With ``margin=None`` the smallest margin certifying truncated mass
    <= 1e-10 is chosen.  An explicit insufficient margin raises
    :class:`TailBoundError` carrying the required margin.
    """
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    if gain == 1.0:
        return state
    base = math.ceil(gain * (state.cutoff + 1))

    if margin is not None:
        out, truncated = _amplifier_columns(state.weights, gain, base + margin)
        if truncated > TAIL_BOUND_MAX:
            required = _required_margin(state, gain, base)
            raise TailBoundError(
                f"margin {margin} leaves truncated mass {truncated:.3e} > "
                f"{TAIL_BOUND_MAX:.0e}; margin >= {required} required", required)
        return FockDiagonalState(out, state.tail_mass_bound + truncated)

    m = _required_margin(state, gain, base)
    out, truncated = _amplifier_columns(state.weights, gain, base + m)
    return FockDiagonalState(out, state.tail_mass_bound + truncated)


def _required_margin(state, gain, base):
    """Smallest margin whose exact truncated-mass bound is <= 1e-10."""
    trial = 16
    while True:
        _, truncated = _amplifier_columns(state.weights, gain, base + trial)
        if truncated <= TAIL_BOUND_MAX:
            break
        trial *= 2
        if trial > 1 << 20:
            raise RuntimeError("amplifier tail does not certify; gain too large?")
    lo, hi = 0, trial
    while lo < hi:
        mid = (lo + hi) // 2
        _, truncated = _amplifier_columns(state.weights, gain, base + mid)
        if truncated <= TAIL_BOUND_MAX:
            hi = mid
        else:
            lo = mid + 1
    return lo


def classicalize_fock(state, margin=None):
    """Gaussian classicalization: attenuate to 1/2, then amplify by 2."""
    return amplify_fock(attenuate_fock(state, 0.5), 2.0, margin)


def apply_channel_fock(state, channel):
    """Apply a :class:`ChannelSpec` to a diagonal state.

    Rotations are the identity on diagonal states; displacements would
    break diagonality and are rejected (unless zero).
    """
    for el in channel.elements:
        if isinstance(el, Attenuator):
            state = attenuate_fock(state, el.transmittivity)
        elif isinstance(el, Amplifier):
            state = amplify_fock(state, el.gain)
        elif isinstance(el, Rotation):
            pass
        elif isinstance(el, Displacement):
            if el.delta != 0:
                raise UnsupportedInputError(
                    "displacement breaks photon-number diagonality")
    return state


def loss_kraus_decomposition(state, transmittivity):
    """Photon-counting Kraus branches of the loss channel.

    Branch k (k photons counted in the ancilla) occurs with probability
    p_k = sum_n p_n C(n, k) (1-t)^k t^{n-k} and leaves the normalized
    diagonal state with weights proportional to p_{m+k} C(m+k, k)
    (1-t)^k t^m.  The probability-weighted branch average reproduces the
    attenuated state exactly.
    """
    if not 0.0 < transmittivity < 1.0:
        raise ValueError(f"transmittivity must be in (0, 1), got {transmittivity}")
    if state.tail_mass_bound > MASS_EPS:
        raise UnsupportedInputError(
            "Kraus decomposition requires a state without truncated tail mass")
    n_max = state.cutoff
    B = _binomial_columns(n_max, transmittivity)
    branches = []
    for k in range(n_max + 1):
        ms = np.arange(0, n_max - k + 1)
        w = state.weights[ms + k] * B[ms, ms + k]
        pk = float(w.sum())
        if pk <= 0.0:
            continue
        branches.append((pk, FockDiagonalState(w / pk)))
    return branches


def mix_states(states, weights):
    """Convex combination of diagonal states (weight-averaged weights)."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > USER_NORM_EPS:
        raise ValueError("mixture weights must be a probability vector")
    weights = weights / weights.sum()
    n_max = max(s.cutoff for s in states)
    w = np.zeros(n_max + 1)
    tail = 0.0
    for lam, s in zip(weights, states):
        w[: len(s.weights)] += lam * s.weights
        tail += lam * s.tail_mass_bound
    return FockDiagonalState(w, tail)
