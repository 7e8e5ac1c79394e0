"""Norm distance to the classicalization channel and derived measures.

The quantifier of a state rho under a channel C and functional choice
(s, p) is

    N = ( int d^2alpha/pi | W^(s)_rho - W^(s)_C(rho) |^p )^(1/p),

the measure M = N - N(vacuum).  M > 0 certifies quantumness; for every
state with a nonnegative P function M <= 0 (Young's convolution bound), so
M is a witness with no false positives but, by the package's central
demonstrations, genuine false negatives: independently quantum states
(sub-vacuum quadrature variance, or Wigner negativity) whose M is
negative.  Such states are classified ``nogo_instance``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .channels import CG, Amplifier, Attenuator, ChannelSpec, Displacement, Rotation
from .fock import (FockDiagonalState, UnsupportedInputError, loss_kraus_decomposition,
                   mix_states, radial_l1, radial_profile)
from .fock import apply_channel_fock  # noqa: F401  unused; tracers hook this binding
from .gaussian import (SUB_VACUUM, GaussianState, apply_channel_gaussian,
                       min_quadrature_variance, wigner_term)
from .quadrature import (IntegralEstimate, ToleranceNotReached, checked_tol,
                         integrate_plane_abs_pow, integrate_radial_abs_pow)

DEFAULT_TOL = 1e-6
NEGATIVITY_WITNESS_MIN = 1e-3  # the Fig. 2 witness threshold, far above quadrature noise
WITNESS_TOL = 1e-6  # the negativity witness runs at min(tol, WITNESS_TOL)

CLASSICAL_CONSISTENT = "classical_consistent"
CERTIFIED_QUANTUM = "certified_quantum"
NOGO_INSTANCE = "nogo_instance"

WITNESS_GAUSSIAN_VARIANCE = "gaussian_variance"
WITNESS_WIGNER_NEGATIVITY = "wigner_negativity"


@dataclass(frozen=True)
class FunctionalSpec:
    """Ordering parameter s (0 = Wigner, -1 = Husimi Q) and norm order p."""

    s: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.p)):
            raise ValueError(f"s and p must be finite, got s={self.s}, p={self.p}")
        if self.s > 0.0:
            raise ValueError(f"ordering parameter must be <= 0, got {self.s}")
        if self.p < 1.0:
            raise ValueError(f"norm order must be >= 1, got {self.p}")


@dataclass(frozen=True)
class QuantifierResult:
    """Quantifier value with baseline, measure, witness and classification.

    ``err`` is the norm's error bound plus the baseline's, each at most
    ``tol`` (:func:`norm_value` raises otherwise); the baseline's is 7.1e-15
    for ``CG`` at (s, p) = (0, 1) (see :func:`baseline_with_error`).  So
    ``err`` can exceed ``tol``, up to 2 tol.  How much of the norm's bound
    is certified depends on the route (see
    :class:`~phasenorm.quadrature.IntegralEstimate`): on the exact Fock route
    at p = 1 all of it, given a complete sign scan (its contract is stated
    at :func:`~phasenorm.fock.radial_l1`); on the panel routes only
    the envelope tail.
    ``m_value`` is exactly ``n_value - baseline``.

    For a Fock state the witness is the Wigner negativity at tolerance
    ``min(tol, 1e-6)``, and ``witness_value`` is within that of the true
    negativity; at p = 1 it shares the norm's kernel passes (see
    :func:`measure_m`), and ``n_value`` is then still, bit for bit,
    :func:`norm_value`'s.  For a Gaussian state it is the smallest
    quadrature variance, the smaller stored axis plus the noise.
    """

    n_value: float
    err: float
    baseline: float
    m_value: float
    witness_kind: str
    witness_value: float
    witness_quantum: bool
    classification: str


def classify(m_value, err, witness_quantum):
    """Classification rule shared by the library and the CSV artifacts.

    A non-finite ``m_value`` or ``err``, or ``err < 0``, raises
    ValueError: no class follows from it, least of all a classical one.
    """
    if not (math.isfinite(m_value) and math.isfinite(err) and err >= 0.0):
        raise ValueError(f"cannot classify m_value={m_value!r} with err={err!r}")
    if witness_quantum and m_value <= 0.0:
        return NOGO_INSTANCE
    if m_value > err:
        return CERTIFIED_QUANTUM
    return CLASSICAL_CONSISTENT


def _pow_and_error(integral, p):
    """(value, err) of I^(1/p) from an IntegralEstimate of I."""
    if p == 1.0:
        return integral.value, integral.abs_error_bound
    value = integral.value ** (1.0 / p)
    upper = (integral.value + integral.abs_error_bound) ** (1.0 / p)
    return value, upper - value


def _integral_once(state, channel, fn, quad_tol):
    if isinstance(state, GaussianState):
        out = apply_channel_gaussian(state, channel)
        first, second = wigner_term(state, fn.s), wigner_term(out, fn.s)
        return integrate_plane_abs_pow(first, second, fn.p, quad_tol)
    if isinstance(state, FockDiagonalState):
        if fn.p == 1.0:
            return radial_l1(state, ((fn.s, channel),), (quad_tol,))[0]
        return integrate_radial_abs_pow(radial_profile(state, fn.s, channel), fn.p, quad_tol)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def norm_value(state, channel, fn, tol):
    """(N, err) of one state; the integral's error carried through the p-th root.

    When the root inflates err above tol (p > 1) the integral tolerance is
    tightened and the integral redone, four integrals at most; if err still
    exceeds tol, :class:`~phasenorm.quadrature.ToleranceNotReached` is
    raised with ``IntegralEstimate(N, err, subdivisions)`` of the last
    integral as its ``estimate`` (an integral that misses raises its own).
    A ``tol`` that is not a number, finite and > 0, raises ValueError.
    """
    quad_tol = checked_tol(tol)
    for _ in range(4):
        est = _integral_once(state, channel, fn, quad_tol)
        value, err = _pow_and_error(est, fn.p)
        if err <= tol:
            return value, err
        # integral tolerance that maps to a norm error of tol
        quad_tol = 0.9 * ((value + tol) ** fn.p - value**fn.p)
    raise ToleranceNotReached(
        f"norm error {err:.3e} above tolerance {tol:.3e} after 4 integrals",
        IntegralEstimate(value, err, est.subdivisions))


@lru_cache(maxsize=256)
def _vacuum_norm(channel, fn, tol):
    return norm_value(GaussianState(), channel, fn, tol)


def baseline_with_error(channel=CG, fn=FunctionalSpec(), tol=DEFAULT_TOL):
    """(N of the vacuum, its error), cached: the subtrahend of the measure M.

    Under ``CG`` at (s, p) = (0, 1) the planar route's closed form for an
    isotropic pair gives 4 sqrt(3)/9 to the bit, err 7.1e-15, at every tol.
    """
    return _vacuum_norm(channel, fn, checked_tol(tol))


def wigner_negativity(state, tol=DEFAULT_TOL, integral=None):
    """int d^2alpha/pi |W^(0)| minus the stored mass sum_n p_n.

    W^(0) is that of the stored weights, whose integral is sum_n p_n = 1 -
    ``tail_mass_bound`` (exactly 1 for a state without a stored tail), so
    the value is zero iff that Wigner function is >= 0.  The integral is
    the exact p = 1 route's with W^(0) as its one signal, or ``integral``
    when given: the estimate at ``tol`` that route returned for W^(0)
    beside another signal (see :func:`measure_m`).
    """
    checked_tol(tol)
    if not isinstance(state, FockDiagonalState):
        raise UnsupportedInputError("Wigner negativity is computed for diagonal states")
    if integral is None:
        integral, = radial_l1(state, ((0.0, None),), (tol,))
    value = integral.value - (1.0 - state.tail_mass_bound)
    if value < -2.0 * tol:
        raise RuntimeError(f"negativity {value} below -2*tol; quadrature inconsistent")
    return value


def _witness(state, witness_tol, integral):
    if isinstance(state, GaussianState):
        variance = min_quadrature_variance(state)
        return WITNESS_GAUSSIAN_VARIANCE, variance, variance < SUB_VACUUM
    neg = wigner_negativity(state, witness_tol, integral)
    return WITNESS_WIGNER_NEGATIVITY, neg, neg > NEGATIVITY_WITNESS_MIN


def measure_m(state, channel=CG, fn=FunctionalSpec(), tol=DEFAULT_TOL):
    """The measure M = N(state) - N(vacuum) with witness classification.

    A Fock state at p = 1 takes both of its integrals from one call of the
    exact route (see :func:`~phasenorm.fock.radial_l1`): the norm's
    difference W^(s) - W^(s')(./sqrt k)/k and the witness's W^(0), each
    at its own tolerance, share the scan, every ladder round and the mass
    passes.  At s = 0 W^(0) is the norm's first term, one row of the mass
    passes and, when the two leading cutoffs agree, of the search passes;
    elsewhere it is a third row.  N and its err are bit for bit
    :func:`norm_value`'s, the negativity agrees with
    :func:`wigner_negativity` alone to rounding (its cuts come from the
    norm's scan grid), and a witness that misses its tolerance raises
    :class:`~phasenorm.quadrature.ToleranceNotReached` after the norm is
    checked.  Other inputs compute the two apart.  M's err
    adds 2 ``tail_mass_bound`` of a Fock state, its stored tail's mass in it
    and its image: a bound on the tail's pull on N for s <= -1, else an estimate.
    """
    checked_tol(tol)
    witness_tol = min(tol, WITNESS_TOL)
    integral = None
    if isinstance(state, FockDiagonalState) and fn.p == 1.0:
        norm, integral = radial_l1(state, ((fn.s, channel), (0.0, None)), (tol, witness_tol))
        n_value, n_err = norm.value, norm.abs_error_bound
    else:
        n_value, n_err = norm_value(state, channel, fn, tol)
    base, base_err = _vacuum_norm(channel, fn, tol)
    err = n_err + base_err + 2.0 * getattr(state, "tail_mass_bound", 0.0)
    kind, wvalue, wquantum = _witness(state, witness_tol, integral)
    m_value = n_value - base
    return QuantifierResult(
        n_value=n_value, err=err, baseline=base, m_value=m_value,
        witness_kind=kind, witness_value=wvalue, witness_quantum=wquantum,
        classification=classify(m_value, err, wquantum))


def convexity_gap(states, weights, channel=CG, fn=FunctionalSpec(), tol=DEFAULT_TOL):
    """sum_k w_k N(rho_k) - N(sum_k w_k rho_k); nonnegative by convexity.

    Only Fock-diagonal states, one weight each, are accepted (the Gaussian
    family is not convex).  The result is exact up to (len(states)+1)*tol.
    """
    if any(not isinstance(s, FockDiagonalState) for s in states):
        raise UnsupportedInputError("convex mixtures are formed in the Fock engine only")
    mixed = mix_states(states, weights)
    avg = sum(w * norm_value(s, channel, fn, tol)[0]
              for w, s in zip(weights, states, strict=True))
    return avg - norm_value(mixed, channel, fn, tol)[0]


def monotonicity_gap_weak(state, transmittivity, channel=CG, fn=FunctionalSpec(),
                          tol=DEFAULT_TOL):
    """N(rho) - N(E_t(rho)) for the vacuum-ancilla attenuator.

    The norm is invariant under rotations and displacements and convex, so
    it is nonincreasing under stochastic mixtures of those; genuine loss,
    however, drags every state toward the vacuum, which maximizes N among
    classical states, so the gap can be negative for states whose distance
    starts below the vacuum value (e.g. thermal states).

    E_t(rho) is never built: its W^(s) is W^(s')(alpha/sqrt t)/t of rho,
    s' = (s - (1 - t))/t, so N(E_t rho; C, s, p) = t^(1/p - 1) N(rho; C',
    s', p), where C' folds to (k_2/t, (y_2 - (1 - t)/4)/t, phi, d/sqrt t)
    for (k_2, y_2, phi, d) the fold of E_t then C.
    """
    if not 0.0 < transmittivity < 1.0:
        raise ValueError("transmittivity must be in (0, 1)")
    t, tol = transmittivity, checked_tol(tol)
    k2, y2, phi, d = ChannelSpec((Attenuator(t),)).then(channel).fold()
    k, y = k2 / t, (y2 - (1.0 - t) / 4.0) / t
    # C' is attenuator k/g then amplifier g; a physical C gives k/g <= 1 <= g
    gain = max((4.0 * y + k + 1.0) / 2.0, 1.0)
    inner = ChannelSpec((Attenuator(min(k / gain, 1.0)), Amplifier(gain), Rotation(phi),
                         Displacement(d / math.sqrt(t))))
    scale = t ** (1.0 / fn.p - 1.0)
    lossy = norm_value(state, inner, FunctionalSpec((fn.s - (1.0 - t)) / t, fn.p), tol / scale)
    return norm_value(state, channel, fn, tol)[0] - scale * lossy[0]


def monotonicity_gap_strong(state, transmittivity, channel=CG, fn=FunctionalSpec(),
                            tol=DEFAULT_TOL):
    """N(rho) - sum_k p_k N(rho_k) over photon-counting loss branches.

    By convexity the branch average upper-bounds N of the branch mixture,
    so the strong gap never exceeds the weak one; the same caveat about
    sub-baseline states applies (see :func:`monotonicity_gap_weak`).
    """
    if not isinstance(state, FockDiagonalState):
        raise UnsupportedInputError(
            "strong monotonicity uses the photon-counting Kraus branches of loss; "
            "only Fock-diagonal states are supported")
    branches = loss_kraus_decomposition(state, transmittivity)
    avg = sum(pk * norm_value(rk, channel, fn, tol)[0] for pk, rk in branches)
    return norm_value(state, channel, fn, tol)[0] - avg
