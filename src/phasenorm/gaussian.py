"""Exact covariance calculus for single-mode Gaussian states.

Conventions (used consistently across the package):

* phase space is the alpha-plane, point = (Re alpha, Im alpha);
* the phase-space measure is d^2alpha / pi;
* vacuum covariance is diag(1/4, 1/4), so a state is thermal with mean
  photon number nbar when its covariance is (2*nbar + 1)/4 per axis;
* s-ordered Wigner functions are normalized to unit integral under the
  measure above (vacuum: W^(0)(0) = 2, W^(-1)(0) = 1).

Channels act on (mean, cov) through :meth:`ChannelSpec.fold
<phasenorm.channels.ChannelSpec.fold>`, the same fold the Fock engine
uses; the independent Fock-engine transition laws validate it in the test
suite.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .quadrature import EPS, GaussianTerm, symmetric_inverse

VACUUM_VARIANCE = 0.25
SUB_VACUUM = VACUUM_VARIANCE - 1e-12  # a smaller minor variance witnesses quantumness
PHYS_EPS = 1e-12  # physicality slack, absorbs rounding in composed channels
DET_SLACK = 1e-5  # largest relative rounding of det(cov) a state may carry
MAX_EXP_ARG = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and 2x2 covariance of a single-mode Gaussian state.

    The constructor enforces finite entries and physicality: symmetric
    positive-definite covariance obeying the uncertainty relation
    det(cov) >= 1/16 (up to ``PHYS_EPS`` slack; equivalently, symplectic
    eigenvalue >= 1/4).  Symmetry is checked relative to the largest
    entry, since rotating a strongly squeezed covariance leaves rounding
    of that size between the off-diagonal entries; the stored covariance
    carries their mean in both places.  Instances are immutable.

    The checks take det = a b - c^2 of [[a, c], [c, b]] in closed form,
    whose rounding is at most 2 eps (a b + c^2).  A covariance with more
    rounding than ``DET_SLACK`` det is rejected as too ill-conditioned:
    its minor variance, inverse and Wigner amplitude would carry no
    reliable digit (nbar 1 squeezed by r = 7 and rotated by 0.3 is one).
    """

    mean: np.ndarray = field(default_factory=lambda: np.zeros(2))
    cov: np.ndarray = field(default_factory=lambda: np.diag([VACUUM_VARIANCE] * 2))

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        (a, c), (c_low, b) = cov.tolist()
        if not all(map(math.isfinite, mean.tolist() + [a, c, c_low, b])):
            raise ValueError("mean and covariance must be finite")
        if abs(c - c_low) > PHYS_EPS * max(abs(a), abs(b), abs(c), abs(c_low)):
            raise ValueError("covariance must be symmetric")
        c = cov[0, 1] = cov[1, 0] = c + 0.5 * (c_low - c)
        det, rounding = a * b - c * c, 2.0 * EPS * (a * b + c * c)
        if not (a + b > 0.0 and det > -rounding):
            raise ValueError("covariance must be positive definite")
        if not rounding <= DET_SLACK * det:
            raise ValueError("covariance too ill-conditioned: its determinant is lost to rounding")
        if det < 1.0 / 16.0 - PHYS_EPS:
            raise ValueError("covariance violates the uncertainty relation det >= 1/16")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _rotated(a, c, b, cos, sin):
    """(a, c, b) of R [[a, c], [c, b]] R^T, R the rotation (cos, sin); exact at angle 0."""
    cc, ss, cs = cos * cos, sin * sin, cos * sin
    return (cc * a - 2.0 * cs * c + ss * b, cs * (a - b) + (cc - ss) * c,
            ss * a + 2.0 * cs * c + cc * b)


def make_coherent(alpha):
    """Coherent state |alpha>: vacuum covariance, mean at alpha."""
    alpha = complex(alpha)
    return GaussianState(np.array([alpha.real, alpha.imag]),
                         np.diag([VACUUM_VARIANCE] * 2))


def make_thermal(nbar):
    """Thermal state with mean photon number ``nbar``."""
    return make_squeezed_thermal(nbar, 0.0)


def make_squeezed_thermal(nbar, r, theta=0.0):
    """Squeezed thermal state: thermal(nbar) squeezed by strength r.

    Covariance eigenvalues are (2*nbar+1) e^{-2r}/4 and (2*nbar+1) e^{2r}/4,
    the squeezed (minor) axis rotated by ``theta``.  Quantum iff
    r > ln(2*nbar + 1)/2 (minor variance below vacuum).
    """
    if not all(math.isfinite(x) for x in (nbar, r, theta)):
        raise ValueError(f"nbar, r and theta must be finite, got {nbar}, {r}, {theta}")
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if r < 0:
        raise ValueError(f"squeezing strength must be >= 0, got {r}")
    if 2.0 * r > MAX_EXP_ARG:
        raise ValueError(f"squeezing strength {r} overflows e^(2r)")
    v = (2.0 * nbar + 1.0) / 4.0
    wide = v * math.exp(2.0 * r)
    if not math.isfinite(wide):
        raise ValueError(f"major variance of nbar={nbar}, r={r} overflows")
    a, c, b = _rotated(v * math.exp(-2.0 * r), 0.0, wide, math.cos(theta), math.sin(theta))
    return GaussianState(np.zeros(2), np.array([[a, c], [c, b]]))


def apply_channel_gaussian(state, channel):
    """Apply a :class:`ChannelSpec` to a Gaussian state through its fold,
    k R cov R^T + y I in closed form (every primitive is phase-insensitive)."""
    k, y, theta, d = channel.fold()
    (x, p), ((a, c), (_, b)) = state.mean.tolist(), state.cov.tolist()
    cos, sin = math.cos(theta), math.sin(theta)
    a, c, b = _rotated(a, c, b, cos, sin)
    root = math.sqrt(k)
    return GaussianState(
        np.array([root * (cos * x - sin * p) + d.real, root * (sin * x + cos * p) + d.imag]),
        np.array([[k * a + y, k * c], [k * c, k * b + y]]))


def wigner_term(state, s):
    """The :class:`GaussianTerm` of W^(s): C = cov - s/4 I, amp = 1/(2 sqrt(det C)).

    Raises if s is not finite or C is not positive definite (s too large
    for the state).
    """
    (a, c), (_, b) = state.cov.tolist()
    a, b = a - s / 4.0, b - s / 4.0
    det = a * b - c * c
    if not (0.0 < a < math.inf and det > 0.0):
        raise ValueError(f"s = {s} not finite or too large: "
                         "ordered covariance not positive definite")
    return GaussianTerm(1.0 / (2.0 * math.sqrt(det)), state.mean, np.array([[a, c], [c, b]]))


def wigner_s_gaussian(state, s, point):
    """s-ordered Wigner function at complex point(s), unit d^2alpha/pi mass.

    W^(s)(z) = amp exp(-(z-mu)^T C^{-1} (z-mu)/2) with C and amp those of
    :func:`wigner_term`, which raises if C is not positive definite.
    """
    term = wigner_term(state, s)
    (a, c), (_, b) = term.cov.tolist()
    ia, ic, ib = symmetric_inverse(a, c, b)
    z = np.asarray(point, dtype=complex)
    dx, dy = z.real - state.mean[0], z.imag - state.mean[1]
    out = term.amp * np.exp(-0.5 * (ia * dx * dx + 2.0 * ic * dx * dy + ib * dy * dy))
    return float(out) if z.ndim == 0 else out


def min_quadrature_variance(state):
    """Smallest variance over all quadrature directions (alpha-plane units):
    det / ((a + b)/2 + hypot((a - b)/2, c)), the minor eigenvalue of the covariance."""
    (a, c), (_, b) = state.cov.tolist()
    return (a * b - c * c) / (0.5 * (a + b) + math.hypot(0.5 * (a - b), c))
