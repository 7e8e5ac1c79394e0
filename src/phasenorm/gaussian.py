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

from .quadrature import GaussianTerm

VACUUM_VARIANCE = 0.25
PHYS_EPS = 1e-12  # physicality slack, absorbs rounding in composed channels
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
    """

    mean: np.ndarray = field(default_factory=lambda: np.zeros(2))
    cov: np.ndarray = field(default_factory=lambda: np.diag([VACUUM_VARIANCE] * 2))

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if abs(cov[0, 1] - cov[1, 0]) > PHYS_EPS * float(np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        cov[0, 1] = cov[1, 0] = cov[0, 1] + 0.5 * (cov[1, 0] - cov[0, 1])
        eigs = np.linalg.eigvalsh(cov)
        if eigs[0] <= 0.0:
            raise ValueError("covariance must be positive definite")
        if eigs[0] * eigs[1] < 1.0 / 16.0 - PHYS_EPS:
            raise ValueError("covariance violates the uncertainty relation det >= 1/16")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


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
    base = np.diag([v * math.exp(-2.0 * r), wide])
    rot = _rotation_matrix(theta)
    return GaussianState(np.zeros(2), rot @ base @ rot.T)


def _rotation_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def apply_channel_gaussian(state, channel):
    """Apply a :class:`ChannelSpec` to a Gaussian state through its fold."""
    k, y, theta, d = channel.fold()
    rot = _rotation_matrix(theta)
    return GaussianState(math.sqrt(k) * (rot @ state.mean) + [d.real, d.imag],
                         k * (rot @ state.cov @ rot.T) + y * np.eye(2))


def wigner_term(state, s):
    """The :class:`GaussianTerm` of W^(s): C = cov - s/4 I, amp = 1/(2 sqrt(det C)).

    Raises if C is not positive definite (s too large for the state).
    """
    cov_s = state.cov + np.diag([-s / 4.0, -s / 4.0])
    det = float(np.linalg.det(cov_s))
    if det <= 0.0 or cov_s[0, 0] <= 0.0:
        raise ValueError(f"s = {s} too large: ordered covariance not positive definite")
    return GaussianTerm(1.0 / (2.0 * math.sqrt(det)), state.mean, cov_s)


def wigner_s_gaussian(state, s, point):
    """s-ordered Wigner function at complex point(s), unit d^2alpha/pi mass.

    W^(s)(z) = amp exp(-(z-mu)^T C^{-1} (z-mu)/2) with C and amp those of
    :func:`wigner_term`, which raises if C is not positive definite.
    """
    term = wigner_term(state, s)
    z = np.asarray(point, dtype=complex)
    scalar = z.ndim == 0
    pts = np.column_stack([np.atleast_1d(z).real, np.atleast_1d(z).imag])
    d = pts - state.mean
    q = np.einsum("ij,jk,ik->i", d, np.linalg.inv(term.cov), d)
    out = term.amp * np.exp(-0.5 * q)
    return float(out[0]) if scalar else out


def min_quadrature_variance(state):
    """Smallest variance over all quadrature directions (alpha-plane units)."""
    return float(np.linalg.eigvalsh(state.cov)[0])


def is_quantum_gaussian(state):
    """Sub-vacuum quadrature variance witness (min eigenvalue < 1/4)."""
    return min_quadrature_variance(state) < VACUUM_VARIANCE - 1e-12
