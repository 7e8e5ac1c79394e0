"""Exact eigen-form calculus for single-mode Gaussian states.

Conventions (used consistently across the package):

* phase space is the alpha-plane, point = (Re alpha, Im alpha);
* the phase-space measure is d^2alpha / pi;
* vacuum covariance is diag(1/4, 1/4), so a state is thermal with mean
  photon number nbar when its covariance is (2*nbar + 1)/4 per axis;
* s-ordered Wigner functions are normalized to unit integral under the
  measure above (vacuum: W^(0)(0) = 2, W^(-1)(0) = 1).

A state is its mean and principal axes.  Channels act on them through
:meth:`ChannelSpec.fold <phasenorm.channels.ChannelSpec.fold>`, as on the
Fock engine, whose independent transition laws validate it in the tests.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import EPS, GaussianTerm, covariance_entries, symmetric_inverse

VACUUM_VARIANCE = 0.25
SUB_VACUUM = VACUUM_VARIANCE - 1e-12  # a smaller minor variance witnesses quantumness
PHYS_EPS = 1e-12  # physicality slack, absorbs rounding in composed channels
MAX_EXP_ARG = math.log(sys.float_info.max)


def _readonly(*values):
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, init=False)
class GaussianState:
    """Mean and principal axes of a single-mode Gaussian state, immutable:
    ``cov`` = R diag(axes) R^T + noise I, R the rotation by ``theta``, is
    derived on each read (``noise``, the isotropic part channels add, keeps
    its entries' bits).  ``GaussianState(mean, cov)`` checks [[a, c], [c, b]]
    (c the upper entry) for finite entries, symmetry relative to the largest
    one, a + b > 0 and det = ab - c^2 >= 1/16 - ``PHYS_EPS``, then converts it:
    c = 0 exactly to axes (a, b) at theta 0, else to the larger variance (a +
    b)/2 + hypot((a - b)/2, c) and the smaller det over it, on axes at theta
    = atan(2c/(a - b))/2; no ``cov`` is the vacuum.  ``rounding`` bounds the
    total variation per unit mass from the state the input stands for, and
    each integral adds it to its err: eps [(ab + c^2 + det)/(2 det) + 4 |c| /
    sqrt(det) + 4] from a closed-form conversion (det's rounding, theta's as a
    turn, a few more), none from axes, the input's for a channel's output.
    So a covariance whose det is lost to rounding (nbar 1, r = 7, rotated by
    0.3) makes its integrals raise ``ToleranceNotReached``."""

    mean: np.ndarray
    theta: float
    axes: tuple
    noise: float
    rounding: float

    def __init__(self, mean=(0.0, 0.0), cov=None):
        axes = (0.0, (VACUUM_VARIANCE, VACUUM_VARIANCE), 0.0) if cov is None else _axes_of(
            *np.array(cov, dtype=float).reshape(4).tolist())
        mean = np.array(mean, dtype=float).reshape(2).tolist()
        if not all(map(math.isfinite, mean)):
            raise ValueError("mean and covariance must be finite")
        _fill(self, _readonly(*mean), axes[0], axes[1], 0.0, axes[2])

    @property
    def cov(self):
        a, c, b = covariance_entries(self.theta, *self.axes)
        return _readonly((a + self.noise, c), (c, b + self.noise))


def _fill(state, mean, theta, axes, noise, rounding):
    state.__dict__.update(mean=mean, theta=theta, axes=axes, noise=noise, rounding=rounding)
    return state


def _axes_of(a, c, c_low, b):
    """(theta, axes, rounding) of the covariance [[a, c], [c_low, b]]."""
    if not all(map(math.isfinite, (a, c, c_low, b))):
        raise ValueError("mean and covariance must be finite")
    if abs(c - c_low) > PHYS_EPS * max(abs(a), abs(b), abs(c), abs(c_low)):
        raise ValueError("covariance must be symmetric")
    det = a * b - c * c
    if not (a + b > 0.0 and det >= 1.0 / 16.0 - PHYS_EPS):
        raise ValueError("covariance must be positive definite with det >= 1/16")
    if c == 0.0:
        return 0.0, (a, b), 0.0
    large = 0.5 * (a + b) + math.hypot(0.5 * (a - b), c)
    small = min(det / large, large)  # det / large rounds above large when a = b
    rounding = (a * b + c * c + det) / (2.0 * det) + 4.0 * abs(c) / math.sqrt(det)
    theta = 0.5 * (math.atan2(2.0 * c, a - b) if a >= b else math.atan2(-2.0 * c, b - a))
    return theta, ((large, small) if a >= b else (small, large)), EPS * (rounding + 4.0)


def make_coherent(alpha):
    """Coherent state |alpha>: vacuum covariance, mean at alpha."""
    alpha = complex(alpha)
    return GaussianState((alpha.real, alpha.imag))


def make_thermal(nbar):
    """Thermal state with mean photon number ``nbar``."""
    return make_squeezed_thermal(nbar, 0.0)


def make_squeezed_thermal(nbar, r, theta=0.0):
    """Squeezed thermal state: thermal(nbar) squeezed by strength r, built
    from its axes: variances (2*nbar+1) e^{-2r}/4 along the squeezed axis at
    ``theta`` and (2*nbar+1) e^{2r}/4 across it.  Quantum iff r >
    ln(2*nbar + 1)/2 (minor variance below vacuum).
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
    return _fill(object.__new__(GaussianState), _readonly(0.0, 0.0), float(theta),
                 (v * math.exp(-2.0 * r), wide), 0.0, 0.0)


def apply_channel_gaussian(state, channel):
    """Apply a :class:`ChannelSpec` through its fold (k, y, phi, d), in
    scalars (every primitive is phase-insensitive): axes scale by k and turn
    by phi, noise maps to k noise + y, the mean to sqrt(k) R mean + d.  Raises
    ValueError unless the output is finite and physical to ``PHYS_EPS``."""
    k, y, phi, d = channel.fold()
    x, p = state.mean.tolist()
    cos, sin, root = math.cos(phi), math.sin(phi), math.sqrt(k)
    mean = [root * (cos * x - sin * p) + d.real, root * (sin * x + cos * p) + d.imag]
    axes, noise = (k * state.axes[0], k * state.axes[1]), k * state.noise + y
    v0, v1 = axes[0] + noise, axes[1] + noise
    if not (all(map(math.isfinite, mean)) and 0.0 < v0 < math.inf and 0.0 < v1 < math.inf
            and v0 * v1 >= 1.0 / 16.0 - PHYS_EPS):
        raise ValueError(f"channel output is not a finite physical state: {channel}")
    return _fill(object.__new__(GaussianState), _readonly(*mean), state.theta + phi, axes,
                 noise, state.rounding)


def wigner_term(state, s):
    """The :class:`GaussianTerm` of W^(s): the state's variances less s/4 on
    its axes.  Raises if s is not finite or too large."""
    v0, v1 = (u + state.noise - s / 4.0 for u in state.axes)
    if not (0.0 < v0 < math.inf and 0.0 < v1 < math.inf):
        raise ValueError(f"s = {s} not finite or too large for the state")
    return GaussianTerm(tuple(state.mean.tolist()), state.theta, (v0, v1), state.rounding)


def wigner_s_gaussian(state, s, point):
    """s-ordered Wigner function at complex point(s), unit d^2alpha/pi mass:
    the term of :func:`wigner_term` (which raises for s too large) there."""
    term = wigner_term(state, s)
    ia, ic, ib = symmetric_inverse(*covariance_entries(term.theta, *term.variances))
    z = np.asarray(point, dtype=complex)
    dx, dy = z.real - state.mean[0], z.imag - state.mean[1]
    out = term.amp * np.exp(-0.5 * (ia * dx * dx + 2.0 * ic * dx * dy + ib * dy * dy))
    return float(out) if z.ndim == 0 else out


def min_quadrature_variance(state):
    """Smallest variance over all quadrature directions: the minor one."""
    return min(state.axes) + state.noise
