"""Sign-aware adaptive quadrature for phase-space integrands.

All norms in the package reduce to integrals of |f|^p against the
d^2alpha/pi measure.  Two integrators are provided:

* :func:`integrate_radial_abs_pow` for rotation-symmetric profiles
  (photon-number-diagonal states), computing  int_0^inf 2 rho |f(rho)|^p drho;
* :func:`integrate_plane_abs_pow` for the difference of two unit-mass
  Gaussians, in polar coordinates.

Both share the same machinery: the improper integral is truncated at a
radius where the profile's declared Gaussian decay certifies a tail bound
below tol/10, the integrand is cut at every sign change of f so |f|^p is
smooth on each panel (no cut for even integer p: f^p is smooth), and
panels are refined worst-first with fixed-order Gauss-Legendre rules
until the accumulated error estimate fits the tolerance, each refinement
step's GL16 rules in one call of the integrand.  Radial profiles find
their sign changes by a scan and ladder refinement, one call of f per
round: a first point from the polynomial through the 8 scan nodes around
each bracket, flanked by 5 geometric rungs a side up to 3.3e-8, then
regula falsi points flanked by the rungs narrower than the widest open
bracket, each round's choice also reading the values already known at
the brackets' ends.  A bracket closes at width 1e-12, or sooner once its
:func:`placement_terms` value meets a closing bound the caller gives.  The
scan takes an f of one row per signal and returns every row's (cuts,
widths, heights) arrays from one scan and one ladder.
Along a ray of a planar profile the log-magnitude of each Gaussian term
is quadratic in the radius, so its sign change is found in closed form;
for p = 1 with a shared center Imhof's angular form needs no ray at all.
On these routes the panel part of the error is an estimate; the exact
p = 1 route of diagonal states, :func:`phasenorm.fock.radial_l1`, runs
no panel and ends, as every route here does, in :func:`checked`.
"""

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the 16-point Gauss-Legendre rule on [-1, 1], the doubles numpy's
# leggauss(16) returns, written out so import loads no numpy.polynomial
_GL16_HALF = ((0.09501250983763744, 0.18945061045506864),
              (0.2816035507792589, 0.18260341504492364),
              (0.45801677765722737, 0.16915651939500265),
              (0.6178762444026438, 0.1495959888165767),
              (0.755404408355003, 0.12462897125553407),
              (0.8656312023878318, 0.0951585116824926),
              (0.9445750230732326, 0.062253523938647456),
              (0.9894009349916499, 0.027152459411754176))
LEG_NODES = np.array([-x for x, _ in _GL16_HALF[::-1]] + [x for x, _ in _GL16_HALF])
LEG_WEIGHTS = np.array([w for _, w in _GL16_HALF[::-1]] + [w for _, w in _GL16_HALF])

ROOT_XTOL = 1e-12
ROOT_MAX_STEPS = 200
LADDER = 0.5 * ROOT_XTOL * 4.0 ** np.arange(20)  # rungs around the regula falsi point
FIRST_LADDER = LADDER[:10:2]  # the first round's rungs, 0.5e-12 16^j up to 3.3e-8
# a later round's offsets with the k narrowest rungs (every rung at least
# as wide as its bracket clips to the bracket's ends), and the first round's
LADDER_OFFSETS = [np.concatenate([-LADDER[:k][::-1], [0.0], LADDER[:k]])
                  for k in range(len(LADDER) + 1)]
FIRST_OFFSETS = np.concatenate([-FIRST_LADDER[::-1], [0.0], FIRST_LADDER])
# 645120 = 2^7 7! times the matrix taking the values at the nodes v = -7,
# -5, ..., 7 to the monomial coefficients in v of their interpolant
WINDOW_COEFFICIENTS = np.array([
    [-1575, 15435, -77175, 385875, 385875, -77175, 15435, -1575],
    [225, -3087, 25725, -385875, 385875, -25725, 3087, -225],
    [1813, -17465, 81837, -66185, -66185, 81837, -17465, 1813],
    [-259, 3493, -27279, 66185, -66185, 27279, -3493, 259],
    [-245, 2065, -4725, 2905, 2905, -4725, 2065, -245],
    [35, -413, 1575, -2905, 2905, -1575, 413, -35],
    [7, -35, 63, -35, -35, 63, -35, 7],
    [-1, 7, -21, 35, -35, 21, -7, 1]], dtype=float)
WINDOW = len(WINDOW_COEFFICIENTS)  # scan nodes of a bracket's first point
POWERS = np.arange(WINDOW)  # a window's node offsets, and its interpolant's exponents
NEWTON_STEPS = 3  # on their interpolant, from the regula falsi point
MIN_PANEL_WIDTH = 1e-13
EPS = float(np.finfo(float).eps)
SIGN_SCAN_FLOOR = 1e-13  # relative magnitude below which sign flips are noise
MAX_PANELS = 8192  # radial panels per integral
MAX_OUTER = 2048   # angular panels per planar integral
GRADING = 8.0      # ratio of the graded angular edges of the co-centred p = 1 route


class ToleranceNotReached(RuntimeError):
    """Error bound above tolerance; ``estimate`` holds the best result.

    The estimate is always an :class:`IntegralEstimate`; its bound is
    infinite when none can be given (a planar ray missed its share).
    """

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class RootBudgetExceeded(RuntimeError):
    """More sign changes found than the scan's budget, degree_hint + 16."""


@dataclass(frozen=True)
class IntegralEstimate:
    """Quadrature result with its error budget.

    On the panel routes ``abs_error_bound`` is the sum of three parts.
    The truncation tail is certified: the declared decay envelope bounds
    it.  Rounding of the panel sum of g = |f|^p >= 0 is eps |value| per
    panel.  The panel part, the summed difference between GL16 on each
    panel and GL16 on its two halves, is an estimate and can undershoot
    the true error of a feature narrower than the nodes see: on the planar
    per-ray route (p != 1) nbar 1 squeezed by r = 6 under C_g reads N =
    0.5751669 +- 5.2e-7 at p = 2, tol 1e-6, for a closed form of 0.5757457
    (ROADMAP.md item 4).  On the planar p = 1 route it is the only
    estimate, that of the angle integral of the shares of mass; the rest
    is closed form with a rounding bound, and both planar routes add the
    rounding each term carries from a covariance's conversion to axes (see
    :class:`~phasenorm.gaussian.GaussianState`).

    On the exact p = 1 route of diagonal states the bound is certified,
    given a complete sign scan (see :func:`phasenorm.fock.radial_l1`).
    Every route returns a bound within tol or raises it attached.
    """

    value: float
    abs_error_bound: float
    subdivisions: int


@dataclass(frozen=True)
class RadialProfile:
    """Rotation-symmetric integrand rho >= 0 -> f(rho).

    ``evaluator`` must accept an ndarray of radii.  ``decay`` is a tuple of
    (log_amplitude, rate) pairs certifying |f(rho)| <= sum_i exp(log_a_i -
    rate_i * rho^2) for every rho >= 0; it drives the truncation radius.
    ``degree_hint`` bounds the number of sign changes (used to choose the
    root-scan sampling density).
    """

    evaluator: object
    decay: tuple
    degree_hint: int


class GaussianTerm(NamedTuple):
    """The unit-mass Gaussian of center ``mean`` = (x, y) and ``variances``
    along the axes at ``theta`` and theta + pi/2, with its ``rounding`` (see
    :class:`~phasenorm.gaussian.GaussianState`)."""

    mean: tuple
    theta: float
    variances: tuple
    rounding: float = 0.0

    @property
    def amp(self):  # the peak value
        return 1.0 / (2.0 * math.sqrt(self.variances[0] * self.variances[1]))


def placement_terms(right, width, height, sup):
    """4 right width (height + sup), elementwise: for f monotone on a cut's bracket
    (``height`` the larger |f| at its ends) and g within ``sup`` of f, the most the
    integrals of 2r g on either side move as the cut moves within the bracket."""
    return 4.0 * right * width * (height + sup)


def locate_sign_changes(f, bracket, degree_hint, stop=None, close=None):
    """Find where each row of f changes sign on ``bracket``, each cut to 1e-12 or to ``close``.

    ``f`` returns one row per signal (shape (signals, points) for a 1-D
    array of radii); per row (cuts, widths, heights) is returned, arrays of
    the increasing cuts, their final brackets' widths (0 for an exact
    zero) and the larger |f| at those brackets' ends.
    The rows share one scan, a uniform grid of min(max(513, 32 (degree_hint
    + 1) + 1), 40001) samples over ``bracket`` for the first row's
    degree_hint; each row is cut after its first node at or beyond its
    ``stop`` if given (at the bracket's end for a stop past it), and every
    round of the ladder refines the brackets of all rows in one call of f,
    the first from the row's scan nodes around each bracket (see
    :func:`_window_roots`).  ``degree_hint``, ``stop`` and the two parts
    of ``close`` may each hold one value per row.  A row finds, bit for
    bit, the cuts it finds alone on the same grid.
    Nodes where a row is exactly zero are merged in as cuts directly.
    Sign flips whose flanking magnitudes are both below SIGN_SCAN_FLOOR
    times the row's scan maximum are ignored: such crossings are
    floating-point noise where f has decayed away, and missing a cut there
    perturbs no integral of |f|^p (cuts only restore smoothness at genuine
    kinks).  Two sign changes within one scan step are not seen.
    Raises :class:`RootBudgetExceeded` above degree_hint + 16 changes in a row.

    ``close``, if given, is a pair (bound, sup): a bracket [a, b] then
    also closes once its :func:`placement_terms` of (b, b - a, max(|f(a)|,
    |f(b)|), sup) is at most bound; without it every bracket is refined
    to ROOT_XTOL.  A row's arrays give the placement terms of its cuts.
    """
    lo, hi = bracket
    hints = np.asarray(degree_hint).reshape(-1)
    count = min(max(513, 32 * (int(hints[0]) + 1) + 1), 40001)
    # np.linspace(lo, hi, count), bit for bit: its last node is hi itself
    xs = np.arange(count) * ((hi - lo) / (count - 1)) + lo
    xs[-1] = hi
    reach = np.minimum(xs.searchsorted(np.inf if stop is None else stop) + 1, count)
    xs = xs[:reach.max()]
    rows = f(xs)
    ends = reach + np.zeros(len(rows), dtype=reach.dtype)
    # node j of row i is scanned while j < ends[i]; the rest reads as zero
    mag = np.abs(rows)
    for row, end in zip(mag, ends.tolist()):
        row[end:] = 0.0
    floor = SIGN_SCAN_FLOOR * np.maximum.reduce(mag, axis=1, keepdims=True)
    flips = (rows[:, :-1] * rows[:, 1:] < 0.0) & (np.maximum(mag[:, :-1], mag[:, 1:]) > floor)
    zmask = rows[:, 1:-1] == 0.0
    if zmask.any():
        zmask &= np.maximum(mag[:, :-2], mag[:, 2:]) > floor
    # a step j, j + 1 is scanned while j + 1 < ends, a node j + 1 while j + 2 < ends
    for flip, zero, end in zip(flips, zmask, ends.tolist()):
        flip[end - 1:] = False
        zero[max(end - 2, 0):] = False
    owner, idx = flips.nonzero()
    brackets, zeros = np.bincount(owner, minlength=len(rows)), np.add.reduce(zmask, axis=1)
    changes, budget = brackets + zeros, hints + 16
    if (changes > budget).any():
        i = int(np.argmax(changes > budget))
        raise RootBudgetExceeded(
            f"found {changes[i]} sign changes, budget {budget[i % len(budget)]}")
    limits = np.empty((2, len(rows)))  # the rows' closing bounds and sups
    limits[0], limits[1] = (-np.inf, 0.0) if close is None else close
    a, b = xs[idx], xs[idx + 1]
    laddered = np.array(_ladder_brackets(
        f, a, b, rows[owner, idx], rows[owner, idx + 1], owner,
        _window_roots(rows, owner, idx, ends[owner], a, b), *limits[:, owner]))
    found, start = [], 0
    for n, z, zero in zip(brackets.tolist(), zeros.tolist(), zmask):
        cuts, start = laddered[:, start:start + n], start + n
        if z:  # nodes where the row is exactly zero are cuts of width 0, merged in order
            cuts = np.concatenate([cuts, (xs[1:-1][zero], np.zeros(z), np.zeros(z))], axis=1)
            cuts = cuts[:, cuts[0].argsort(kind="stable")]
        found.append(tuple(cuts))
    return found


def _window_roots(rows, owner, idx, ends, a, b):
    """The ladder's first point in each scan bracket [a, b] = [x_idx, x_idx+1].

    The root of the interpolant through the WINDOW scan nodes of row owner
    around the bracket, the window shifted to stay within the row's live
    nodes [0, ends), is polished by NEWTON_STEPS Newton steps from the
    regula falsi point.  Where that point is not finite or leaves the open
    bracket (as a kink in the window can make it), or the row has fewer
    than WINDOW live nodes, regula falsi gives the point.  Each bracket's
    sums run over its own window alone, so a row's points do not depend
    on the other rows.
    """
    ya, yb = rows[owner, idx], rows[owner, idx + 1]
    width, gap = b - a, ya - yb
    falsi = b + yb * width / gap
    start = np.minimum(np.maximum(idx - (WINDOW // 2 - 1), 0), np.maximum(ends - WINDOW, 0))
    nodes = np.minimum(start[:, None] + POWERS, ends[:, None] - 1)
    window = rows[owner[:, None], nodes]
    # the bracket is [left, left + 2] in v = 2j - 7 at window node j
    left = 2.0 * (idx - start) - (WINDOW - 1)
    v = left + 2.0 * ya / gap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the coefficients in v of 645120 times the interpolant, and of its slope
        coef = np.add.reduce(window[:, None, :] * WINDOW_COEFFICIENTS, axis=2)
        slope = coef[:, 1:] * POWERS[1:]
        for _ in range(NEWTON_STEPS):
            powers = v[:, None] ** POWERS
            v = v - (np.add.reduce(coef * powers, axis=1)
                     / np.add.reduce(slope * powers[:, :-1], axis=1))
        point = a + 0.5 * (v - left) * width
    # nan fails both comparisons
    return np.where((point > a) & (point < b) & (ends >= WINDOW), point, falsi)


def _ladder_brackets(f, a, b, fa, fb, owner, first, bound, sup):
    """Refine sign-change brackets [a, b] simultaneously.

    Each round evaluates, in one call of f, a point c of every open
    bracket and rungs c -+ d around it, clipped to the bracket.  The first
    round's c is bracket i's ``first[i]``, a point that lands close to the
    root, and its rungs are FIRST_LADDER, the same 11 points per bracket
    whatever the other brackets are.  Later rounds' c come from regula
    falsi, with the rungs of LADDER narrower than the widest open bracket;
    a rung at least as wide as its bracket clips to the bracket's ends, so
    every bracket takes the points it takes in a call of its row alone.
    ``f`` returns one row per signal and bracket i reads row owner[i].
    The bracket's ends join the points with the values already known;
    only a rung clipped to an end evaluates it again.
    The narrowest pair of neighbours whose values change sign becomes the
    bracket; c within 0.5 ROOT_XTOL of the root closes it.  A bracket
    closes at width ROOT_XTOL, at an exact zero or once its placement term
    (b, b - a, max |f| at the ends, ``sup``) is at most ``bound`` (all per
    bracket), after at most ROOT_MAX_STEPS rounds.  Returns the roots
    (right ends), the final widths and max(|f|) at the final ends.
    """
    a, b = a.astype(float), b.astype(float)
    ya, yb = fa.astype(float), fb.astype(float)

    def still_open(lo, hi, ylo, yhi, i):
        # which of the brackets [lo, hi] (numbers i) stay open
        width = hi - lo
        placement = placement_terms(hi, width, np.maximum(np.abs(ylo), np.abs(yhi)), sup[i])
        return (width > ROOT_XTOL) & ~(placement <= bound[i])

    open_ = still_open(a, b, ya, yb, slice(None)).nonzero()[0]
    for step in range(ROOT_MAX_STEPS):
        if not len(open_):
            break
        lo, hi, ylo, yhi = a[open_, None], b[open_, None], ya[open_, None], yb[open_, None]
        width = hi - lo
        if step:
            c = hi - yhi * width / (yhi - ylo)
            offsets = LADDER_OFFSETS[LADDER.searchsorted(np.maximum.reduce(width, axis=None))]
        else:
            c, offsets = first[open_, None], FIRST_OFFSETS
        xs = np.minimum(np.maximum(c + offsets, lo), hi)
        rows = np.arange(len(open_))
        ys = f(xs.ravel()).reshape(-1, *xs.shape)[owner[open_], rows]
        xs, ys = np.concatenate([lo, xs, hi], axis=1), np.concatenate([ylo, ys, yhi], axis=1)
        gap = np.where(ys[:, :-1] * ys[:, 1:] < 0.0, xs[:, 1:] - xs[:, :-1], np.inf)
        zero = ys == 0.0
        hit = np.logical_or.reduce(zero, axis=1)
        left = np.where(hit, zero.argmax(axis=1), gap.argmin(axis=1))
        right = left + ~hit
        lo, ylo, hi, yhi = xs[rows, left], ys[rows, left], xs[rows, right], ys[rows, right]
        a[open_], ya[open_], b[open_], yb[open_] = lo, ylo, hi, yhi
        open_ = open_[still_open(lo, hi, ylo, yhi, open_)]
    return b, b - a, np.maximum(np.abs(ya), np.abs(yb))


def _adaptive_panels(g, edges, budget, max_panels):
    """Worst-first adaptive refinement over the initial panels ``edges``.

    Each panel carries the bisected value (sum over halves) and the
    difference to the unbisected rule as its error estimate.  Each step
    evaluates all of its GL16 rules in one call of ``g`` (NumPy's per-call
    overhead, not arithmetic, sets the cost of 16 nodes): every initial
    panel's rule and half-rules, then per split its children's half-rules.
    Stops within ``budget``, at ``max_panels`` or at a panel below
    MIN_PANEL_WIDTH, and returns (value, error_sum, panel_count) for the
    caller to judge.
    """

    def rules(spans):
        # GL16 on each (a, b) of spans, a row each of one batch-invariant sum
        mid = np.array([0.5 * (a + b) for a, b in spans])
        half = np.array([0.5 * (b - a) for a, b in spans])
        ys = g((mid[:, None] + half[:, None] * LEG_NODES).ravel())
        return (half * (ys.reshape(-1, 16) * LEG_WEIGHTS).sum(axis=1)).tolist()

    def halves(a, b):
        return [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]

    heap, seq, total, err = [], 0, 0.0, 0.0

    def push(a, b, whole, left, right):
        nonlocal seq, total, err
        diff = abs(left + right - whole)
        total += left + right
        err += diff
        heapq.heappush(heap, (-diff, seq, a, b, left, right))
        seq += 1

    spans = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a >= MIN_PANEL_WIDTH]
    values = rules([s for a, b in spans for s in [(a, b)] + halves(a, b)]) if spans else []
    for i, (a, b) in enumerate(spans):
        push(a, b, *values[3 * i:3 * i + 3])
    count = len(spans)
    while err > budget and count < max_panels and heap:
        neg_err, _, a, b, left, right = heapq.heappop(heap)
        if b - a < MIN_PANEL_WIDTH:
            break
        total -= left + right
        err += neg_err
        mid = 0.5 * (a + b)
        values = rules(halves(a, mid) + halves(mid, b))
        push(a, mid, left, *values[:2])
        push(mid, b, right, *values[2:])
        count += 1
    return total, err, count


def checked_tol(tol):
    """``tol`` when it is a real number, finite and > 0; else ValueError naming it."""
    try:
        if 0.0 < tol < math.inf:
            return tol
    except TypeError:  # a string, None, a complex or a sequence
        pass
    raise ValueError(f"tol must be a number, finite and > 0, got {tol!r}")


def _checked_input(p, tol):
    """ValueError unless 1 <= p < inf and ``tol`` passes :func:`checked_tol`."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"norm order must be finite and >= 1, got {p}")
    checked_tol(tol)


def checked(est, tol):
    """``est`` when its bound is at most ``tol``; else raise it attached."""
    if not est.abs_error_bound <= tol:
        raise ToleranceNotReached(
            f"error bound {est.abs_error_bound:.3e} above tolerance {tol:.3e}", est)
    return est


def _logsumexp(vals):
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def tail_radius(decay, p, tail_tol):
    """Smallest radius R with int_R^inf 2r (decay bound)^p dr <= tail_tol.

    Uses |f| <= exp(LA - cmin r^2) with LA the log of the summed term
    amplitudes and cmin the slowest rate; the tail is then
    exp(p*LA - p*cmin*R^2) / (p*cmin).  All in log space so very large
    polynomial-envelope amplitudes cannot overflow.
    """
    if not decay:
        raise ValueError("profile declares no decay terms")
    la = _logsumexp([d[0] for d in decay])
    cmin = min(d[1] for d in decay)
    if cmin <= 0.0:
        raise ValueError("decay rates must be positive")
    r2 = (p * la - math.log(p * cmin) - math.log(tail_tol)) / (p * cmin)
    radius = math.sqrt(max(r2, 1.0))
    log_tail = p * la - math.log(p * cmin) - p * cmin * radius**2
    return radius, math.exp(min(log_tail, 0.0))


def _core_abs_pow(evaluator, decay, p, tol, find_cuts):
    """Shared core: int_0^R 2r |f|^p dr with sign cuts and tail bound.

    ``find_cuts(radius)`` returns the sign changes of f on (0, radius).
    The estimate is unchecked: its bound is panel error plus tail plus
    rounding, eps |value| per panel (g >= 0, see :class:`IntegralEstimate`).
    """
    radius, tail = tail_radius(decay, p, tol * 0.1)
    cuts = [] if p % 2.0 == 0.0 else sorted(find_cuts(radius))
    edges = [0.0] + [c for c in cuts if MIN_PANEL_WIDTH < c < radius - MIN_PANEL_WIDTH] + [radius]

    def g(r):
        return 2.0 * r * np.abs(evaluator(r)) ** p

    value, panel_err, count = _adaptive_panels(g, edges, tol - tail, MAX_PANELS)
    return IntegralEstimate(value, panel_err + tail + EPS * count * abs(value), count)


def integrate_radial_abs_pow(profile, p, tol):
    """int d^2alpha/pi |f(|alpha|)|^p  =  int_0^inf 2 rho |f(rho)|^p drho.

    The integrand is cut at every sign change of f so |f|^p is smooth on
    each panel, and adaptive GL16 panels run up to the envelope radius;
    ``abs_error_bound`` is the panel estimate plus the certified tail plus
    rounding.  The bound is at most ``tol`` or :class:`ToleranceNotReached`
    is raised with the best estimate attached.
    """
    _checked_input(p, tol)
    est = _core_abs_pow(profile.evaluator, profile.decay, p, tol, lambda radius: (
        locate_sign_changes(lambda r: profile.evaluator(r)[None], (0.0, radius),
                            profile.degree_hint)[0][0]))
    return checked(est, tol)


def symmetric_inverse(a, c, b):
    """Entries (a', c', b') of the inverse of [[a, c], [c, b]], from its adjugate."""
    det = a * b - c * c
    return b / det, -c / det, a / det


def covariance_entries(theta, v0, v1):
    """(a, c, b) of R diag(v0, v1) R^T, R the rotation by theta, to the sign of a zero c."""
    cos, sin = math.cos(theta), math.sin(theta)
    cc, ss, cs = cos * cos, sin * sin, cos * sin
    return cc * v0 + ss * v1, cs * (v0 - v1) + (cc - ss) * 0.0, ss * v0 + cc * v1


def _quadratic_roots(qa, qb, qc):
    """Real roots of qa x^2 + qb x + qc = 0, free of cancellation."""
    if qa == 0.0:
        return [] if qb == 0.0 else [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    if q == 0.0:
        return [0.0]
    return [q / qa, qc / q]


def _pencil(first, second):
    """(nu, lambda, ln(lambda_0 lambda_1)/2, slack), lambda = 1 + nu the
    eigenvalues of C_1^{-1/2} C_2 C_1^{-1/2}, slack = sum_k |d lambda_k| /
    lambda_k.  On shared axes (a fold without rotation) or with an isotropic
    term, lambda_i = w_i/u_i and nu_i = (w_i - u_i)/u_i, exact.  Else C_2 is
    turned by phi = theta_2 - theta_1 into the first's axes and whitened:
    lambda from it (the smaller as det / the larger), nu for lambda >= 1/2
    from it minus I built on w_j - u_i (a weak channel keeps its digits),
    slack from Weyl's bound on entries within eps (9 + |phi|) (the
    variances' sum) each and 5 eps of the solve."""
    (u0, u1), (w0, w1) = first.variances, second.variances
    if second.theta == first.theta or u0 == u1 or w0 == w1:
        nus, lams = ((w0 - u0) / u0, (w1 - u1) / u1), (w0 / u0, w1 / u1)
        return nus, lams, 0.5 * sum(math.log(lam) if lam < 0.5 else math.log1p(nu)
                                    for nu, lam in zip(nus, lams)), 0.0
    phi = second.theta - first.theta
    cos, sin = math.cos(phi), math.sin(phi)
    cc, ss, root = cos * cos, sin * sin, math.sqrt(u0 * u1)
    off = cos * sin * (w0 - w1) / root
    grown = ((cc * (w0 - u0) + ss * (w1 - u0)) / u0, (ss * (w0 - u1) + cc * (w1 - u1)) / u1)
    half, rad = 0.5 * (grown[0] + grown[1]), math.hypot(0.5 * (grown[0] - grown[1]), off)
    far = half + math.copysign(rad, half)  # the nu of larger size
    nus = sorted([far, (grown[0] * grown[1] - off * off) / far if far else 0.0])
    det = w0 / u0 * (w1 / u1)
    big = 0.5 * ((cc * w0 + ss * w1) / u0 + (ss * w0 + cc * w1) / u1) + rad
    lams = (det / big, big)
    weyl = EPS * (9.0 + abs(phi)) * (u0 + u1 + w0 + w1) * (1.0 / u0 + 1.0 / u1 + 1.0 / root)
    solve = 5.0 * EPS * (abs(grown[0]) + abs(grown[1]) + 2.0 * abs(off))
    slack = sum(6.0 * EPS + weyl / big if lam < 0.5 else (weyl + solve) / lam for lam in lams)
    nus = tuple(lam - 1.0 if lam < 0.5 else nu for nu, lam in zip(nus, lams))
    return nus, lams, 0.5 * math.log(det), slack


def _seeds(mu, ell):
    """Initial panel edges in (0, pi/2) for frac(q), q = mu_0 cos^2 + mu_1 sin^2
    with |mu_0| <= |mu_1|: frac steps where q crosses 0 (else at or near psi
    = 0), flat to rounding up to |q| = |ell| / ln(1/eps) on the side where q
    has ell's sign, then falling off like ell / q.  A step (to that level
    or to q = 2 mu_0) narrower than the span / GRADING gets the angles where
    q = ell and q = 0 and edges graded by GRADING from its centre."""
    m0, m1 = mu
    flat = math.copysign(abs(ell) / -math.log(EPS), ell)

    def angle(t):
        return math.atan(math.sqrt((t - m0) / (m1 - t)))

    centre, side = 0.0, 1.0
    step = math.asin(math.sqrt(min(1.0, max(abs(m0), abs(flat)) / abs(m1 - m0))))
    if m0 * m1 < 0.0:
        centre, side = angle(0.0), math.copysign(1.0, m1 * ell)
        step = abs(angle(flat) - centre) if (flat - m0) * (m1 - flat) > 0.0 else math.pi
    if step >= 0.5 * math.pi / GRADING:
        return []
    seeds = [angle(t) for t in (ell, 0.0) if (t - m0) * (m1 - t) > 0.0]
    step = max(step, MIN_PANEL_WIDTH)
    while 0.0 < centre + side * step < 0.5 * math.pi:
        seeds.append(centre + side * step)
        step *= GRADING
    return seeds


def _co_centred_l1(first, second, tol):
    """int d^2z/pi |G_1 - G_2| of the co-centred unit-mass Gaussians of
    ``first`` and ``second`` in Imhof's angular form, unchecked (centres
    within 1e-13 of their midpoint count as one).  It is 2 (P_1 - P_2):
    f > 0 where z^T (C_1^{-1} - C_2^{-1}) z < 2 ell, ell = ln(lambda_0
    lambda_1)/2, and P_i = (2/pi) int_0^{pi/2} frac(mu_0 cos^2 + mu_1
    sin^2) dpsi is term i's share there (frac below), mu = nu / lambda for
    term 1 and nu for term 2 (:func:`_pencil`); constant shares are closed
    form, the others share the panels of :func:`_seeds`.  The bound adds
    slack / 2, both roundings and a few eps."""
    nus, lams, ell, slack = _pencil(first, second)
    # varying shares: q / ell = base + slope sin^2 psi, weight -+ 4 / pi for -expm1 or exp
    value, rows, edges = 0.0, [], []
    for mu, sign in (((nus[0] / lams[0], nus[1] / lams[1]), 1.0), (nus, -1.0)):
        if abs(mu[1]) < abs(mu[0]):
            mu = mu[::-1]
        # frac at both ends: the share of a whitened ray's mass with rho^2 q < 2 ell
        share, end = ((-math.expm1(-ell / q) if ell > 0.0 else math.exp(-ell / q))
                      if q * ell > 0.0 else float(q < 0.0 or ell > 0.0) for q in mu)
        if share == end:  # frac is monotone in psi: constant
            value += 2.0 * sign * share
        elif not ell:  # a step where q = 0
            value += 2.0 * sign * math.atan(math.sqrt(-min(mu) / max(mu))) / (0.5 * math.pi)
        else:
            rows.append((mu[0] / ell, (mu[1] - mu[0]) / ell,
                         math.copysign(4.0 / math.pi, -ell) * sign))
            edges += _seeds(mu, ell)
    edges = sorted(set(edges + [0.0, 0.5 * math.pi])) if rows else []
    rows = np.array(rows).reshape(-1, 3).T
    base, slope, exp = rows[0, :, None], rows[1, :, None], np.expm1 if ell > 0.0 else np.exp

    def h(psi):
        # q / ell clipped below: q beyond ell's sign reads as frac's limit there
        return rows[2] @ exp(-1.0 / np.maximum(base + slope * np.sin(psi) ** 2, EPS))

    panels, panel_err, count = _adaptive_panels(h, edges, 0.5 * tol, MAX_OUTER)
    rounding = EPS * 2.0 * (16.0 + 2.0 * count) + (first.rounding + second.rounding) + 0.5 * slack
    return IntegralEstimate(value + panels, panel_err + rounding, count)


def integrate_plane_abs_pow(first, second, p, tol):
    """int d^2z/pi |f(z)|^p for f = G_first - G_second, the difference of the
    unit-mass Gaussians of two :class:`GaussianTerm`.

    At p = 1 with a shared center (each within 1e-13 of the midpoint, taken
    as co-centred) the integral takes Imhof's angular form (Biometrika 48,
    419, 1961, :func:`_co_centred_l1`) in the terms' axes.
    Else adaptive panels integrate the angle about the center in the scaled
    principal axes of the summed covariances (each (a, c, b) from its axes;
    [0, pi] when shared); along a ray a term is +-amp_i exp(g_i + b_i r -
    a_i r^2), a_i = P_i cos^2 + Q_i sin^2 + 2 R_i cos sin (which keeps
    squeezed terms' digits), so the sign change solves a quadratic and edges
    the radial core.  The bound is then prefactor * (outer_err + phi_range *
    inner_tol), inner_tol a ray's share, plus the two terms' ``rounding``
    times p (amp_1 + amp_2)^(p - 1) (|f|^p's change for f's); a ray that
    misses its share stops the plane with (nan, inf, panels so far) attached.
    ``subdivisions`` counts angular and radial panels.  The bound is at most
    ``tol`` or :class:`ToleranceNotReached` is raised, an estimate strong
    squeezing defeats (see :class:`IntegralEstimate`); a mean or theta not
    finite, or a variance not finite and > 0 (no decay), raises ValueError."""
    _checked_input(p, tol)
    terms = (first, second)
    if not all(0.0 < v < math.inf for t in terms for v in t.variances):
        raise ValueError("a planar profile is two terms decaying along every ray")
    for t in terms:  # explicit tests a term: a generator over them is slower
        if not (math.isfinite(t.mean[0]) and math.isfinite(t.mean[1]) and math.isfinite(t.theta)):
            raise ValueError("a planar term's mean and theta must be finite")
    (x0, y0), (x1, y1) = first.mean, second.mean
    center = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
    offsets = [(center[0] - x, center[1] - y) for x, y in (first.mean, second.mean)]
    symmetric = all(math.hypot(*o) < 1e-13 for o in offsets)
    if p == 1.0 and symmetric:
        # an offset below 1e-13 is taken as co-centred
        return checked(_co_centred_l1(first, second, tol), tol)
    a, c, b = map(sum, zip(*(covariance_entries(t.theta, *t.variances) for t in terms)))
    psi = 0.5 * math.atan2(-2.0 * c, b - a)
    u, v = (math.cos(psi), math.sin(psi)), (-math.sin(psi), math.cos(psi))
    aligned = [covariance_entries(t.theta - psi, *t.variances) for t in terms]
    s1 = math.sqrt(max(al[0] for al in aligned))
    s2 = math.sqrt(max(al[2] for al in aligned))
    phi_range = math.pi if symmetric else 2.0 * math.pi
    prefactor = (2.0 if symmetric else 1.0) * s1 * s2 / math.pi

    inner_tol = tol / (4.0 * prefactor * phi_range)
    outer_budget = tol / (2.0 * prefactor)

    # per term, along the scaled axes: the signed peak, the ray rate a(phi)
    # and the slope b(phi) = -(U cos + V sin) from the offset
    amps, gs, rates, slopes = (first.amp, -second.amp), [], [], []
    for al, (ox, oy) in zip(aligned, offsets):
        ia, ic, ib = symmetric_inverse(*al)
        o1, o2 = ox * u[0] + oy * u[1], ox * v[0] + oy * v[1]
        t1, t2 = ia * o1 + ic * o2, ic * o1 + ib * o2
        gs.append(-0.5 * (o1 * t1 + o2 * t2))
        rates.append((0.5 * s1 * s1 * ia, 0.5 * s2 * s2 * ib, s1 * s2 * ic))
        slopes.append((s1 * t1, s2 * t2))
    logs = [math.log(abs(amp)) + g for amp, g in zip(amps, gs)]
    ray_p, ray_q, ray_r = np.array(rates).T[:, :, None]
    panels = 0  # radial panels over all rays

    def ray_panels(a_coef, b_coef):
        nonlocal panels
        decay = tuple((c + max(b, 0.0) ** 2 / (2.0 * a), 0.5 * a)
                      for c, a, b in zip(logs, a_coef, b_coef))

        def f(r):
            # term-by-term accumulation (not a BLAS dot): opposite equal
            # terms then cancel bitwise, so an identity-channel difference
            # evaluates to exactly zero instead of FMA rounding noise
            r = np.atleast_1d(np.asarray(r, dtype=float))
            out = np.zeros_like(r)
            for amp, a, b, g in zip(amps, a_coef, b_coef, gs):
                out += amp * np.exp(-a * r**2 + b * r + g)
            return out

        def find_cuts(radius):
            # where the two log-magnitudes c_i + b_i r - a_i r^2 meet
            return _quadratic_roots(a_coef[1] - a_coef[0], b_coef[0] - b_coef[1],
                                    logs[0] - logs[1])

        est = _core_abs_pow(f, decay, p, 2.0 * inner_tol, find_cuts)
        panels += est.subdivisions
        if not est.abs_error_bound <= 2.0 * inner_tol:
            raise ToleranceNotReached(
                f"ray error {est.abs_error_bound:.3e} above its share {2.0 * inner_tol:.3e}",
                IntegralEstimate(math.nan, math.inf, panels))
        return 0.5 * est.value

    def outer(phis):
        phis = np.atleast_1d(phis)
        cos, sin = np.cos(phis), np.sin(phis)
        a_rays = ray_p * (cos * cos) + ray_q * (sin * sin) + ray_r * (cos * sin)
        # a covariance too ill-conditioned for double precision can invert
        # to a form that is not positive along some ray
        if not a_rays.min() > 0.0:
            raise ValueError("a profile term does not decay along every ray")
        slope_u, slope_v = np.array(slopes).T[:, :, None]
        b_rays = -(slope_u * cos + slope_v * sin)
        return np.array([ray_panels(a, b)
                         for a, b in zip(a_rays.T.tolist(), b_rays.T.tolist())])

    outer_val, outer_err, outer_count = _adaptive_panels(
        outer, [0.0, phi_range], outer_budget, MAX_OUTER)
    bound = outer_err + phi_range * inner_tol + EPS * outer_count * abs(outer_val)
    carried = p * (first.amp + second.amp) ** (p - 1.0) * (first.rounding + second.rounding)
    return checked(IntegralEstimate(prefactor * outer_val, prefactor * bound + carried,
                                    outer_count + panels), tol)
