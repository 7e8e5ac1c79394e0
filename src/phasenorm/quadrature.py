"""Sign-aware adaptive quadrature for phase-space integrands.

All norms in the package reduce to integrals of |f|^p against the
d^2alpha/pi measure.  Two integrators are provided:

* :func:`integrate_radial_abs_pow` for rotation-symmetric profiles
  (photon-number-diagonal states), computing  int_0^inf 2 rho |f(rho)|^p drho;
* :func:`integrate_plane_abs_pow` for one- or two-term signed-Gaussian
  profiles, using adaptive polar quadrature in coordinates aligned with
  the profile's principal axes.

Both share the same machinery: the improper integral is truncated at a
radius where the profile's declared Gaussian decay certifies a tail bound
below tol/10, the integrand is cut at every sign change of f so |f|^p is
smooth on each panel (no cut for even integer p: f^p is smooth), and
panels are refined worst-first with fixed-order Gauss-Legendre rules
until the accumulated error estimate fits the tolerance, each refinement
step's GL16 rules in one call of the integrand.  Radial profiles find
their sign changes by a scan and ladder refinement (a first point
interpolated through three scan nodes, then regula falsi points, each
flanked by geometric rungs, one call of f per round); a bracket closes at
width 1e-12, or sooner once its placement term meets a closing bound the
caller gives.  An f that returns one row per signal has the sign changes
of every row found by one scan and one ladder.
Along a ray of a planar profile the log-magnitude of each Gaussian term
is quadratic in the radius, so its sign change is found in closed form;
for p = 1 with a shared center the whole ray integral is closed form, and
only the angle is integrated numerically.

A radial profile may carry an ``l1`` hook, its producer's exact route
at p = 1; :func:`phasenorm.fock.radial_profile` states that route's
error contract.  On every other route (p != 1, a profile without the
hook, the planar angle) the panel part of the error is an estimate.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

LEG_NODES, LEG_WEIGHTS = np.polynomial.legendre.leggauss(16)

ROOT_XTOL = 1e-12
ROOT_MAX_STEPS = 200
LADDER = 0.5 * ROOT_XTOL * 4.0 ** np.arange(20)  # rungs around the regula falsi point
# a round's offsets with the k narrowest rungs; the infinite ones clip to the ends
LADDER_OFFSETS = [np.concatenate([[-np.inf], -LADDER[:k][::-1], [0.0], LADDER[:k], [np.inf]])
                  for k in range(len(LADDER) + 1)]
LADDER_LIMITS = np.append(LADDER, np.inf)  # k rungs keep the offsets below LADDER_LIMITS[k]
MIN_PANEL_WIDTH = 1e-13
EPS = float(np.finfo(float).eps)
SIGN_SCAN_FLOOR = 1e-13  # relative magnitude below which sign flips are noise
MAX_PANELS = 8192  # radial panels per integral
MAX_OUTER = 2048   # angular panels per planar integral
ANGLE_CACHE_SIZE = 64  # angular span sets whose nodes are kept
_ANGLE_NODES = {}  # span set -> (angles, half-widths), see _angle_nodes


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
    the true error (the squeezed thermal state nbar 1, r 20 gives N =
    1.5000005 with err 7.3e-7 under ``CG``, against a limit of 2: no GL16
    node of the angular panels samples its needle-thin input term).  On
    the planar route at p = 1 the rays are exact and the angular panels
    are the whole estimate; a covariance too ill-conditioned for the
    closed forms never reaches it, as
    :class:`~phasenorm.gaussian.GaussianState` rejects it when built.

    On the exact radial route (p = 1, a profile with an ``l1`` hook) the
    bound is the one the profile's producer certifies, given a complete
    sign scan (see :func:`phasenorm.fock.radial_profile`).  Every route
    returns a bound within tol or raises it attached.
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
    root-scan sampling density).  ``l1``, when given, is its producer's
    exact route at p = 1 (see :func:`phasenorm.fock.radial_profile`): it
    maps a tuple of tolerances, one per signal the profile carries, to a
    tuple of unchecked :class:`IntegralEstimate` of their p = 1 integrals.
    The first signal is f; ``evaluator``, ``decay`` and ``degree_hint``
    describe it alone.
    """

    evaluator: object
    decay: tuple
    degree_hint: int
    l1: object = None


@dataclass(frozen=True)
class GaussianTerm:
    """One signed Gaussian: amp * exp(-(z-mean)^T cov^{-1} (z-mean)/2)."""

    amp: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class PlanarProfile:
    """Sum of one or two signed 2-D Gaussians; the terms double as the decay hint."""

    terms: tuple

    def __post_init__(self):
        if not 1 <= len(self.terms) <= 2:
            raise ValueError(f"a planar profile has one or two terms, got {len(self.terms)}")


class SignChanges(list):
    """Sorted sign-change radii with their final brackets.

    ``widths[i]`` is the width of the bracket left around root i (0 for an
    exact zero) and ``heights[i]`` the larger |f| at its two ends.
    """

    def __init__(self, roots, widths, heights):
        order = np.argsort(roots, kind="stable")
        super().__init__(float(r) for r in np.asarray(roots)[order])
        self.widths = np.asarray(widths, dtype=float)[order]
        self.heights = np.asarray(heights, dtype=float)[order]


def locate_sign_changes(f, bracket, degree_hint, stop=None, close=None):
    """Find radii where f changes sign on ``bracket``, each to 1e-12 or to ``close``.

    Sign changes are bracketed on a uniform grid of
    min(max(513, 32 (degree_hint + 1) + 1), 40001) samples over
    ``bracket``, cut after its first node at or beyond ``stop`` if given,
    and refined by the ladder (all open brackets in one call of f per
    round), whose first point takes a third scan node.  Nodes where f is
    exactly zero are returned as cuts directly.
    Sign flips whose flanking magnitudes are both below SIGN_SCAN_FLOOR
    times the scan maximum are ignored: such crossings are floating-point
    noise where f has decayed away, and missing a cut there perturbs no
    integral of |f|^p (cuts only restore smoothness at genuine kinks).  Two
    sign changes within one scan step are not seen.
    Raises :class:`RootBudgetExceeded` above degree_hint + 16 changes.

    ``close``, if given, is a pair (bound, sup): a bracket [a, b] then
    also closes once its placement term 4 b (b - a) (max(|f(a)|, |f(b)|)
    + sup) is at most bound.  For f monotone on the bracket and any g
    within sup of f, that term bounds the change of the integrals of
    2r g over the intervals on either side of the root when the root
    moves within the bracket.  Without ``close`` every bracket is refined
    to ROOT_XTOL.

    Returns a :class:`SignChanges` list, whose final bracket widths and end
    values bound the placement error of each root.

    ``f`` may instead return one row per signal (shape (signals, points)
    for a 1-D array of radii).  Then one :class:`SignChanges` is returned
    per row, and ``degree_hint``, ``stop`` and the two parts of ``close``
    may each hold one value per row.  The rows share one scan, on the grid
    of the first row's degree_hint over ``bracket``, continued with the
    same step past its end up to the largest stop; each row is cut at its
    own stop and keeps its own floor, budget and closing bound, and every
    round of the ladder refines the brackets of all rows in one call of f.
    A row finds, bit for bit, the cuts it finds alone on the same grid.
    """
    lo, hi = bracket
    hints = np.atleast_1d(degree_hint)
    count = min(max(513, 32 * (int(hints[0]) + 1) + 1), 40001)
    xs = np.linspace(lo, hi, count)
    ends = count
    if stop is not None:
        stops = np.atleast_1d(np.asarray(stop, dtype=float))
        step = (hi - lo) / (count - 1)
        if stops.max() > hi and step > 0.0:
            extra = math.ceil((float(stops.max()) - hi) / step)
            xs = np.append(xs, hi + step * np.arange(1, extra + 1))
        ends = np.searchsorted(xs, stops) + 1
        xs = xs[:ends.max()]
    ys = f(xs)
    single = np.ndim(ys) == 1
    rows = np.atleast_2d(ys)
    ends = np.full(len(rows), ends)
    # node j of row i is scanned while j < ends[i]; the rest reads as zero
    live = np.arange(len(xs)) < ends[:, None]
    mag = np.where(live, np.abs(rows), 0.0)
    floor = SIGN_SCAN_FLOOR * mag.max(axis=1, keepdims=True)
    owner, idx = np.nonzero((rows[:, :-1] * rows[:, 1:] < 0.0) & live[:, 1:]
                            & (np.maximum(mag[:, :-1], mag[:, 1:]) > floor))
    zmask = ((rows[:, 1:-1] == 0.0) & live[:, 2:]
             & (np.maximum(mag[:, :-2], mag[:, 2:]) > floor))
    brackets = np.bincount(owner, minlength=len(rows))
    changes, budget = brackets + zmask.sum(axis=1), np.resize(hints, len(rows)) + 16
    if np.any(changes > budget):
        i = int(np.argmax(changes > budget))
        raise RootBudgetExceeded(f"found {changes[i]} sign changes, budget {budget[i]}")
    # the third node: the left neighbour, else the right one, whose value
    # reads nan outside the row's scan
    near = idx - 1
    near[idx == 0] = min(2, len(xs) - 1)
    bound, sup = (-np.inf, 0.0) if close is None else close
    roots, widths, heights = _ladder_brackets(
        (lambda r: f(r)[None]) if single else f,
        xs[idx], xs[idx + 1], rows[owner, idx], rows[owner, idx + 1], owner,
        xs[near], np.where(near < ends[owner], rows[owner, near], np.nan),
        np.full(len(rows), bound)[owner], np.full(len(rows), sup)[owner])
    found, start = [], 0
    for n, zero in zip(brackets, zmask):
        part = slice(start, start + n)
        start = part.stop
        zeros = xs[1:-1][zero]
        none = np.zeros(len(zeros))
        found.append(SignChanges(np.concatenate([roots[part], zeros]),
                                 np.concatenate([widths[part], none]),
                                 np.concatenate([heights[part], none])))
    return found[0] if single else found


def _first_points(a, b, ya, yb, xn, yn):
    """The ladder's first point in each bracket [a, b], from a third node.

    Inverse quadratic interpolation through (a, ya), (b, yb) and the node
    (xn, yn) gives the point; where it is not finite or leaves the open
    bracket (yn nan marks a missing node) regula falsi does.  Written
    about b with the Lagrange weights at y = 0, so the point keeps the
    bracket's precision rather than that of the radii.
    """
    width, gap = b - a, ya - yb
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low, high = ya - yn, yb - yn
        inverse = b + (xn - b) * (ya * yb / (low * high)) - width * (yb * yn / (gap * low))
    # nan fails both comparisons
    return np.where((inverse > a) & (inverse < b), inverse, b + yb * width / gap)


def _ladder_brackets(f, a, b, fa, fb, owner, xn, yn, bound, sup):
    """Refine sign-change brackets [a, b] simultaneously.

    Each round evaluates, in one call of f, a point c of every open
    bracket and the rungs c -+ LADDER narrower than the widest open
    bracket of its row, clipped to it: NumPy's per-call overhead dominates
    the kernel, so these points cost about what c alone does.  The first
    round's c comes from the third node (xn, yn) (see
    :func:`_first_points`), later rounds' from regula falsi.
    ``f`` returns one row per signal and bracket i reads row owner[i]
    (``owner`` is nondecreasing); the rungs a row does not take are
    infinite and clip to the ends, so every bracket takes the points it
    takes in a call of its row alone.
    The narrowest pair of neighbours whose values change sign becomes the
    bracket; c within 0.5 ROOT_XTOL of the root closes it.  A bracket
    closes at width ROOT_XTOL, at an exact zero or once its placement term
    4 b (b - a) (max |f| at the ends + sup) is at most ``bound`` (all per
    bracket), after at most ROOT_MAX_STEPS rounds.  Returns the roots
    (right ends), the final widths and max(|f|) at the final ends.
    """
    a, b = a.astype(float), b.astype(float)
    ya, yb = fa.astype(float), fb.astype(float)

    def still_open(lo, hi, ylo, yhi, i):
        # which of the brackets [lo, hi] (numbers i) stay open
        width = hi - lo
        placement = 4.0 * hi * width * (np.maximum(np.abs(ylo), np.abs(yhi)) + sup[i])
        return (width > ROOT_XTOL) & ~(placement <= bound[i])

    open_ = np.nonzero(still_open(a, b, ya, yb, slice(None)))[0]
    for step in range(ROOT_MAX_STEPS):
        if not len(open_):
            break
        lo, hi, ylo, yhi = a[open_, None], b[open_, None], ya[open_, None], yb[open_, None]
        width = hi - lo
        if step:
            c = hi - yhi * width / (yhi - ylo)
        else:
            c = _first_points(lo, hi, ylo, yhi, xn[open_, None], yn[open_, None])
        row = owner[open_]
        offsets = LADDER_OFFSETS[np.searchsorted(LADDER, width.max())]
        if row[0] != row[-1]:
            # each row takes the rungs narrower than its own widest bracket
            taken = np.zeros(row[-1] + 1, dtype=int)
            np.maximum.at(taken, row, np.searchsorted(LADDER, width[:, 0]))
            offsets = np.where(np.abs(offsets) < LADDER_LIMITS[taken[row]][:, None],
                               offsets, np.copysign(np.inf, offsets))
        xs = np.minimum(np.maximum(c + offsets, lo), hi)
        rows = np.arange(len(open_))
        ys = f(xs.ravel()).reshape(-1, *xs.shape)[row, rows]
        gap = np.where(ys[:, :-1] * ys[:, 1:] < 0.0, xs[:, 1:] - xs[:, :-1], np.inf)
        zero = ys == 0.0
        hit = zero.any(axis=1)
        left = np.where(hit, zero.argmax(axis=1), gap.argmin(axis=1))
        right = left + ~hit
        lo, ylo, hi, yhi = xs[rows, left], ys[rows, left], xs[rows, right], ys[rows, right]
        a[open_], ya[open_], b[open_], yb[open_] = lo, ylo, hi, yhi
        open_ = open_[still_open(lo, hi, ylo, yhi, open_)]
    return b, b - a, np.maximum(np.abs(ya), np.abs(yb))


def _gl16_nodes(spans):
    """The GL16 nodes of every (a, b) of ``spans`` in one array, and the half-widths."""
    a, b = np.array(spans).T
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * LEG_NODES).ravel(), half.tolist()


class _Angles(np.ndarray):
    """GL16 angles of a span set; ``trig`` holds their cos, sin, cos^2, sin^2
    and cos sin."""


def _angle_nodes(spans):
    """:func:`_gl16_nodes` of angular spans, the angles carrying their ``trig``.

    Planar spans are dyadic cuts of [0, phi_range], so few span sets
    recur from state to state; the nodes of the ANGLE_CACHE_SIZE newest
    of them are kept (about 5 kB each), filled on first use and read-only.
    """
    key = tuple(spans)
    nodes = _ANGLE_NODES.get(key)
    if nodes is None:
        if len(_ANGLE_NODES) >= ANGLE_CACHE_SIZE:
            del _ANGLE_NODES[next(iter(_ANGLE_NODES))]
        phis, half = _gl16_nodes(spans)
        cos, sin = np.cos(phis), np.sin(phis)
        phis = phis.view(_Angles)
        phis.trig = (cos, sin, cos * cos, sin * sin, cos * sin)
        for shared in (phis, *phis.trig):
            shared.setflags(write=False)
        nodes = _ANGLE_NODES[key] = (phis, half)
    return nodes


def _adaptive_panels(g, edges, budget, max_panels, *, angles=False):
    """Worst-first adaptive refinement over the initial panels ``edges``.

    Each panel carries the bisected value (sum over halves) and the
    difference to the unbisected rule as its error estimate.  Each step
    evaluates all of its GL16 rules in one call of ``g`` (NumPy's per-call
    overhead, not arithmetic, sets the cost of 16 nodes): every initial
    panel's rule and half-rules, then per split its children's half-rules.
    Stops within ``budget``, at ``max_panels`` or at a panel below
    MIN_PANEL_WIDTH, and returns (value, error_sum, panel_count) for the
    caller to judge.

    ``angles`` is for an integrand of angles that costs a few array
    elements per node (the exact planar route): its nodes come from
    :func:`_angle_nodes`, and the first call also holds the four
    half-rules of each initial panel's halves, so that panel's first split
    calls ``g`` no more.  Value, error and count keep their bits either way.
    """
    nodes = _angle_nodes if angles else _gl16_nodes

    def rules(spans):
        # GL16 on each (a, b) of spans, summed rule by rule
        xs, half = nodes(spans)
        ys = g(xs)
        return [h * float(np.dot(LEG_WEIGHTS, ys[16 * i:16 * i + 16]))
                for i, h in enumerate(half)]

    def halves(a, b):
        return [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]

    def quarters(a, b):
        # the spans of the split of (a, b): its halves' halves
        mid = 0.5 * (a + b)
        return halves(a, mid) + halves(mid, b)

    heap = []
    seq = 0
    total = err = 0.0

    def push(a, b, whole, left, right):
        nonlocal seq, total, err
        diff = abs(left + right - whole)
        total += left + right
        err += diff
        heapq.heappush(heap, (-diff, seq, a, b, left, right))
        seq += 1

    spans = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a >= MIN_PANEL_WIDTH]
    per = 7 if angles else 3  # rules per initial panel: itself, halves, its split's
    values = rules([s for a, b in spans for s in [(a, b)] + halves(a, b)
                    + (quarters(a, b) if angles else [])]) if spans else []
    split = {}  # the first split's half-rules of each initial panel, when taken ahead
    for i, (a, b) in enumerate(spans):
        push(a, b, *values[per * i:per * i + 3])
        if angles:
            split[a, b] = values[per * i + 3:per * i + 7]
    count = len(spans)
    while err > budget and count < max_panels and heap:
        neg_err, _, a, b, left, right = heapq.heappop(heap)
        if b - a < MIN_PANEL_WIDTH:
            break
        total -= left + right
        err += neg_err
        mid = 0.5 * (a + b)
        values = split.pop((a, b), None) or rules(quarters(a, b))
        push(a, mid, left, *values[:2])
        push(mid, b, right, *values[2:])
        count += 1
    return total, err, count


def _checked(est, tol):
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

    Two routes, chosen by the input:

    * p = 1 and a profile with an ``l1`` hook: the hook's estimate, with
      the error contract of its producer (see
      :func:`phasenorm.fock.radial_profile`).
    * otherwise: the integrand is cut at every sign change of f so
      |f|^p is smooth on each panel, and adaptive GL16 panels run up to
      the envelope radius; ``abs_error_bound`` is the panel estimate plus
      the certified tail plus rounding.

    The bound is at most ``tol`` or :class:`ToleranceNotReached` is raised
    with the best estimate attached.  At p = 1 ``tol`` may be a tuple, one
    tolerance per signal of the hook: then the hook's tuple of estimates
    is returned, each checked against its own tolerance in order.
    """
    if p < 1.0:
        raise ValueError(f"norm order must be >= 1, got {p}")
    if p == 1.0 and profile.l1 is not None:
        tols = tol if isinstance(tol, tuple) else (tol,)
        ests = tuple(_checked(est, t) for est, t in zip(profile.l1(tols), tols))
        return ests if isinstance(tol, tuple) else ests[0]
    est = _core_abs_pow(profile.evaluator, profile.decay, p, tol, lambda radius: (
        locate_sign_changes(profile.evaluator, (0.0, radius), profile.degree_hint)))
    return _checked(est, tol)


def symmetric_inverse(a, c, b):
    """Entries (a', c', b') of the inverse of [[a, c], [c, b]], from its adjugate."""
    det = a * b - c * c
    return b / det, -c / det, a / det


def _principal_axes(a, c, b):
    """Unit (minor, major) axes of [[a, c], [c, b]], ordered and signed as eigh's:
    the major one at atan2(2c, a - b)/2, each with its larger component > 0."""
    if c == 0.0:
        return ((1.0, 0.0), (0.0, 1.0)) if a <= b else ((0.0, 1.0), (1.0, 0.0))
    psi = 0.5 * math.atan2(2.0 * c, a - b)
    cos, sin = math.cos(psi), math.sin(psi)
    return tuple((x, y) if (x if abs(x) >= abs(y) else y) > 0.0 else (-x, -y)
                 for x, y in ((-sin, cos), (cos, sin)))


def _form(a, c, b, u, v):
    """u^T [[a, c], [c, b]] v."""
    return a * u[0] * v[0] + c * (u[0] * v[1] + u[1] * v[0]) + b * u[1] * v[1]


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


def _exact_rays_l1(amps, halves, rates):
    """int_0^inf r |sum_i A_i exp(-k_i r^2)| dr for one or two terms.

    ``amps`` holds the A_i, ``halves`` the 0.5 A_i as a column and
    ``rates`` the k_i, one row per term and one column per ray.  With F(R)
    = sum_i A_i (1 - exp(-k_i R^2)) / (2 k_i), the terms of a ray cancel
    at most once, at r0^2 = ln|A_1/A_2| / (k_1 - k_2) when that is > 0,
    and the ray integrates to |2 F(r0) - F(inf)|; a ray without a cut
    takes r0 = inf, so |F(inf)|.
    """
    halves = halves / rates
    if len(amps) == 1:
        return np.abs(halves[0])
    whole = halves[0] + halves[1]
    if amps[0] * amps[1] > 0.0:
        return np.abs(whole)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0sq = math.log(abs(amps[0] / amps[1])) / (rates[0] - rates[1])
    r0sq = np.where(r0sq > 0.0, r0sq, np.inf)  # equal rates give inf or nan
    # F(r0) = -rest, so 2 F(r0) - F(inf) = -(whole + 2 rest)
    rest = halves * np.expm1(-rates * r0sq)
    return np.abs(whole + 2.0 * (rest[0] + rest[1]))


def integrate_plane_abs_pow(profile, p, tol):
    """int d^2z/pi |f(z)|^p for a one- or two-term signed-Gaussian profile.

    Polar quadrature about the common center in coordinates aligned with
    the principal axes of the summed covariances and scaled per axis; the
    angle is integrated by the adaptive panel scheme, all the angles of
    one refinement step in one call.  When every term shares the center the
    integrand is even and only [0, pi] is integrated.

    Every 2x2 quantity is a closed form in the entries (a, c, b) of a
    covariance: the major axis at atan2(2c, a - b)/2 (minor axis first,
    signed as ``numpy.linalg.eigh`` would), each term's aligned covariance
    and its inverse from the adjugate.  Along the ray at angle phi a term
    is amp_i exp(g_i + b_i r - a_i r^2) with a_i = P_i cos^2 + Q_i sin^2 +
    2 R_i cos sin, a form that keeps the digits of strongly squeezed
    terms (the double-angle form cancels).  So the sign change of a
    two-term profile is a root of a quadratic in r, found in closed form;
    no sign scan runs.  Two routes, chosen by the input:

    * p = 1 with a shared center: b_i = 0, and every ray integral is
      exact, split where the terms cancel at
      r0^2 = ln|A_1/A_2| / (a_1 - a_2) with A_i = amp_i e^{g_i}; one NumPy
      expression covers all the angles of a step and both terms, which
      are stacked on one axis.  The trigonometry of the angles is cached
      per span set, and the first call of the angle integrand also takes
      the first split of [0, pi] (see :func:`_adaptive_panels`), so a
      state that settles in two angular panels makes one call.
      ``subdivisions`` counts the angular panels only.
    * otherwise: each ray runs the radial core (certified truncation,
      adaptive GL16 panels with the closed-form cuts as edges).
      ``subdivisions`` counts angular and radial panels.

    On both routes the error bound is prefactor * (outer_err + phi_range
    * inner_tol), with inner_tol the tolerance granted to each ray, and at
    most ``tol`` or :class:`ToleranceNotReached` is raised.  A ray that
    misses its share stops the plane at once with (nan, inf, panels so
    far) attached: no bound for the plane exists then.  A term that does
    not decay along some sampled ray raises ValueError.
    """
    if p < 1.0:
        raise ValueError(f"norm order must be >= 1, got {p}")
    terms = profile.terms
    means = [t.mean.tolist() for t in terms]
    covs = [(a, c, b) for (a, c), (_, b) in (t.cov.tolist() for t in terms)]
    center = [sum(m[j] for m in means) / len(terms) for j in range(2)]
    u, v = _principal_axes(*(sum(col) for col in zip(*covs)))
    aligned = [(_form(*cov, u, u), _form(*cov, u, v), _form(*cov, v, v)) for cov in covs]
    s1 = math.sqrt(max(al[0] for al in aligned))
    s2 = math.sqrt(max(al[2] for al in aligned))
    offsets = [(center[0] - m[0], center[1] - m[1]) for m in means]
    symmetric = all(math.hypot(*o) < 1e-13 for o in offsets)
    phi_range = math.pi if symmetric else 2.0 * math.pi
    prefactor = (2.0 if symmetric else 1.0) * s1 * s2 / math.pi

    inner_tol = tol / (4.0 * prefactor * phi_range)
    outer_budget = tol / (2.0 * prefactor)

    # per live term, along the scaled axes: the ray rate a(phi) = P cos^2
    # + Q sin^2 + 2R cos sin from the inverse of the aligned covariance,
    # and the slope b(phi) = -(U cos + V sin) from the offset
    amps, gs, rates, slopes = [], [], [], []
    for t, al, (ox, oy) in zip(terms, aligned, offsets):
        if t.amp != 0.0:
            ia, ic, ib = symmetric_inverse(*al)
            o1, o2 = ox * u[0] + oy * u[1], ox * v[0] + oy * v[1]
            t1, t2 = ia * o1 + ic * o2, ic * o1 + ib * o2
            amps.append(t.amp)
            gs.append(-0.5 * (o1 * t1 + o2 * t2))
            rates.append((0.5 * s1 * s1 * ia, 0.5 * s2 * s2 * ib, s1 * s2 * ic))
            slopes.append((s1 * t1, s2 * t2))
    logs = [math.log(abs(amp)) + g for amp, g in zip(amps, gs)]
    exact = p == 1.0 and symmetric
    peaks = [amp * math.exp(g) for amp, g in zip(amps, gs)]
    # the terms stacked on the first axis, each a column: P, Q, R and 0.5 A
    ray_p, ray_q, ray_r = np.array(rates).reshape(-1, 3).T[:, :, None]
    half_peaks = 0.5 * np.array(peaks)[:, None]
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
            if len(amps) < 2 or amps[0] * amps[1] > 0.0:
                return []
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
        if not amps:
            return np.zeros(len(phis))
        trig = getattr(phis, "trig", None)  # set on the angles of _angle_nodes
        if trig is None:
            cos, sin = np.cos(phis), np.sin(phis)
            trig = cos, sin, cos * cos, sin * sin, cos * sin
        cos, sin, cc, ss, cs = trig
        a_rays = ray_p * cc + ray_q * ss + ray_r * cs
        # a covariance too ill-conditioned for double precision can invert
        # to a form that is not positive along some ray
        if not a_rays.min() > 0.0:
            raise ValueError("a profile term does not decay along every ray")
        if exact:
            return _exact_rays_l1(peaks, half_peaks, a_rays)
        slope_u, slope_v = np.array(slopes).T[:, :, None]
        b_rays = -(slope_u * cos + slope_v * sin)
        return np.array([ray_panels(a, b)
                         for a, b in zip(a_rays.T.tolist(), b_rays.T.tolist())])

    outer_val, outer_err, outer_count = _adaptive_panels(
        outer, [0.0, phi_range], outer_budget, MAX_OUTER, angles=exact)
    bound = outer_err + phi_range * inner_tol + EPS * outer_count * abs(outer_val)
    return _checked(IntegralEstimate(prefactor * outer_val, prefactor * bound,
                                     outer_count + panels), tol)
