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
until the accumulated error estimate fits the tolerance.  Radial profiles
find their sign changes by a scan over [0, R] and Illinois (modified
regula falsi) refinement to 1e-12.  Along a ray of a planar profile the
log-magnitude of each Gaussian term is quadratic in the radius, so its
sign change is found in closed form; for p = 1 with a shared center the
whole ray integral is closed form, and only the angle is integrated
numerically.

A radial profile that carries its ``mass`` (the integral of f outside a
radius) skips the panels at p = 1: the integral is the sum of the mass
differences between consecutive sign cuts, and the truncation radius R
only bounds the scan.  Its error is certified in three parts: the
envelope tail beyond R (a sign change missed there), the root placement
(final bracket widths) and rounding.  What it does not certify is that
the scan found every sign change inside R: two cuts closer than the scan
step go unseen.  On every other route (p != 1, a profile without a mass,
the planar angle) the panel part of the error is an estimate.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

LEG_NODES, LEG_WEIGHTS = np.polynomial.legendre.leggauss(16)

ROOT_XTOL = 1e-12
ROOT_MAX_STEPS = 200
MIN_PANEL_WIDTH = 1e-13
EPS = float(np.finfo(float).eps)
SIGN_SCAN_FLOOR = 1e-13  # relative magnitude below which sign flips are noise
MAX_PANELS = 8192  # radial panels per integral
MAX_OUTER = 2048   # angular panels per planar integral


class ToleranceNotReached(RuntimeError):
    """Error bound above tolerance; ``estimate`` holds the best result.

    The integrators attach an :class:`IntegralEstimate`,
    :func:`~phasenorm.quantifier.norm_value` the pair (N, err).
    """

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class RootBudgetExceeded(RuntimeError):
    """More sign changes found than ``max_roots`` allows."""


@dataclass(frozen=True)
class IntegralEstimate:
    """Quadrature result with its error budget.

    On the panel routes ``abs_error_bound`` is the sum of two parts.  The
    truncation tail is certified: the declared decay envelope bounds it.
    The panel part, the summed difference between GL16 on each panel and
    GL16 on its two halves, is an estimate and can undershoot the true
    error (the squeezed thermal state nbar 1, r 20 gives N = 1.5000005
    with err 7.3e-7 under ``CG``, against a limit of 2: no GL16 node of
    the angular panels samples its needle-thin input term).

    On the exact radial route (p = 1, a profile with a ``mass``) it is
    twice the envelope tail beyond the scan radius (certified by the
    envelope), plus the root placement (final bracket width times the
    larger |f| at its ends, exact for f monotone on the bracket), plus
    rounding of the masses (the bound the profile declares).  What it
    assumes is the completeness of the sign scan inside
    ``truncation_radius``.  ``subdivisions`` then counts the mass
    intervals between cuts.
    """

    value: float
    abs_error_bound: float
    subdivisions: int
    truncation_radius: float


@dataclass(frozen=True)
class RadialProfile:
    """Rotation-symmetric integrand rho >= 0 -> f(rho).

    ``evaluator`` must accept an ndarray of radii.  ``decay`` is a tuple of
    (log_amplitude, rate) pairs certifying |f(rho)| <= sum_i exp(log_a_i -
    rate_i * rho^2) for every rho >= 0; it drives the truncation radius.
    ``degree_hint`` bounds the number of sign changes (used to choose the
    root-scan sampling density).  ``mass``, when given, maps an ndarray of
    radii r to T(r) = int_{|alpha| > r} f d^2alpha/pi, with T(inf) = 0 and
    rounding at most eps * (degree_hint + 1) * max(1, |T|); it makes the
    p = 1 integral exact (see :func:`integrate_radial_abs_pow`).
    """

    evaluator: object
    decay: tuple
    degree_hint: int = 8
    mass: object = None


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


def locate_sign_changes(f, bracket, max_roots=64, samples=513, rel_floor=0.0):
    """Find radii where f changes sign on ``bracket``, each to 1e-12.

    Sign changes are bracketed on a uniform scan grid and refined by the
    Illinois step (all brackets refined simultaneously, one vectorized call
    per iteration on the brackets still open).  Nodes where f is exactly
    zero are returned as cuts directly.  Sign flips whose flanking
    magnitudes are both below ``rel_floor`` times the scan maximum are
    ignored: such crossings are floating-point noise in regions where f has
    decayed away, and missing a cut there perturbs no integral of |f|^p
    (cuts only restore smoothness at genuine kinks).  Two sign changes
    within one scan step are not seen.  Raises :class:`RootBudgetExceeded`
    when the scan finds more than ``max_roots`` relevant changes.

    Returns a :class:`SignChanges` list, whose final bracket widths and end
    values bound the placement error of each root.
    """
    lo, hi = bracket
    xs = np.linspace(lo, hi, samples)
    ys = f(xs)
    floor = rel_floor * float(np.max(np.abs(ys)))
    flank = np.maximum(np.abs(ys[:-1]), np.abs(ys[1:]))
    idx = np.nonzero((ys[:-1] * ys[1:] < 0.0) & (flank > floor))[0]
    zmask = (ys[1:-1] == 0.0) & (np.maximum(np.abs(ys[:-2]), np.abs(ys[2:])) > floor)
    zero_nodes = xs[1:-1][zmask]
    if len(idx) + len(zero_nodes) > max_roots:
        raise RootBudgetExceeded(
            f"found {len(idx) + len(zero_nodes)} sign changes, budget {max_roots}")
    roots, widths, heights = _illinois_brackets(f, xs[idx], xs[idx + 1], ys[idx], ys[idx + 1])
    zeros = np.zeros(len(zero_nodes))
    return SignChanges(np.concatenate([roots, zero_nodes]),
                       np.concatenate([widths, zeros]), np.concatenate([heights, zeros]))


def _illinois_brackets(f, a, b, fa, fb):
    """Refine sign-change brackets [a, b] simultaneously to ROOT_XTOL.

    The Illinois step (Dowell & Jarratt, BIT 1971): the regula falsi point c
    replaces b; when f(c) has the sign of f(b) the kept end a is reused with
    its value halved, so both ends converge.  A bracket closes when its
    width is at most ROOT_XTOL or f(c) is exactly zero.  Returns the roots
    (the latest iterate c), the final widths and max(|f|) at the final ends.
    """
    a, b = a.astype(float), b.astype(float)
    ya, yb = fa.astype(float), fb.astype(float)  # f at the ends
    wa = ya.copy()                               # the kept end's weight
    width = np.abs(b - a)
    open_ = np.nonzero(width > ROOT_XTOL)[0]
    for _ in range(ROOT_MAX_STEPS):
        if not len(open_):
            break
        ao, bo, wo, yo = a[open_], b[open_], wa[open_], yb[open_]
        c = bo - yo * (bo - ao) / (yo - wo)
        yc = f(c)
        flip = yc * yo < 0.0
        a[open_] = np.where(flip, bo, ao)
        ya[open_] = np.where(flip, yo, ya[open_])
        wa[open_] = np.where(flip, yo, 0.5 * wo)
        b[open_], yb[open_] = c, yc
        width[open_] = np.where(yc == 0.0, 0.0, np.abs(c - a[open_]))
        open_ = open_[width[open_] > ROOT_XTOL]
    return b, width, np.maximum(np.abs(ya), np.abs(yb))


def _gl16(g, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(LEG_WEIGHTS, g(mid + half * LEG_NODES)))


def _adaptive_panels(g, edges, budget, max_panels):
    """Worst-first adaptive refinement over the initial panels ``edges``.

    Each panel carries the bisected value (sum over halves) and the
    difference to the unbisected rule as its error estimate.  Returns
    (value, error_sum, panel_count); raises ToleranceNotReached with the
    best estimate attached when ``max_panels`` is hit first.
    """

    def make(a, b, coarse=None):
        whole = _gl16(g, a, b) if coarse is None else coarse
        mid = 0.5 * (a + b)
        left = _gl16(g, a, mid)
        right = _gl16(g, mid, b)
        return (a, b, mid, left, right, left + right, abs(left + right - whole))

    heap = []
    seq = 0
    total = 0.0
    err = 0.0
    count = 0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < MIN_PANEL_WIDTH:
            continue
        p = make(a, b)
        total += p[5]
        err += p[6]
        heapq.heappush(heap, (-p[6], seq, p))
        seq += 1
        count += 1
    while err > budget:
        if count >= max_panels or not heap:
            raise ToleranceNotReached(
                f"error bound {err:.3e} above budget {budget:.3e} "
                f"after {count} panels",
                IntegralEstimate(total, err, count, float(edges[-1])))
        _, _, (a0, b0, mid0, left0, right0, v0, e0) = heapq.heappop(heap)
        if b0 - a0 < MIN_PANEL_WIDTH:
            raise ToleranceNotReached(
                "panel width collapsed before reaching the tolerance",
                IntegralEstimate(total, err, count, float(edges[-1])))
        total -= v0
        err -= e0
        for aa, bb, coarse in ((a0, mid0, left0), (mid0, b0, right0)):
            p = make(aa, bb, coarse)
            total += p[5]
            err += p[6]
            heapq.heappush(heap, (-p[6], seq, p))
            seq += 1
        count += 1
    return total, err, count


def _logsumexp(vals):
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


def _truncation_radius(decay, p, tail_tol):
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
    """
    radius, tail = _truncation_radius(decay, p, tol * 0.1)
    cuts = [] if p % 2.0 == 0.0 else sorted(find_cuts(radius))
    edges = [0.0] + [c for c in cuts if MIN_PANEL_WIDTH < c < radius - MIN_PANEL_WIDTH] + [radius]

    def g(r):
        return 2.0 * r * np.abs(evaluator(r)) ** p

    value, panel_err, count = _adaptive_panels(g, edges, tol - tail, MAX_PANELS)
    return value, panel_err + tail, count, radius


def _mass_l1(profile, tol, find_cuts):
    """int_0^inf 2r |f| dr = sum_i |T(c_i) - T(c_{i+1})| over 0 = c_0 < cuts < inf."""
    radius, tail = _truncation_radius(profile.decay, 1.0, tol * 0.1)
    cuts = find_cuts(radius)
    edges = np.array([0.0] + list(cuts))
    masses = np.append(profile.mass(edges), 0.0)
    value = float(np.sum(np.abs(np.diff(masses))))
    # moving a cut inside its bracket changes the two masses beside it by at
    # most the integral of 2r |f| over the bracket
    right = edges[1:] + cuts.widths
    placement = float(np.sum(4.0 * right * cuts.widths * cuts.heights))
    rounding = (2.0 * EPS * (profile.degree_hint + 1) * len(edges)
                * max(1.0, float(np.max(np.abs(masses)))))
    est = IntegralEstimate(value, 2.0 * tail + placement + rounding, len(edges), radius)
    if not est.abs_error_bound <= tol:
        raise ToleranceNotReached(
            f"error bound {est.abs_error_bound:.3e} of the mass sums above "
            f"tolerance {tol:.3e}", est)
    return est


def integrate_radial_abs_pow(profile, p, tol):
    """int d^2alpha/pi |f(|alpha|)|^p  =  int_0^inf 2 rho |f(rho)|^p drho.

    Two routes, chosen by the input:

    * p = 1 and a profile with a ``mass``: exact.  The sign cuts c_i are
      scanned over [0, R], R the truncation radius, and the integral is
      sum_i |T(c_i) - T(c_{i+1})| over 0 = c_0 < cuts < inf.  No panel
      runs.  ``abs_error_bound`` is certified except for the scan's
      completeness inside R: twice the envelope tail beyond R, the root
      placement within the final brackets, and the rounding of the masses.
    * otherwise: the integrand is cut at every sign change of f so
      |f|^p is smooth on each panel, and adaptive GL16 panels run up to R;
      ``abs_error_bound`` is the panel estimate plus the certified tail.

    The bound is at most ``tol`` or :class:`ToleranceNotReached` is raised
    with the best estimate attached.
    """
    if p < 1.0:
        raise ValueError(f"norm order must be >= 1, got {p}")
    samples = min(int(max(513, 32 * (profile.degree_hint + 1) + 1)), 40001)

    def find_cuts(radius):
        return locate_sign_changes(profile.evaluator, (0.0, radius),
                                   max_roots=profile.degree_hint + 16,
                                   samples=samples, rel_floor=SIGN_SCAN_FLOOR)

    if p == 1.0 and profile.mass is not None:
        return _mass_l1(profile, tol, find_cuts)
    value, err, count, radius = _core_abs_pow(
        profile.evaluator, profile.decay, p, tol, find_cuts)
    return IntegralEstimate(value, err, count, radius)


def _aligned_frame(terms):
    """Deterministic principal-axis frame for a set of Gaussian terms."""
    total = sum((t.cov for t in terms), np.zeros((2, 2)))
    _, vecs = np.linalg.eigh(total)
    for j in range(2):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vecs


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


def _exact_rays_l1(amps, rates):
    """int_0^inf r |sum_i A_i exp(-k_i r^2)| dr for one or two terms.

    ``amps`` holds the A_i, ``rates`` one array of k_i per term (one entry
    per ray).  With F(R) = sum_i A_i (1 - exp(-k_i R^2)) / (2 k_i), a ray
    whose terms cancel at r0^2 = ln|A_1/A_2| / (k_1 - k_2) > 0 integrates
    to sgn(A_1 + A_2) (2 F(r0) - F(inf)); a ray without a cut to |F(inf)|.
    """
    whole = sum(a / (2.0 * k) for a, k in zip(amps, rates))
    if len(amps) == 1 or amps[0] * amps[1] > 0.0:
        return np.abs(whole)
    (a1, a2), (k1, k2) = amps, rates
    with np.errstate(divide="ignore", invalid="ignore"):
        r0sq = math.log(abs(a1 / a2)) / (k1 - k2)
    cut = (k1 != k2) & np.isfinite(r0sq) & (r0sq > 0.0)
    r0sq = np.where(cut, r0sq, 0.0)
    head = sum(a * -np.expm1(-k * r0sq) / (2.0 * k) for a, k in zip(amps, rates))
    return np.where(cut, math.copysign(1.0, a1 + a2) * (2.0 * head - whole),
                    np.abs(whole))


def integrate_plane_abs_pow(profile, p, tol):
    """int d^2z/pi |f(z)|^p for a one- or two-term signed-Gaussian profile.

    Polar quadrature about the common center in coordinates aligned with
    the principal axes of the summed covariances and scaled per axis; the
    angle is integrated by the adaptive panel scheme, all the angles of
    one GL16 rule in one call.  When every term shares the center the
    integrand is even and only [0, pi] is integrated.

    Along a ray each term is amp_i exp(g_i + b_i r - a_i r^2), so the sign
    change of a two-term profile is a root of a quadratic in r and is
    found in closed form; no sign scan runs.  Two routes, chosen by the
    input:

    * p = 1 with a shared center: b_i = 0, and every ray integral is
      exact, split where the terms cancel at
      r0^2 = ln|A_1/A_2| / (a_1 - a_2) with A_i = amp_i e^{g_i}; one NumPy
      expression covers all the angles of a rule.  ``subdivisions``
      counts the angular panels only and ``truncation_radius`` is inf,
      since no ray is truncated.
    * otherwise: each ray runs the radial core (certified truncation,
      adaptive GL16 panels with the closed-form cuts as edges).
      ``subdivisions`` counts angular and radial panels, and
      ``truncation_radius`` is the largest ray radius.

    On both routes the error budget is prefactor * (outer_err + phi_range
    * inner_tol), with inner_tol the tolerance granted to each ray.
    """
    if p < 1.0:
        raise ValueError(f"norm order must be >= 1, got {p}")
    terms = profile.terms
    center = sum((t.mean for t in terms), np.zeros(2)) / len(terms)
    frame = _aligned_frame(terms)
    covs_al = [frame.T @ t.cov @ frame for t in terms]
    s1 = math.sqrt(max(c[0, 0] for c in covs_al))
    s2 = math.sqrt(max(c[1, 1] for c in covs_al))
    offsets = [center - t.mean for t in terms]
    symmetric = all(np.linalg.norm(o) < 1e-13 for o in offsets)
    phi_range = math.pi if symmetric else 2.0 * math.pi
    prefactor = (2.0 if symmetric else 1.0) * s1 * s2 / math.pi

    inner_tol = tol / (4.0 * prefactor * phi_range)
    outer_budget = tol / (2.0 * prefactor)

    live = [(t.amp, np.linalg.inv(t.cov), off)
            for t, off in zip(terms, offsets) if t.amp != 0.0]
    amps = [amp for amp, _, _ in live]
    gs = [-0.5 * float(off @ inv @ off) for _, inv, off in live]
    slopes = [inv @ off for _, inv, off in live]
    logs = [math.log(abs(amp)) + g for amp, g in zip(amps, gs)]
    exact = p == 1.0 and symmetric
    peaks = [amp * math.exp(g) for amp, g in zip(amps, gs)]
    state = {"panels": 0, "radius": math.inf if exact else 0.0}

    def ray_panels(a_coef, b_coef):
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

        value, _, count, radius = _core_abs_pow(f, decay, p, 2.0 * inner_tol, find_cuts)
        state["panels"] += count
        state["radius"] = max(state["radius"], radius)
        return 0.5 * value

    def outer(phis):
        phis = np.atleast_1d(phis)
        if not live:
            return np.zeros(len(phis))
        dirs = frame @ np.array([s1 * np.cos(phis), s2 * np.sin(phis)])
        a_rays = [0.5 * np.einsum("in,ij,jn->n", dirs, inv, dirs) for _, inv, _ in live]
        # a covariance too ill-conditioned for double precision can invert
        # to a form that is not positive along some ray
        if not all(np.all(a > 0.0) for a in a_rays):
            raise ValueError("a profile term does not decay along every ray")
        if exact:
            return _exact_rays_l1(peaks, a_rays)
        b_rays = [-(slope @ dirs) for slope in slopes]
        return np.array([ray_panels([float(a[j]) for a in a_rays],
                                    [float(b[j]) for b in b_rays])
                         for j in range(len(phis))])

    try:
        outer_val, outer_err, outer_count = _adaptive_panels(
            outer, [0.0, phi_range], outer_budget, MAX_OUTER)
    except ToleranceNotReached as exc:
        est = exc.estimate
        raise ToleranceNotReached(
            str(exc),
            IntegralEstimate(prefactor * est.value,
                             prefactor * (est.abs_error_bound + phi_range * inner_tol),
                             est.subdivisions + state["panels"],
                             state["radius"])) from None
    value = prefactor * outer_val
    err = prefactor * (outer_err + phi_range * inner_tol)
    return IntegralEstimate(value, err, outer_count + state["panels"], state["radius"])
