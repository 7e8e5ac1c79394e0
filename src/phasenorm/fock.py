"""Truncated photon-number-diagonal states and their exact channel laws.

Both channels act through one binomial law b(k; n, p) = C(n, k) p^k
(1-p)^{n-k}, built in log space so no photon number or gain overflows it:
the attenuator through P(m|n) = b(m; n, t) (each photon survives with
probability t), the quantum-limited amplifier through P(m|n) = b(n; m,
1/g)/g = C(m, n) (1/g)^{n+1} (1-1/g)^{m-n}, m >= n.  The test suite
validates both against the Gaussian covariance engine and the
ordering-shift identity of the classicalization channel (its output
Wigner function is the input W^(s-2)).  :func:`radial_profile` and
:func:`radial_l1` apply a channel through that identity, the latter the
exact p = 1 route of the quantifier's integrals; the laws serve the Kraus
branches and the oracles.

Amplification grows the cutoff; the mass beyond it is bounded exactly
from the matrix's column sums and carried in ``tail_mass_bound``, never
dropped.  Every s-ordered Wigner value of a number state is bounded by 2,
so a tail bound of 1e-10 perturbs any Wigner function by at most 2e-10.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import backend, quadrature
from .channels import Amplifier, Attenuator
from .quadrature import EPS, SIGN_SCAN_FLOOR, IntegralEstimate, RadialProfile, tail_radius

MASS_EPS = 1e-12        # invariant slack on sum(weights) + tail == 1
USER_NORM_EPS = 1e-9    # acceptance slack for user-supplied weights
TAIL_BOUND_MAX = 1e-10  # certified truncation mass per channel application
# dropped-weight bound per unit tol on the exact p = 1 route: err gains
# four times it (see radial_l1), so at most tol/10
LEADING_SHARE = 0.025


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

def _tau(s):
    """tau = (s + 1)/(s - 1) of an ordering s, which must be finite and < 1."""
    if not -math.inf < s < 1.0:
        raise ValueError(f"ordering parameter must be finite and < 1, got {s}")
    return (s + 1.0) / (s - 1.0)


def _wigner_terms(weights, terms, radius):
    """Rows sum_m w_i[m] W_m^(s_i)(radius / sqrt k_i), one per term (s_i, k_i).

    One kernel pass for every term: ``weights`` is one vector w_i = w for
    all of them or one column w_i per term, and ``radius`` a 1-D array.
    """
    tau = [_tau(s) for s, _ in terms]
    u, pref = np.empty((2, len(terms), len(radius)))
    scaled = {}  # terms of one k share -4 rho^2 and -2 rho^2
    for (s, k), u_i, pref_i in zip(terms, u, pref):
        if k not in scaled:
            rho2 = (radius if k == 1.0 else radius / math.sqrt(k)) ** 2
            scaled[k] = -4.0 * rho2, -2.0 * rho2
        np.divide(scaled[k][0], (1.0 - s) ** 2, u_i)
        np.exp(np.divide(scaled[k][1], 1.0 - s, pref_i), pref_i)
        np.multiply(2.0 / (1.0 - s), pref_i, pref_i)
    return backend.wigner_series(weights, tau, u.reshape(-1), pref.reshape(-1)).reshape(u.shape)


def _masses_outside(weights, terms, radius):
    """Rows T_{s_i}(radius / sqrt k_i), one per term, in one kernel pass.

    See :func:`wigner_mass_outside`; each term's row takes its own weight
    column P_m - tau_i P_{m+1}.
    """
    upper = np.add.accumulate(weights[::-1])[::-1]
    taus = np.array([_tau(s) for s, _ in terms])
    columns = upper[:, None] - taus * np.concatenate((upper[1:], [0.0]))[:, None]
    rows = _wigner_terms(columns, terms, radius)
    return np.divide(rows, [[2.0 / (1.0 - s)] for s, _ in terms], rows)


def wigner_s_fock(state, s, radius):
    """s-ordered Wigner function at radius |alpha|, s < 1.

    W_n^(s) = (2/(1-s)) ((s+1)/(s-1))^n e^{-2 rho^2/(1-s)} L_n(4 rho^2/(1-s^2)),
    summed with the state's weights.  Evaluated by the bounded three-term
    recurrence of :func:`phasenorm.backend.wigner_series` (stable at any
    cutoff; the s = -1 Husimi limit is regular in this parametrization).
    """
    rho = np.asarray(radius, dtype=float)
    out = _wigner_terms(state.weights, ((s, 1.0),), rho.reshape(-1))[0]
    return float(out[0]) if rho.ndim == 0 else out.reshape(rho.shape)


def wigner_mass_outside(state, s, radius):
    """T_s(r) = int_{|alpha| > r} W^(s) d^2alpha/pi, the mass outside radius r.

    With x = r^2, beta = 2/(1-s), tau = (s+1)/(s-1) and h_n = W_n^(s),
    int_x^inf h_n dx' = (1/beta) sum_{m<=n} (h_m(x) - tau h_{m-1}(x)), which
    follows from L_n' - L_{n-1}' = -L_{n-1} (DLMF 18.9).  Summed over the
    state it is one kernel call with the weights w'_m = P_m - tau P_{m+1},
    where P_m = sum_{n>=m} p_n, divided by beta; the exact p = 1 route
    passes each of its terms such a weight column, all in one call.
    """
    rho = np.asarray(radius, dtype=float)
    out = _masses_outside(state.weights, ((s, 1.0),), rho.reshape(-1))[0]
    return float(out[0]) if rho.ndim == 0 else out.reshape(rho.shape)


def term_l1_bound(s, n):
    """B_s(n) >= int |W_n^(s)| d^2alpha/pi for s <= 0; n may be an array.

    Inside rho_t = sqrt((n + 3/4)(1 - s^2)) |W_n^(s)| <= 2, and outside it
    W_n^(s) >= 0 with mass at most 1 + 2 rho_t^2 (Szego 6.31), so B_s(n) =
    1 + 4 rho_t^2; for s <= -1 every W_n^(s) >= 0 and B_s(n) = 1.
    """
    return 1.0 + 4.0 * (n + 0.75) * max(1.0 - s * s, 0.0)


def leading_cutoff(state, orderings, budget):
    """Smallest N_eff with sum_{n > N_eff} p_n sum_s B_s(n) <= budget.

    The sum runs over the ``orderings`` s <= 0 in play (see
    :func:`term_l1_bound`); an ordering s > 0 keeps every weight.  The
    cutoff itself is returned, with scalar work only, when the top weight
    alone exceeds the budget.
    """
    top = len(state.weights) - 1
    bound = 0.0
    for s in orderings:
        if s > 0.0:
            return top
        bound += term_l1_bound(s, top)
    if float(state.weights[top]) * bound > budget:
        return top
    n = np.arange(top + 1)
    bounds = state.weights * sum(term_l1_bound(s, n) for s in orderings)
    # tail[m] = sum_{n >= m}, nonincreasing in m and within budget at m = top
    tail = np.cumsum(bounds[::-1])[::-1]
    return max(int(np.argmax(tail <= budget)) - 1, 0)


SignSearch = namedtuple("SignSearch",
                        "terms weights decay degree reach sign_radius dropped mass_degree")


def sign_search(state, terms, lead):
    """What the cut search of the exact route sees: f on p_0..p_lead.

    ``terms`` holds one (s_i, k_i) per term f_i(rho) = +-W^(s_i)(rho /
    sqrt k_i) / k_i of f, the first taken with + and a second with -;
    ``weights`` holds p_0..p_lead.  Every zero of L_n lies below 4n + 2
    (Szego, Orthogonal Polynomials, 6.31), so for s > -1 each W_n^(s),
    n <= N, is positive beyond rho_t = sqrt((N + 3/4)(1 - s^2)); for s <=
    -1 it is positive everywhere.  The ``sign_radius`` is the largest
    sqrt k_i rho_t and ``reach(tol)`` the largest sqrt k_i (max(rho_t,
    sqrt((N + 1)(1 - s_i)/2)) + sqrt((1 - s_i)/2 ln(1 + 10/tol)) + 1/2),
    where the Gaussian factor has fallen to about tol/10.  The ``decay``
    envelope uses |sum_n p_n tau^n L_n| <= (1 + |u|)^N and splits off half
    the exponential rate to absorb the polynomial factor, all in log
    space.  All of these take N = ``lead``, as does the scan ``degree``;
    the ``mass_degree`` of the masses, which keep every weight, takes the
    cutoff.  ``dropped`` = (l1, sup) bounds the rest: sum_i sum_{n > lead}
    p_n B_{s_i}(n) >= int |f - g| and sum_i 2 sum_{n > lead} p_n / k_i >=
    max |f - g|, since every |W_n^(s)| <= 2 for s <= 0.
    """
    top, n = state.cutoff, lead
    decay, radii, reaches = [], [], []
    for s, k in terms:
        _tau(s)
        root = math.sqrt(k)
        rho_t = math.sqrt((n + 0.75) * max(1.0 - s * s, 0.0))
        log_a, rate = math.log(2.0 / (1.0 - s)), 2.0 / (1.0 - s)
        if n:
            a, rate = 4.0 / (1.0 - s) ** 2, rate / 2.0
            if n * a > rate:
                log_a += n * math.log(n * a / rate) - (n * a - rate) / a
        decay.append((log_a - math.log(k), rate / k))
        radii.append(root * rho_t)
        reaches.append((root, max(math.sqrt((n + 1) * (1.0 - s) / 2.0), rho_t), (1 - s) / 2))
    if len(terms) == 1:
        degree, mass_degree = n, top
    else:
        degree, mass_degree = 2 * n + 2, 2 * top + 2
    dropped = (0.0, 0.0)
    if n < top:
        rest, above = state.weights[n + 1:], np.arange(n + 1, top + 1)
        dropped = (sum(float(rest @ term_l1_bound(s, above)) for s, _ in terms),
                   sum(2.0 * float(rest.sum()) / k for _, k in terms))
    return SignSearch(
        tuple(terms), state.weights[:n + 1], tuple(decay), degree,
        lambda t: max(root * (bulk + math.sqrt(half * math.log1p(10 / t)) + 0.5)
                      for root, bulk, half in reaches),
        max(radii), dropped, mass_degree)


def _signal(terms, rows):
    """f of one signal from its terms' rows: the row, or the difference."""
    if len(rows) == 1:
        return rows[0]
    # zero below the terms' rounding, or a state the channel fixes
    # (the vacuum under loss) floods the sign scan with noise flips
    w_in, w_out = rows[0], rows[1] / terms[1][1]
    noise = SIGN_SCAN_FLOOR * (np.abs(w_in) + np.abs(w_out))
    diff = w_in - w_out
    return np.where(np.abs(diff) > noise, diff, 0.0)


def _search_evaluator(searches):
    """r -> one row of f per search, every term of them in one kernel pass.

    A term that several signals evaluate on the same weights is one row
    of the pass.  When the weights differ each row takes its own column,
    zero past its signal's lead, and keeps, bit for bit, the values of
    its weights alone.
    """
    keys = list(dict.fromkeys((term, len(search.weights))
                              for search in searches for term in search.terms))
    longest = max((search.weights for search in searches), key=len)
    weights = longest
    if any(size < len(longest) for _, size in keys):
        weights = np.zeros((len(longest), len(keys)))
        for j, (_, size) in enumerate(keys):
            weights[:size, j] = longest[:size]
    terms = [term for term, _ in keys]
    picks = [[keys.index((term, len(search.weights))) for term in search.terms]
             for search in searches]

    def evaluator(r):
        rows = _wigner_terms(weights, terms, r)
        return np.array([_signal(search.terms, [rows[j] for j in pick])
                         for search, pick in zip(searches, picks)])

    return evaluator


def _signal_terms(s, channel):
    """The (s_i, k_i) of W^(s), or of W^(s)_rho - W^(s)_C(rho) given a channel."""
    terms = ((s, 1.0),)
    if channel is not None:
        k, y, _, d = channel.fold()
        if d != 0:
            raise UnsupportedInputError("displacement breaks photon-number diagonality")
        terms += (((s - 4.0 * y) / k, k),)
    return terms


def radial_profile(state, s, channel=None):
    """RadialProfile of W^(s), or of W^(s)_rho - W^(s)_C(rho) given a ``channel``.

    The channel acts as an ordering shift: W^(s) of the output is
    W^(s')(rho / sqrt k) / k of the input with s' = (s - 4y)/k from its
    fold (for C_g the shift s -> s - 2); theta drops out, since a diagonal
    state is rotation invariant, and a displacement is rejected.  The
    evaluator, decay and degree_hint keep every weight and serve the panel
    route (p != 1); p = 1 takes :func:`radial_l1`.
    """
    full = sign_search(state, _signal_terms(s, channel), state.cutoff)
    return RadialProfile(lambda r: _signal(full.terms, _wigner_terms(full.weights, full.terms, r)),
                         full.decay, full.degree)


def _signal_masses(state, searches, points):
    """Each search's signed rows T_{s_i}(r / sqrt k_i) at its own points, in one pass."""
    terms = list(dict.fromkeys(term for search in searches for term in search.terms))
    masses = _masses_outside(state.weights, terms, np.concatenate(points))
    signs = np.array([[1.0], [-1.0]])
    rows, start = [], 0
    for search, at in zip(searches, points):
        cols = slice(start, start + len(at))
        start = cols.stop
        pick = [terms.index(term) for term in search.terms]
        rows.append(signs[:len(pick)] * masses[pick, cols])
    return rows


def radial_l1(state, signals, tols):
    """int d^2alpha/pi |f| for each signal f, the exact p = 1 route: one checked estimate each.

    ``signals`` holds (s, channel) pairs, each f = W^(s), or W^(s)_rho -
    W^(s)_C(rho) given a channel, built as in :func:`radial_profile`;
    ``tols`` is a tuple of one tolerance per signal, each finite and > 0
    (else ValueError).  Every evaluation of the signals and every mass pass
    takes all their terms in one call.  A term two signals share is one
    row of the mass pass, and of the search pass when their leading
    cutoffs agree (W^(0) of the norm at s = 0 is the witness).

    For each signal f, the integral of |f| is sum_i |T(c_i) - T(c_{i+1})|
    over its sign cuts 0 = c_0 < c_i < inf, with T the summed
    :func:`wigner_mass_outside` of its terms; no panel runs.  Per signal,
    with its own tol:

    * The cuts are searched on the leading weights p_0..p_N_eff
      (:func:`leading_cutoff` with budget LEADING_SHARE tol over its
      orderings, :func:`sign_search`), while the masses keep every
      weight.
    * The scan stops at its ``reach``, where every term is of one sign,
      so the terms' masses there bound the tail; a tail above tol/10
      widens its scan to its envelope radius, where the smaller of the
      masses (if past the sign radius) and the envelope's bound is
      taken.  All signals share one scan, on the first signal's grid
      over its envelope radius (see
      :func:`~phasenorm.quadrature.locate_sign_changes`), each cut at its
      own radius.  A signal whose radius lies past that bracket is left
      to a later round, so no scan runs past its grid's end; a widened
      scan runs on the grid of the first signal that widens.
    * ``abs_error_bound`` is twice the tail beyond the scan, plus the
      root placement, :func:`~phasenorm.quadrature.placement_terms` 4 b w
      (h + sup) per cut (b the right end of its final bracket, w that
      bracket's width, h the larger |g| at its ends, with g the searched
      truncation of f, and sup the dropped terms' sup), plus
      the rounding of the masses, 2 eps (mass_degree + 1) max(1, |T|)
      per mass, plus four times the dropped terms' l1, at most tol/10:
      on a mass interval where g keeps one sign, int |f| - |int f| <= 2
      int |f - g|, and past the scan the dropped terms need not be of
      one sign.
    * A cut's bracket closes at width 1e-12 or once its placement term
      is at most 2 eps (mass_degree + 1), the least rounding charged per
      mass, so the placement adds to ``err`` at most what the rounding
      already charges.  The value, the masses' differences at the right
      ends of those brackets, is a lower estimate, in practice exact to
      rounding, and ``subdivisions`` counts the mass intervals.

    The bound is certified given a complete scan: two cuts within one
    scan step go unseen.  A signal's cuts, value and bound do not depend
    on the other signals, except through the grid.  Each estimate is
    checked against its tol in order, and the first above it raises
    :class:`~phasenorm.quadrature.ToleranceNotReached` with it attached.
    """
    signals = [_signal_terms(s, channel) for s, channel in signals]
    if not (isinstance(tols, tuple) and len(tols) == len(signals)):
        raise ValueError(f"need a tuple of one finite tol > 0 per signal, got {tols!r}")
    tols = tuple(map(quadrature.checked_tol, tols))
    searches = [sign_search(state, terms, leading_cutoff(
        state, [o for o, _ in terms], LEADING_SHARE * tol)) for terms, tol in zip(signals, tols)]
    envelopes = [tail_radius(search.decay, 1.0, tol * 0.1)
                 for search, tol in zip(searches, tols)]
    radii = [min(search.reach(tol), envelope)
             for search, tol, (envelope, _) in zip(searches, tols, envelopes)]
    found = [None] * len(searches)
    pending = list(range(len(searches)))
    while pending:
        # a signal whose scan radius lies past the first one's envelope
        # radius, the scan's bracket, is left to a later round
        later = [i for i in pending if radii[i] > envelopes[pending[0]][0]]
        pending = [i for i in pending if i not in later]
        group = [searches[i] for i in pending]
        # a bracket closes once its placement term is within one mass's rounding
        every = quadrature.locate_sign_changes(
            _search_evaluator(group), (0.0, envelopes[pending[0]][0]),
            [search.degree for search in group], stop=np.array([radii[i] for i in pending]),
            close=([2.0 * EPS * (search.mass_degree + 1) for search in group],
                   [search.dropped[1] for search in group]))
        # one mass pass gives T at every signal's cuts and, per term, at its scan radius
        points = [np.concatenate(([0.0], c, [radii[i]])) for (c, _, _), i in zip(every, pending)]
        masses = _signal_masses(state, group, points)
        widened = []
        for i, search, (cuts, *brackets), rows in zip(pending, group, every, masses):
            tol, (envelope, envelope_tail), radius = tols[i], envelopes[i], radii[i]
            tail = float(abs(rows[:, -1]).sum()) if radius >= search.sign_radius else math.inf
            if tail > 0.1 * tol and radius < envelope:
                radii[i] = envelope
                widened.append(i)
                continue
            if radius == envelope:
                tail = min(tail, envelope_tail)
            mass = np.add.reduce(rows, axis=0)
            mass[-1] = 0.0  # T at infinity in place of T at the scan radius
            value = float(np.add.reduce(np.abs(mass[1:] - mass[:-1])))
            # moving a cut inside its bracket changes the two masses beside it by
            # at most the integral of 2r |f| over the bracket, and |f| <= |g| + sup
            l1, sup = search.dropped
            placement = float(np.add.reduce(quadrature.placement_terms(cuts, *brackets, sup)))
            rounding = (2.0 * EPS * (search.mass_degree + 1) * (len(cuts) + 2)
                        * max(1.0, float(np.maximum.reduce(np.abs(rows), axis=None))))
            found[i] = IntegralEstimate(
                value, 2.0 * (tail + l1) + 2.0 * l1 + placement + rounding, len(cuts) + 1)
        pending = widened + later
    return tuple(quadrature.checked(est, tol) for est, tol in zip(found, tols))


# ---------------------------------------------------------------- channels

def _binomial_law(n_max, m_max, p, q):
    """Matrix L[m, n] = b(n; m, p) = C(m, n) p^n q^(m-n), m >= n (else 0), q = 1 - p.

    The attenuator's B[m, n] = b(m; n, t) is L.T at (t, 1 - t), the amplifier's
    A[m, n] = b(n; m, 1/g)/g is L/g at (1/g, (g - 1)/g).  Built in log space in
    Loader's saddle-point form (2000): with d = n - m p and h(k) = ln(k!/k^k) +
    k (its Stirling series past k = 15), ln b = h(m) - h(n) - h(m-n) - n ln(1 +
    d/(m p)) - (m-n) ln(1 - d/(m q)).  No large logarithms cancel: entries keep
    1e-12 of their value up to m ~ 1e4, where differences of ln k! lose 4e-11,
    and row m = 1e4 sums to 1 within 1e-15.  It holds (m_max + 1)(n_max + 1)
    doubles: about 2 MB at the package's cutoffs (<= 250), 22 MB for |1100>
    amplified at g = 2 and, as the attenuator's (N + 1)^2, 72 MB at N = 3000.
    """
    k = np.arange(1.0, m_max + 1.0)
    inv = 1.0 / (k * k)
    h = np.append(0.0, 0.5 * np.log(2.0 * math.pi * k) + (1 / 12 - inv * (
        1 / 360 - inv * (1 / 1260 - inv * (1 / 1680 - inv / 1188)))) / k)
    h[1:16] = [math.log(math.factorial(j) / j ** j) + j for j in range(1, min(m_max, 15) + 1)]
    m, n = np.ogrid[:m_max + 1, :n_max + 1]
    # ln b term by term in one buffer and one scratch: |m - n| = m - n where m >= n,
    # the entries m < n, n = 0 and m = n are set below, and -d / (m q) is d / (m (-q))
    rest, log_b = np.abs(m - n), h[m] - h[n]
    scratch = np.take(h, rest)
    log_b -= scratch
    with np.errstate(divide="ignore", invalid="ignore"):
        for scale, factor in ((m * p, n), (m * -q, rest)):
            np.divide(np.subtract(n, m * p, out=scratch), scale, out=scratch)
            log_b -= np.multiply(np.log1p(scratch, out=scratch), factor, out=scratch)
    np.fill_diagonal(log_b, np.arange(n_max + 1) * math.log(p))
    log_b[:, 0] = m[:, 0] * math.log(q)
    log_b[m < n] = -math.inf
    return np.exp(log_b, out=log_b)


def attenuate_fock(state, transmittivity):
    """Quantum-limited attenuator on a diagonal state; cutoff unchanged."""
    if not 0.0 < transmittivity <= 1.0:
        raise ValueError(f"transmittivity must be in (0, 1], got {transmittivity}")
    if transmittivity == 1.0:
        return state
    B = _binomial_law(state.cutoff, state.cutoff, transmittivity, 1.0 - transmittivity).T
    return FockDiagonalState(B @ state.weights, state.tail_mass_bound)


def amplify_fock(state, gain):
    """Quantum-limited amplifier; output cutoff ceil(gain*(N+1)) + margin.

    The margin is the smallest certifying truncated mass <= 1e-10: a trial
    margin from the ceiling (at least 16) of the weights' reach g (n + 1) +
    1.25 sqrt(2 ln(p_n / 1e-10)) sigma_n past the base, sigma_n^2 = g (g -
    1) (n + 1), doubled while at most 2^20, sizes :func:`_binomial_law`,
    whose row cumsum gives the truncated mass sum_n p_n (1 - CDF_n(M)) at
    every cutoff M; the first M >= the base that certifies is taken.
    """
    if not 1.0 <= gain < math.inf:
        raise ValueError(f"gain must be finite and >= 1, got {gain}")
    if gain == 1.0:
        return state
    base = gain * (state.cutoff + 1)
    n = np.arange(1.0, state.cutoff + 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or nan
        spread = 1.25 * np.sqrt(2.0 * gain * (gain - 1.0) * n * np.log(
            np.maximum(state.weights, TAIL_BOUND_MAX) / TAIL_BOUND_MAX))
        reach = (spread + gain * n - np.ceil(base)).max()
    if not reach <= 1 << 20:  # past the largest trial: no matrix is built
        raise RuntimeError("amplifier tail does not certify; gain too large?")
    base, trial = math.ceil(base), max(16, math.ceil(reach))
    while trial <= 1 << 20:
        A = _binomial_law(state.cutoff, base + trial, 1.0 / gain, (gain - 1.0) / gain)
        np.multiply(A, 1.0 / gain, out=A)
        mass = np.cumsum(A, axis=0)  # 1 - mass floored at 0 in place: one full-size copy
        truncated = np.maximum(np.subtract(1.0, mass, out=mass), 0.0, out=mass) @ state.weights
        fits = np.flatnonzero(truncated[base:] <= TAIL_BOUND_MAX)
        if len(fits):
            cut = base + int(fits[0])
            return FockDiagonalState(A[:cut + 1] @ state.weights,
                                     state.tail_mass_bound + float(truncated[cut]))
        trial *= 2
    raise RuntimeError("amplifier tail does not certify; gain too large?")


def apply_channel_fock(state, channel):
    """Apply a :class:`ChannelSpec` to a diagonal state.

    Loss and gain scale a displacement and a rotation turns it, so the
    chain is its attenuators and amplifiers, then a rotation (the identity
    on a diagonal state), then the net displacement d of the fold, which
    is rejected unless zero: it would break diagonality.
    """
    if channel.fold()[3] != 0:
        raise UnsupportedInputError("displacement breaks photon-number diagonality")
    for el in channel.elements:
        if isinstance(el, Attenuator):
            state = attenuate_fock(state, el.transmittivity)
        elif isinstance(el, Amplifier):
            state = amplify_fock(state, el.gain)
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
    # diagonal k of B p holds p_{m+k} B[m, m+k], m = 0..N-k
    B = _binomial_law(state.cutoff, state.cutoff, transmittivity, 1.0 - transmittivity).T
    weighted = B * state.weights
    branches = []
    for k in range(state.cutoff + 1):
        w = np.diagonal(weighted, k)
        pk = float(w.sum())
        if pk <= 0.0:
            continue
        branches.append((pk, FockDiagonalState(w / pk)))
    return branches


def mix_states(states, weights):
    """Convex combination of diagonal states, one weight each (else ValueError)."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > USER_NORM_EPS:
        raise ValueError("mixture weights must be a probability vector")
    weights = weights / weights.sum()
    n_max = max(s.cutoff for s in states)
    w = np.zeros(n_max + 1)
    tail = 0.0
    for lam, s in zip(weights, states, strict=True):
        w[: len(s.weights)] += lam * s.weights
        tail += lam * s.tail_mass_bound
    return FockDiagonalState(w, tail)
