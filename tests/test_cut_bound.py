"""The exact route's cut bound: past it the searched truncation g keeps one sign.

``sign_search`` gives each signal a cut bound, a radius past which no cut
of g lies; ``radial_l1`` ends its scan a few steps past it instead of at
the reach.  These tests check the bound three ways (its closed form, a
fine grid in floating point and a 30-digit sign check) and that ending
the scan there leaves every output bit of the exact route as it was.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasenorm.fock
from phasenorm import (CG, Amplifier, Attenuator, ChannelSpec, FockDiagonalState, make_mixture,
                       make_thermal_fock, number_state)
from phasenorm.fock import (LEADING_SHARE, leading_cutoff, radial_l1, sign_search,
                            wigner_s_fock)
from phasenorm.quadrature import (SIGN_SCAN_FLOOR, WINDOW, RootBudgetExceeded,
                                  ToleranceNotReached, scan_nodes, tail_radius)

TOL = 1e-6


def dirichlet_mixture(cutoff, seed):
    return make_mixture(np.random.default_rng(seed).dirichlet(np.ones(cutoff + 1)))


STATES = st.one_of(
    st.builds(number_state, st.integers(0, 60)),
    st.builds(make_thermal_fock, st.floats(0.05, 3.0), st.integers(1, 60)),
    st.builds(dirichlet_mixture, st.integers(1, 60), st.integers(0, 2**32 - 1)))
ORDERINGS = st.one_of(st.floats(-1.5, 0.0), st.sampled_from([-1.0, -0.999999, -1.5]))
CHANNELS = st.one_of(
    st.none(), st.just(CG),
    st.builds(lambda t: CG.then(ChannelSpec((Attenuator(t),))), st.floats(0.05, 1.0)),
    st.builds(lambda g: ChannelSpec((Amplifier(g),)), st.floats(1.0, 4.0)))


def signal_terms(s, channel):
    """The (s_i, k_i) of W^(s), or of W^(s) - W^(s)_C given a channel."""
    if channel is None:
        return ((s, 1.0),)
    k, y, _, _ = channel.fold()
    return ((s, 1.0), ((s - 4.0 * y) / k, k))


def search_of(state, terms, tol=TOL):
    return sign_search(state, terms, leading_cutoff(state, [o for o, _ in terms],
                                                    LEADING_SHARE * tol))


def searched_g(state, search, r):
    """g on the leading weights, its near-cancelling values zeroed as the scan does."""
    weights = search.weights
    head = FockDiagonalState(weights, max(1.0 - float(weights.sum()), 0.0))
    rows = [wigner_s_fock(head, s, r / math.sqrt(k)) / k for s, k in search.terms]
    if len(rows) == 1:
        return rows[0]
    diff = rows[0] - rows[1]
    return np.where(np.abs(diff) > SIGN_SCAN_FLOOR * (np.abs(rows[0]) + np.abs(rows[1])),
                    diff, 0.0)


# ------------------------------------------------------------ closed form

@pytest.mark.parametrize("n", [0, 1, 5, 40, 200])
def test_cg_at_s0_closed_form(n):
    # beta = 2 and 2/3, tau = -1 and 1/3: x* (2 - 2/3) = ln 3 + N ln 9
    search = sign_search(number_state(n), ((0.0, 1.0), (-2.0, 1.0)), n)
    assert search.cut_bound == pytest.approx(math.sqrt(0.75 * (math.log(3) + n * math.log(9))),
                                             rel=1e-14)


def test_cg_bound_of_number_state_40():
    # |40>'s last cut under C_g lies at 6.59, the bound at 8.17, its reach at 13.26
    search = search_of(number_state(40), signal_terms(0.0, CG))
    assert search.cut_bound == pytest.approx(8.17, abs=0.005)
    assert search.reach(TOL) == pytest.approx(13.26, abs=0.005)


@pytest.mark.parametrize("s", [-1.5, -1.0, -0.5, 0.0])
def test_one_term_bound_lies_past_the_peak(s):
    # rho_t^2 + N (1 - s)/2: the sign radius widened to where W^(s) falls
    search = sign_search(number_state(7), ((s, 1.0),), 7)
    assert search.cut_bound == pytest.approx(math.sqrt(search.sign_radius**2 + 3.5 * (1.0 - s)),
                                             rel=1e-14)
    assert search.cut_bound > search.sign_radius


@pytest.mark.parametrize("channel", [ChannelSpec((Attenuator(0.5),)),
                                     ChannelSpec((Amplifier(2.0),)), ChannelSpec(())],
                         ids=["attenuator", "amplifier", "identity"])
def test_no_bound_where_the_output_term_can_change_sign(channel):
    # at s = 0 these output terms have s' >= -1, so coefficients of both signs
    assert sign_search(number_state(7), signal_terms(0.0, channel), 7).cut_bound == math.inf


# ---------------------------------------------------- floating-point grid

@settings(max_examples=60, deadline=None, derandomize=True)
@given(STATES, ORDERINGS, CHANNELS)
def test_no_sign_change_past_the_bound_up_to_the_reach(state, s, channel):
    # g on a grid 20 times finer than the scan's, from the cut bound out to
    # the old scan radius, changes sign nowhere above the floor of the scan
    search = search_of(state, signal_terms(s, channel))
    envelope, _ = tail_radius(search.decay, 1.0, 0.1 * TOL)
    reach = min(search.reach(TOL), envelope)
    if not search.cut_bound < reach:
        return
    step = envelope / (scan_nodes(search.degree) - 1)
    scanned = np.arange(0.0, min(reach, search.cut_bound + WINDOW * step) + step, step)
    floor = SIGN_SCAN_FLOOR * np.abs(searched_g(state, search, scanned)).max()
    g = searched_g(state, search, np.arange(search.cut_bound, reach + step, step / 20.0))
    live = g[np.abs(g) > floor]
    if len(search.terms) == 2:  # past the bound the output term dominates
        assert np.all(live < 0.0)
    else:  # a lone term is positive and falls, so the scan sees its largest value
        assert np.all(live > 0.0) and g.max() <= g[0] * (1.0 + 1e-12)
    # and no node zeroed as rounding that the scan would merge in as a cut
    assert not np.any((g[1:-1] == 0.0) & (np.maximum(np.abs(g[:-2]), np.abs(g[2:])) > floor))


# ------------------------------------------------------- 30-digit check

def mp_searched_g(weights, terms, r):
    """g at radius r at 30 digits: W_n^(s) = beta tau^n e^(-beta x) L_n(4x / (1 - s^2))
    in x = r^2 / k, with mpmath's L_n (s != -1)."""
    with mp.workdps(30):
        total = mp.mpf(0)
        for sign, (s, k) in zip((1, -1), terms):
            s, x = mp.mpf(s), mp.mpf(r) ** 2 / k
            beta, tau = 2 / (1 - s), (s + 1) / (s - 1)
            acc = mp.fsum(mp.mpf(p) * tau**n * mp.laguerre(n, 0, 4 * x / (1 - s**2))
                          for n, p in enumerate(weights))
            total += sign * beta * mp.exp(-beta * x) * acc / k
        return total


@pytest.mark.parametrize("s", [0.0, -0.5, -1.5])
@pytest.mark.parametrize("state", [number_state(40), make_thermal_fock(2.0, 60)],
                         ids=["number40", "thermal"])
def test_g_is_negative_just_past_the_bound(state, s):
    terms = signal_terms(s, CG)
    search = search_of(state, terms)
    bound = search.cut_bound
    assert math.isfinite(bound)
    for r in bound * (1.0 + np.array([1e-9, 1e-6, 1e-3, 0.05, 0.3])):
        assert mp_searched_g(search.weights, terms, r) < 0


# ------------------------------------------------------------ bit identity

def outcome(state, signals, tols):
    """radial_l1's estimates as float.hex strings, or what it raised."""
    try:
        found = radial_l1(state, signals, tols)
    except (ToleranceNotReached, RootBudgetExceeded) as exc:
        return type(exc).__name__, str(exc)
    return [(est.value.hex(), est.abs_error_bound.hex(), est.subdivisions) for est in found]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(STATES, ORDERINGS, CHANNELS, st.booleans(), st.sampled_from([1e-4, 1e-6, 1e-9]))
# lone terms whose largest value lies past the sign radius, and a cut within
# one scan step of the origin: a scan cut at the sign radius moved their bits
@example(number_state(40), -0.5, None, False, 1e-6)
@example(number_state(20), -0.9, None, False, 1e-6)
@example(number_state(1), -0.999999, None, False, 1e-6)
@example(number_state(40), 0.0, CG, True, 1e-6)
def test_the_bound_leaves_every_bit(state, s, channel, witness, tol):
    # the scan ended just past the cut bound finds, bit for bit, what the
    # scan run out to the reach (a bound of inf) finds
    signals, tols = ((s, channel),), (tol,)
    if witness:  # the witness riding in the norm's passes, as in measure_m
        signals, tols = signals + ((0.0, None),), (tol, min(tol, TOL))
    bounded = outcome(state, signals, tols)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phasenorm.fock, "sign_search", lambda *args: (
            sign_search(*args)._replace(cut_bound=math.inf)))
        assert outcome(state, signals, tols) == bounded
