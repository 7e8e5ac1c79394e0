"""The Fock p = 1 route in few kernel passes.

Each pass is one call of ``backend.wigner_series`` (one Laguerre
recurrence over the cutoff), whatever the number of points or terms: the
sign scan, each refinement round of all brackets at once, and the mass
pass, each for every term at once.  ``measure_m`` on a Fock state runs
the norm's difference and the Wigner-negativity witness as two signals
of one route, so both orderings of the norm and the witness's W^(0)
share every pass.
"""

import numpy as np
import pytest

import phasenorm.backend
from phasenorm import CG, make_mixture, make_thermal_fock, measure_m, number_state, quadrature
from phasenorm.cli import sample_triplets


@pytest.mark.parametrize("state,most", [(number_state(40), 5), (number_state(2), 5),
                                        (make_thermal_fock(0.5, 120), 5)],
                         ids=["number40", "number2", "thermal"])
def test_measure_m_kernel_passes(state, most, monkeypatch):
    # one scan, at most three ladder rounds and one mass pass for the norm
    # and the witness together: at most 5 passes for each state (3 now, see
    # test_measure_m_runs_three_passes).  A route of its own for
    # the witness took 10, 10 and 7, one recurrence per ordering 15, 15
    # and 12, and one refinement point per bracket and round 31 and 25 for
    # the number states
    passes = []
    series = phasenorm.backend.wigner_series

    def counted(*args):
        passes.append(1)
        return series(*args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    measure_m(state, CG, tol=1e-6)
    assert len(passes) <= most


@pytest.mark.parametrize("state", [number_state(40), make_thermal_fock(0.5, 120),
                                   make_mixture([0.3, 0.3, 0.4])],
                         ids=["number40", "thermal", "mixture"])
def test_measure_m_runs_three_passes(state, monkeypatch):
    # the scan, one ladder round and the mass pass.  The first round's
    # points come from the interpolant of 8 scan nodes around each bracket,
    # and a bracket closes once its placement term is within one mass's
    # rounding; the inverse quadratic through three nodes took two rounds,
    # 4 passes, and regula falsi points refined to ROOT_XTOL three, 5
    passes = []
    series = phasenorm.backend.wigner_series

    def counted(*args):
        passes.append(1)
        return series(*args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    measure_m(state, CG, tol=1e-6)
    assert len(passes) == 3


@pytest.mark.parametrize("state", [number_state(40), make_thermal_fock(0.5, 120),
                                   make_mixture([0.3, 0.3, 0.4])],
                         ids=["number40", "thermal", "mixture"])
def test_first_round_evaluates_eleven_points_per_bracket(state, monkeypatch):
    # the first ladder round evaluates, for each open bracket, its first
    # point and 5 rungs a side, all strictly inside the bracket; the
    # bracket's ends keep the scan's values and are not evaluated again
    rounds = []
    ladder = quadrature._ladder_brackets

    def spied(f, a, b, *args):
        points = []

        def recorded(xs):
            points.append(np.array(xs))
            return f(xs)

        rounds.append((a.copy(), b.copy(), points))
        return ladder(recorded, a, b, *args)

    monkeypatch.setattr(quadrature, "_ladder_brackets", spied)
    measure_m(state, CG, tol=1e-6)
    assert rounds
    for a, b, points in rounds:
        # one group of 11 increasing points per open bracket (the signals'
        # brackets may share a scan step), each strictly inside a bracket
        first = points[0].reshape(-1, 11)
        assert len(first) <= len(a) and np.all(np.diff(first, axis=1) > 0.0)
        inside = (first[:, :1] > a) & (first[:, -1:] < b)
        assert inside.any(axis=1).all()


def test_figure2_states_run_three_passes(monkeypatch):
    # every state of the Fig. 2 rows (the CLI's 100 triplets at seed 42 and
    # the three corners) closes its cuts in one ladder round
    counts = []
    series = phasenorm.backend.wigner_series

    def counted(*args):
        counts[-1] += 1
        return series(*args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    for triplet in sample_triplets(100, 42) + [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]:
        counts.append(0)
        measure_m(make_mixture(list(triplet)), CG, tol=1e-6)
    assert len(counts) == 103 and set(counts) == {3}


@pytest.mark.parametrize("state,scan_terms", [(make_thermal_fock(0.5, 120), 25),
                                              (number_state(40), 41)])
def test_sign_search_runs_on_the_leading_weights(state, scan_terms, monkeypatch):
    # the scan and the ladder evaluate the leading weights (20 of 121 terms
    # for the thermal state), only the mass passes every weight; a number
    # state has nothing to drop.  A mass pass gives each term its own
    # weight column P_m - tau_i P_{m+1}, while the search shares the
    # state's weights among the terms, so the weights' rank tells them apart
    terms = {"search": [], "mass": []}
    series = phasenorm.backend.wigner_series

    def counted(weights, *args):
        terms["mass" if np.ndim(weights) == 2 else "search"].append(len(weights))
        return series(weights, *args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    measure_m(state, CG, tol=1e-6)
    assert terms["search"] and max(terms["search"]) <= scan_terms
    assert terms["mass"] and set(terms["mass"]) == {state.cutoff + 1}
