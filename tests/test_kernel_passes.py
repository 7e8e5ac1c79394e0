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
from phasenorm import CG, make_mixture, make_thermal_fock, measure_m, number_state


@pytest.mark.parametrize("state,most", [(number_state(40), 5), (number_state(2), 5),
                                        (make_thermal_fock(0.5, 120), 5)],
                         ids=["number40", "number2", "thermal"])
def test_measure_m_kernel_passes(state, most, monkeypatch):
    # one scan, at most three ladder rounds and one mass pass for the norm
    # and the witness together: at most 5 passes for each state (4 now, see
    # test_measure_m_runs_four_passes).  A route of its own for
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
def test_measure_m_runs_four_passes(state, monkeypatch):
    # the scan, two ladder rounds and the mass pass.  The first round's
    # points come from three scan nodes, and a bracket closes once its
    # placement term is within one mass's rounding; regula falsi points
    # refined to ROOT_XTOL took a third round, 5 passes
    passes = []
    series = phasenorm.backend.wigner_series

    def counted(*args):
        passes.append(1)
        return series(*args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    measure_m(state, CG, tol=1e-6)
    assert len(passes) == 4


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
