"""The Fock p = 1 route in few kernel passes.

Each pass is one call of ``backend.wigner_series`` (one Laguerre
recurrence over the cutoff), whatever the number of points or terms: the
sign scan, each refinement round of all brackets at once, and the mass
pass, each for every term at once (both orderings of the norm's
difference).
"""

import numpy as np
import pytest

import phasenorm.backend
from phasenorm import CG, make_thermal_fock, measure_m, number_state


@pytest.mark.parametrize("state,most", [(number_state(40), 10), (number_state(2), 10),
                                        (make_thermal_fock(0.5, 120), 7)],
                         ids=["number40", "number2", "thermal"])
def test_measure_m_kernel_passes(state, most, monkeypatch):
    # the norm and the witness each take a scan, a few ladder rounds and a
    # mass pass, the norm's two orderings in one recurrence per step: 10
    # passes for both number states and 7 for the thermal one, where one
    # recurrence per ordering took 15, 15 and 12, and one refinement point
    # per bracket and round took 31 and 25 for the number states
    passes = []
    series = phasenorm.backend.wigner_series

    def counted(*args):
        passes.append(1)
        return series(*args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    measure_m(state, CG, tol=1e-6)
    assert len(passes) <= most


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
