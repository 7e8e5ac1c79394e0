"""The Fock p = 1 route in few kernel passes.

Each pass is one call of ``backend.wigner_series`` (one Laguerre
recurrence over the cutoff), whatever the number of points: the sign
scan, each refinement round of all brackets at once, and the mass pass.
"""

import pytest

import phasenorm.backend
import phasenorm.fock
from phasenorm import CG, make_thermal_fock, measure_m, number_state


@pytest.mark.parametrize("n,most", [(40, 20), (2, 18)])
def test_measure_m_kernel_passes(n, most, monkeypatch):
    # the norm and the witness each take a scan, a few ladder rounds and a
    # mass pass (the norm's difference two recurrences per step): 15 passes
    # for both states, where one refinement point per bracket and round
    # took 31 and 25
    passes = []
    series = phasenorm.backend.wigner_series

    def counted(*args):
        passes.append(1)
        return series(*args)

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    measure_m(number_state(n), CG, tol=1e-6)
    assert len(passes) <= most


@pytest.mark.parametrize("state,scan_terms", [(make_thermal_fock(0.5, 120), 25),
                                              (number_state(40), 41)])
def test_sign_search_runs_on_the_leading_weights(state, scan_terms, monkeypatch):
    # the scan and the ladder evaluate the leading weights (20 of 121 terms
    # for the thermal state), only the mass passes every weight; a number
    # state has nothing to drop
    terms = {"search": [], "mass": []}
    role = ["search"]
    series, mass = phasenorm.backend.wigner_series, phasenorm.fock.wigner_mass_outside

    def counted(weights, *args):
        terms[role[0]].append(len(weights))
        return series(weights, *args)

    def tagged(*args):
        role[0] = "mass"
        try:
            return mass(*args)
        finally:
            role[0] = "search"

    monkeypatch.setattr(phasenorm.backend, "wigner_series", counted)
    monkeypatch.setattr(phasenorm.fock, "wigner_mass_outside", tagged)
    measure_m(state, CG, tol=1e-6)
    assert terms["search"] and max(terms["search"]) <= scan_terms
    assert terms["mass"] and set(terms["mass"]) == {state.cutoff + 1}
