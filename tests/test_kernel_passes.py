"""The Fock p = 1 route in few kernel passes.

Each pass is one call of ``backend.wigner_series`` (one Laguerre
recurrence over the cutoff), whatever the number of points: the sign
scan, each refinement round of all brackets at once, and the mass pass.
"""

import pytest

import phasenorm.backend
from phasenorm import CG, measure_m, number_state


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
