"""The exact planar p = 1 route in few calls of its angle integrand.

A co-centred pair of Gaussian terms (a Gaussian state and its output)
takes Imhof's angular form: a term whose share of mass does not vary with
the angle (both terms of an isotropic pair, such as a thermal state under
C_g) is closed form and calls nothing, and the varying shares are
integrated over adaptive GL16 panels, every rule of a refinement step in
one call of the integrand.  The initial panels come from each term's own
scales, so a squeezed state resolved by them makes one call.
"""

import pytest

import phasenorm.quadrature
from phasenorm import CG, FunctionalSpec, make_squeezed_thermal, make_thermal, norm_value


@pytest.mark.parametrize("state,sizes,panels", [
    (make_thermal(1.0), [], 0),
    # one initial panel, resolved by its first rules
    (make_squeezed_thermal(1.0, 0.5), [48], 1),
    # four panels seeded from the step near the squeezed axis, no split
    (make_squeezed_thermal(1.0, 1.0), [192], 4),
    (make_squeezed_thermal(1.0, 1.5), [192], 4),
], ids=["thermal", "r0.5", "r1.0", "r1.5"])
def test_planar_route_calls(state, sizes, panels, monkeypatch):
    runs = []
    adaptive = phasenorm.quadrature._adaptive_panels

    def counted(g, edges, budget, max_panels):
        calls = []

        def g_counted(x):
            calls.append(len(x))
            return g(x)

        result = adaptive(g_counted, edges, budget, max_panels)
        runs.append((calls, result[2]))
        return result

    monkeypatch.setattr(phasenorm.quadrature, "_adaptive_panels", counted)
    norm_value(state, CG, FunctionalSpec(), 1e-6)
    assert runs == [(sizes, panels)]
