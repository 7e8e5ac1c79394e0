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
from phasenorm import (CG, Amplifier, Attenuator, ChannelSpec, FunctionalSpec, GaussianState,
                       make_squeezed_thermal, make_thermal, norm_value)


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


@pytest.mark.parametrize("r,value", [(0.8, 1.76167815), (3.0, 1.95261645)])
def test_near_co_centred_pair_takes_imhof_route(r, value, monkeypatch):
    # loss 1/49 then gain 49 folds to k = 0.9999999999999999, so a displaced
    # state and its output lie about 1e-16 apart: the offset enters as a weight
    channel = ChannelSpec((Attenuator(1 / 49), Amplifier(49.0)))
    assert channel.fold()[0] < 1.0
    calls = {"_co_centred_l1": 0, "_form": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(phasenorm.quadrature, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(phasenorm.quadrature, name, counted)
    state = make_squeezed_thermal(1.0, r, 0.3)
    n, err = norm_value(GaussianState((1.0, 0.5), state.cov), channel, FunctionalSpec(), 1e-6)
    assert calls == {"_co_centred_l1": 1, "_form": 1}
    assert abs(n - value) <= err + 5e-9
    n0, err0 = norm_value(state, channel, FunctionalSpec(), 1e-6)
    assert abs(n - n0) <= err + err0
