"""The layer boundaries a tracer can wrap from outside the package stay live.

``perfbench/tracer.py`` replaces module attributes with timing wrappers,
so a layer is counted only while its callers look it up through the
module the wrapper lives in.  A caller that imported it by name (say
``fock`` doing ``from .quadrature import locate_sign_changes``) would
keep the original, and that layer's counters would read zero without a
word.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from phasenorm import (CG, FunctionalSpec, backend, make_squeezed_thermal, make_thermal_fock,
                       number_state, quadrature, quantifier)

# every attribute the tracer replaces, in its order
HOOKS = [
    (quantifier, "measure_m"), (quantifier, "wigner_negativity"),
    (quantifier, "baseline_with_error"), (quantifier, "integrate_plane_abs_pow"),
    (quantifier, "integrate_radial_abs_pow"), (quantifier, "apply_channel_fock"),
    (quantifier, "apply_channel_gaussian"), (quadrature, "locate_sign_changes"),
    (backend, "wigner_series"),
]
FOCK_LAYERS = {"quantifier.wigner_negativity", "quadrature.locate_sign_changes",
               "backend.wigner_series"}
GAUSSIAN_LAYERS = {"quantifier.integrate_plane_abs_pow", "quantifier.apply_channel_gaussian"}


@pytest.fixture
def reached(monkeypatch):
    """Counts of the calls that reach each wrapped attribute."""
    calls = Counter()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in HOOKS:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        monkeypatch.setattr(module, attr, wrap(name, getattr(module, attr)))
    return calls


def test_every_hook_exists():
    # the tracer reads each one with getattr before it installs anything
    for module, attr in HOOKS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("state", [number_state(3), make_thermal_fock(0.5, 120)],
                         ids=["number3", "thermal"])
def test_fock_layers_are_reached(state, reached):
    quantifier.measure_m(state)
    assert {name for name in FOCK_LAYERS if reached[name]} == FOCK_LAYERS
    # the exact route at p = 1 takes no integrator; the panel route (p != 1) does
    quantifier.norm_value(state, CG, FunctionalSpec(p=2.0), 1e-6)
    assert reached["quantifier.integrate_radial_abs_pow"]


def test_gaussian_layers_are_reached(reached):
    quantifier.measure_m(make_squeezed_thermal(0.5, 0.8, 0.3))
    assert {name for name in GAUSSIAN_LAYERS if reached[name]} == GAUSSIAN_LAYERS


@pytest.mark.parametrize("state,points,term_points", [
    (number_state(40), 3_832, 157_112), (make_thermal_fock(0.5, 120), 1_002, 21_050)],
    ids=["number40", "thermal"])
def test_kernel_accounting_is_exact(state, points, term_points, monkeypatch):
    # the tracer unpacks ``weights, _, u, _ = args`` and counts len(u)
    # points and len(weights) len(u) term-points; a keyword argument or a
    # 2-D u would break the trace or silently redefine both counters.  The
    # sums are those of one recurrence per ordering, so stacking the terms
    # moves neither; the witness riding in the norm's passes moved them
    # from 14,259 / 584,619 and 2,559 / 51,988 (its ladder points now
    # evaluate the norm's terms and the norm's the witness's), closing
    # the cuts in two ladder rounds from 16,282 / 667,562 and 2,004 / 41,090,
    # in one round, from the interpolant of 8 scan nodes, from 14,210 /
    # 582,610 and 1,970 / 40,410, and with that round's 11 points per
    # bracket, the ends not evaluated again, from 9,512 / 389,992 and
    # 1,920 / 39,410, and with each signal's scan ending just past its cut
    # bound instead of at its reach, from 4,976 / 204,016 and 1,864 / 38,290
    calls = []
    series = backend.wigner_series

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return series(*args, **kwargs)

    monkeypatch.setattr(backend, "wigner_series", recorded)
    quantifier.measure_m(state, CG, tol=1e-6)
    for args, kwargs in calls:
        assert len(args) == 4 and not kwargs
        _, _, u, pref = args
        assert np.ndim(u) == np.ndim(pref) == 1 and len(u) == len(pref)
    assert sum(len(args[2]) for args, _ in calls) == points
    assert sum(len(args[0]) * len(args[2]) for args, _ in calls) == term_points


def test_perfbench_selftest_passes():
    # the hooks above are stubs; the harness's self-test runs the tracer
    # itself, which wraps locate_sign_changes' f as a one-argument function,
    # unpacks wigner_series' arguments and reads KERNEL_BACKEND
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
