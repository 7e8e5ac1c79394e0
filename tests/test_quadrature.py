import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phasenorm.quadrature
from phasenorm import (CG, Amplifier, Attenuator, ChannelSpec, Displacement, FunctionalSpec,
                       IntegralEstimate, RootBudgetExceeded, Rotation, ToleranceNotReached,
                       apply_channel_gaussian, make_mixture, make_squeezed_thermal, measure_m,
                       norm_value, number_state)
from phasenorm.fock import radial_l1, radial_profile
from phasenorm.gaussian import wigner_term
from phasenorm.quadrature import (EPS, GaussianTerm, integrate_plane_abs_pow,
                                  integrate_radial_abs_pow, locate_sign_changes)

# frozen closed-form oracles (piecewise integration via u = 2 rho^2)
ABS_W1_INTEGRAL = 4.0 * math.exp(-0.5) - 1.0          # 1.4261226388505319
VACUUM_CG_L1 = 4.0 * math.sqrt(3.0) / 9.0             # 0.7698003589195010
VACUUM_DIFF_ROOT = math.sqrt(3.0 * math.log(3.0) / 4.0)  # 0.9077219929594507


def test_quadratic_with_zero_roots_has_the_double_root():
    assert phasenorm.quadrature._quadratic_roots(1.0, 0.0, 0.0) == [0.0]


def test_refinement_stops_at_the_narrowest_panel():
    # no budget is met on a step, so bisection runs down to MIN_PANEL_WIDTH
    def step(x):
        return (x > 0.3).astype(float)

    quad = phasenorm.quadrature
    assert quad._adaptive_panels(step, [0.0, 1.0], 1e-300, quad.MAX_PANELS) == (
        0.7000000000000002, 1.5209809684091432e-15, 45)


def test_gl16_table_is_numpys_rule():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert phasenorm.quadrature.LEG_NODES.tobytes() == nodes.tobytes()
    assert phasenorm.quadrature.LEG_WEIGHTS.tobytes() == weights.tobytes()


def test_import_loads_no_numpy_polynomial():
    # the GL16 table is written out: numpy.polynomial costs about 5 ms and
    # 1 MB of resident memory at import
    done = subprocess.run(
        [sys.executable, "-c", "import phasenorm, sys; "
         "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial imported'"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def exact_l1(state, tol, s=0.0):
    """The exact p = 1 route's checked estimate of int |W^(s)| d^2alpha/pi."""
    est, = radial_l1(state, ((s, None),), (tol,))
    return est


def vacuum_diff_profile():
    f = lambda r: 2.0 * np.exp(-2.0 * np.asarray(r) ** 2) \
        - (2.0 / 3.0) * np.exp(-2.0 * np.asarray(r) ** 2 / 3.0)
    return f, ((math.log(2.0), 2.0), (math.log(2.0 / 3.0), 2.0 / 3.0)), 2


class TestRadial:
    def test_vacuum_normalization(self):
        est = exact_l1(number_state(0), 1e-10)
        assert abs(est.value - 1.0) <= 1e-10
        assert est.abs_error_bound <= 1e-10

    def test_abs_wigner_fock1(self):
        est = exact_l1(number_state(1), 1e-9)
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-9)

    def test_vacuum_cg_difference(self):
        est = integrate_radial_abs_pow(*vacuum_diff_profile(), 1.0, 1e-8)
        assert est.value == pytest.approx(VACUUM_CG_L1, abs=1e-7)

    def test_error_bound_is_honest_along_tolerance_ladder(self):
        reference = exact_l1(number_state(2), 1e-12).value
        for tol in (1e-4, 5e-5, 1e-6, 1e-8):
            est = exact_l1(number_state(2), tol)
            assert est.abs_error_bound <= tol
            assert abs(est.value - reference) <= est.abs_error_bound

    def test_norm_order_validated(self):
        with pytest.raises(ValueError):
            integrate_radial_abs_pow(*vacuum_diff_profile(), 0.5, 1e-6)

    def test_mass_route_is_exact(self):
        # one sign cut at rho = 1/2, two mass intervals
        est = exact_l1(number_state(1), 1e-9)
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-14)
        assert est.subdivisions == 2

    def test_fock2_abs_integral_matches_mpmath(self):
        # W_2 = 2 e^{-2x} L_2(4x) in x = rho^2, split at 4x = 2 -+ sqrt(2)
        with mp.workdps(30):
            def w2(x):
                y = 4 * x
                return 2 * mp.exp(-2 * x) * (1 - 2 * y + y**2 / 2)

            cuts = [0, (2 - mp.sqrt(2)) / 4, (2 + mp.sqrt(2)) / 4, mp.inf]
            want = float(sum(abs(mp.quad(w2, [a, b])) for a, b in zip(cuts, cuts[1:])))
        est = exact_l1(number_state(2), 1e-9)
        assert est.value == pytest.approx(want, abs=1e-14)

    def test_mass_route_floor_raises_with_estimate(self):
        # the tail is below tol/10 by construction; rounding of the masses
        # (about 1e-15 here) is what cannot reach 1e-16
        with pytest.raises(ToleranceNotReached) as excinfo:
            exact_l1(number_state(1), 1e-16)
        est = excinfo.value.estimate
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-14)
        assert est.abs_error_bound > 1e-16

    def test_placement_bound_covers_unrefined_cuts(self, monkeypatch):
        # with no refinement step the cut stays at a scan node near rho = 1/2;
        # the miss is far above the tail part of err (2e-7), so only the
        # placement term can cover it, and it pushes err above tol
        monkeypatch.setattr(phasenorm.quadrature, "ROOT_MAX_STEPS", 0)
        with pytest.raises(ToleranceNotReached) as excinfo:
            exact_l1(number_state(1), 1e-6)
        est = excinfo.value.estimate
        miss = abs(est.value - ABS_W1_INTEGRAL)
        assert 1e-6 < miss <= est.abs_error_bound

    @pytest.mark.parametrize("p,exact", [(1.0, True), (1.0, False), (3.0, False)],
                             ids=["p1_mass", "p1_no_mass", "p3_mass"])
    def test_panels_run_only_without_the_exact_route(self, p, exact, monkeypatch):
        calls = []
        panels = phasenorm.quadrature._adaptive_panels

        def counted(*args, **kwargs):
            calls.append(1)
            return panels(*args, **kwargs)

        monkeypatch.setattr(phasenorm.quadrature, "_adaptive_panels", counted)
        if exact:
            exact_l1(number_state(3), 1e-8, s=-0.5)
        else:
            integrate_radial_abs_pow(*radial_profile(number_state(3), -0.5), p, 1e-8)
        assert bool(calls) != exact

    def test_unreachable_tolerance_carries_estimate(self):
        with pytest.raises(ToleranceNotReached) as excinfo:
            exact_l1(number_state(1), 1e-30)
        est = excinfo.value.estimate
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-9)


class TestSignChanges:
    def test_fock1_root_at_half(self):
        f = lambda r: -2.0 * (1.0 - 4.0 * np.asarray(r) ** 2) * np.exp(-2.0 * np.asarray(r) ** 2)
        (roots, _, _), = locate_sign_changes(lambda r: f(r)[None], (0.0, 3.0), 1)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_vacuum_difference_root(self):
        f, _, _ = vacuum_diff_profile()
        (roots, _, _), = locate_sign_changes(lambda r: f(r)[None], (0.0, 4.0), 2)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(VACUUM_DIFF_ROOT, abs=1e-10)

    def test_strictly_positive_gives_empty(self):
        (roots, _, _), = locate_sign_changes(lambda r: np.exp(-r)[None], (0.0, 5.0), 0)
        assert list(roots) == []

    def test_identically_zero_gives_empty(self):
        (roots, _, _), = locate_sign_changes(lambda r: np.zeros((1, len(r))), (0.0, 5.0), 0)
        assert list(roots) == []

    def test_ladder_refines_in_few_calls(self):
        # the scan plus the ladder rounds, 4 calls of f; bisection took 34 calls
        calls = []

        def f(r):
            calls.append(np.size(r))
            r = np.asarray(r)
            return -2.0 * (1.0 - 4.0 * r**2) * np.exp(-2.0 * r**2)

        (roots, widths, _), = locate_sign_changes(lambda r: f(r)[None], (0.0, 3.0), 1)
        assert list(roots) == [pytest.approx(0.5, abs=1e-10)]
        assert len(calls) <= 8
        assert widths[0] <= phasenorm.quadrature.ROOT_XTOL

    def test_wide_bracket_takes_every_rung(self):
        # a step 0.14 of a 0.5 scan step past a node: the window interpolant
        # of the +-1 nodes puts the first point mid-bracket, 0.18 from the
        # root, so the second round's widest bracket (0.25) is past the
        # widest rung and that round evaluates all 2 len(LADDER) + 1 points
        root = 50.0 + math.sqrt(2.0) / 20.0
        sizes = []

        def f(r):
            sizes.append(np.size(r))
            return np.tanh(1e3 * (np.asarray(r) - root))[None]

        (cuts, widths, _), = locate_sign_changes(f, (0.0, 256.0), 0)
        ladder = phasenorm.quadrature.LADDER
        assert sizes[2] == 2 * len(ladder) + 1
        assert len(cuts) == 1 and abs(cuts[0] - root) <= phasenorm.quadrature.ROOT_XTOL
        assert widths[0] <= phasenorm.quadrature.ROOT_XTOL

    def test_brackets_close_on_every_root(self):
        # several roots refined together; each final bracket holds its root
        (roots, widths, _), = locate_sign_changes(lambda r: np.cos(3.0 * r)[None], (0.0, 6.0), 6)
        want = (np.arange(6) + 0.5) * math.pi / 3.0
        assert np.max(np.abs(np.array(roots) - want)) <= 1e-12
        assert np.all(widths <= phasenorm.quadrature.ROOT_XTOL)
        assert np.all(np.abs(np.array(roots) - want) <= widths + 1e-15)

    def test_root_budget(self):
        with pytest.raises(RootBudgetExceeded):
            # budget 2 + 16 = 18 against the 38 roots of cos 40r on [0, 3]
            locate_sign_changes(lambda r: np.cos(40.0 * r)[None], (0.0, 3.0), 2)


def term(var1, var2=None, angle=0.0, mean=(0.0, 0.0)):
    """The unit-mass Gaussian about mean with the variances var1 and var2
    (var1 if None) along the axes at angle and angle + pi/2."""
    var2 = var1 if var2 is None else var2
    return GaussianTerm(mean, angle, (var1, var2))


VACUUM_PAIR = (term(0.25), term(0.75))  # the vacuum's W and its C_g image's


def cov_of(t):
    """The covariance of a term, by matrix algebra (oracle)."""
    c, s = math.cos(t.theta), math.sin(t.theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag(t.variances) @ rot.T


class TestPlanar:
    def test_squeezed_normalization(self):
        # a squeezed term and the vacuum's, 12 apart, barely overlap: each
        # integrates alone to (2 sqrt(det C))^(1 - p) / p
        squeezed = wigner_term(make_squeezed_thermal(1.0, 0.6, 0.4), 0.0)
        pair = (squeezed._replace(mean=(-6.0, 0.0)), term(0.25, mean=(6.0, 0.0)))
        for p in (1.5, 3.0):
            est = integrate_plane_abs_pow(*pair, p, 1e-10)
            want = sum((2.0 * math.sqrt(np.linalg.det(cov_of(t)))) ** (1.0 - p) / p
                       for t in pair)
            assert abs(est.value - want) <= est.abs_error_bound

    def test_per_ray_route_scales_the_carried_rounding(self):
        # a term's rounding is a total variation of f; at p != 1 it moves
        # int |f|^p by up to p max|f|^(p - 1) times that, max|f| <= |a_1| + |a_2|
        vacuum, image = VACUUM_PAIR
        for p in (1.5, 2.0, 3.0):
            plain = integrate_plane_abs_pow(vacuum, image, p, 1e-6)
            carried = integrate_plane_abs_pow(vacuum._replace(rounding=1e-9), image, p, 1e-6)
            assert carried.value == plain.value
            extra = carried.abs_error_bound - plain.abs_error_bound
            assert extra == pytest.approx(p * (2.0 + 2.0 / 3.0) ** (p - 1.0) * 1e-9, rel=1e-6)

    def test_matches_radial_on_isotropic_difference(self):
        # same integrand as the vacuum/C_g difference
        plane = integrate_plane_abs_pow(*VACUUM_PAIR, 1.0, 1e-8)
        radial = integrate_radial_abs_pow(*vacuum_diff_profile(), 1.0, 1e-8)
        assert plane.value == pytest.approx(radial.value, abs=1e-8)
        assert plane.value == pytest.approx(VACUUM_CG_L1, abs=1e-7)

    def test_shifted_centers(self):
        # displaced copy of the isotropic difference: value must not change
        mean = np.array([1.5, -0.5])
        est = integrate_plane_abs_pow(term(0.25, mean=mean), term(0.75, mean=mean), 1.0, 1e-8)
        assert est.value == pytest.approx(VACUUM_CG_L1, abs=1e-7)

    def test_unequal_centers(self):
        # two unit-mass Gaussians far apart: |difference| integrates to ~2
        est = integrate_plane_abs_pow(term(0.25, mean=(-4.0, 0.0)), term(0.25, mean=(4.0, 0.0)),
                                      1.0, 1e-7)
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_l2_power(self):
        # int (W_a - W_b)^2 = 1/(4a) - 1/(a+b) + 1/(4b) for isotropic terms
        est = integrate_plane_abs_pow(*VACUUM_PAIR, 2.0, 1e-8)
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_zero_profile(self):
        est = integrate_plane_abs_pow(term(0.25), term(0.25), 1.0, 1e-9)
        assert est.value == 0.0
        assert est.abs_error_bound <= 1e-9

    def test_term_without_decay_rejected(self):
        # [[1, 2], [2, 1]]: a negative variance would give negative closed-form rays
        no_decay = GaussianTerm((0.0, 0.0), math.pi / 4.0, (3.0, -1.0))
        with pytest.raises(ValueError):
            integrate_plane_abs_pow(term(1.0), no_decay, 1.0, 1e-6)


def squeezed_difference(center_out=(0.0, 0.0)):
    """A squeezed, rotated Gaussian minus its broadened copy."""
    return GaussianTerm((0.0, 0.0), 0.4, (0.1, 2.5)), GaussianTerm(center_out, 0.4, (0.6, 3.0))


@pytest.mark.parametrize("profile,p", [
    (squeezed_difference(), 1.0),
    (squeezed_difference(), 2.0),
    (squeezed_difference((0.7, -0.3)), 1.0),
], ids=["shared_center_p1", "shared_center_p2", "off_center_p1"])
def test_planar_route_runs_no_sign_scan(profile, p, monkeypatch):
    # the planar cuts are closed form: a sign scan here is a regression
    def scan(*args, **kwargs):
        raise AssertionError("planar route called locate_sign_changes")

    monkeypatch.setattr(phasenorm.quadrature, "locate_sign_changes", scan)
    est = integrate_plane_abs_pow(*profile, p, 1e-7)
    assert est.value > 0.0 and est.abs_error_bound <= 1e-7


def test_off_center_cuts_keep_radial_panels_few():
    # at p = 1 a cut off the true sign change leaves a kink inside a panel:
    # 802 panels with the closed-form cuts, 2444 with cuts moved by 1 %,
    # 4137 with none; the value converges either way, so only the count shows it
    est = integrate_plane_abs_pow(*squeezed_difference((0.7, -0.3)), 1.0, 1e-7)
    assert est.subdivisions <= 1200


def overlap(t1, t2):
    """int d^2z/pi of the product of two Gaussian terms, in closed form."""
    prec = np.linalg.inv(cov_of(t1)) + np.linalg.inv(cov_of(t2))
    delta = np.subtract(t1.mean, t2.mean)
    quad = delta @ np.linalg.solve(cov_of(t1) + cov_of(t2), delta)
    return 2.0 * t1.amp * t2.amp / math.sqrt(np.linalg.det(prec)) * math.exp(-0.5 * quad)


def random_term(var1, var2, angle, x, y):
    return term(var1, var2, angle, (x, y))


TERMS = st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.0, math.pi),
                  st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(TERMS, TERMS)
def test_l2_matches_pairwise_overlaps(first, second):
    # unequal centers: the ray cuts solve quadratics with a linear term,
    # the case the shared-center route never sees
    t1, t2 = random_term(*first), random_term(*second)
    want = overlap(t1, t1) - 2.0 * overlap(t1, t2) + overlap(t2, t2)
    tol = 1e-8
    est = integrate_plane_abs_pow(t1, t2, 2.0, tol)
    assert abs(est.value - want) <= 10 * tol


def test_even_p_rays_are_not_cut():
    # |f|^2 = f^2 is smooth at a sign change, so a cut only adds panels:
    # 278 with the closed-form cuts, 206 without
    est = integrate_plane_abs_pow(*squeezed_difference(), 2.0, 1e-7)
    assert est.subdivisions <= 230


def test_even_p_radial_route_runs_no_sign_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("radial route scanned for sign changes at p = 2")

    monkeypatch.setattr(phasenorm.quadrature, "locate_sign_changes", scan)
    # int W^2 d^2alpha/pi is the purity, 1 for a number state
    est = integrate_radial_abs_pow(*radial_profile(number_state(2), 0.0), 2.0, 1e-9)
    assert est.value == pytest.approx(1.0, abs=1e-9)


FOCK1 = radial_profile(number_state(1), 0.0)


@pytest.mark.parametrize("integrate,p,reference", [
    (lambda p, tol: integrate_plane_abs_pow(*VACUUM_PAIR, p, tol), 1.0, VACUUM_CG_L1),
    (lambda p, tol: integrate_plane_abs_pow(*VACUUM_PAIR, p, tol), 2.0, 1.0 / 3.0),
    (lambda p, tol: exact_l1(number_state(1), tol), 1.0, ABS_W1_INTEGRAL),
    (lambda p, tol: integrate_radial_abs_pow(*FOCK1, p, tol), 3.0, None),
], ids=["planar_exact_p1", "planar_rays_p2", "radial_exact_p1", "radial_panels_p3"])
def test_every_route_raises_an_honest_estimate(integrate, p, reference):
    # 1e-20 is out of reach of double precision on every route; what is
    # raised must be near the integral, or admit that it has no bound
    if reference is None:
        reference = integrate(p, 1e-12).value
    with pytest.raises(ToleranceNotReached) as excinfo:
        integrate(p, 1e-20)
    est = excinfo.value.estimate
    assert isinstance(est, IntegralEstimate)
    assert abs(est.value - reference) <= 1e-12 or est.abs_error_bound == math.inf


def abs_w1_cubed_integral():
    """int_0^inf 2r |W_1|^3 dr at 30 digits, split at the sign change r = 1/2."""
    with mp.workdps(30):
        w1 = lambda r: -2 * (1 - 4 * r**2) * mp.exp(-2 * r**2)
        return float(mp.quad(lambda r: 2 * r * abs(w1(r)) ** 3, [0, 0.5, mp.inf]))


@pytest.mark.parametrize("integrate,reference", [
    (lambda tol: integrate_plane_abs_pow(*VACUUM_PAIR, 1.0, tol), VACUUM_CG_L1),
    (lambda tol: integrate_radial_abs_pow(*FOCK1, 3.0, tol), abs_w1_cubed_integral()),
], ids=["planar_exact_p1", "radial_panels_p3"])
def test_panel_routes_bound_their_rounding(integrate, reference):
    # at tol 1e-20 the radial panels run to their cap (8192) and the running
    # sum's rounding (miss 3.9e-15) outgrows the panel estimate (2.1e-18);
    # eps |value| per panel holds it.  The isotropic planar pair is closed
    # form, and its rounding term must hold its miss alone
    with pytest.raises(ToleranceNotReached) as excinfo:
        integrate(1e-20)
    est = excinfo.value.estimate
    assert abs(est.value - reference) <= est.abs_error_bound < 1e-11


def test_scan_stops_on_the_grid_of_its_bracket():
    # the grid keeps the bracket's step and ends at its first node past stop
    seen = []

    def f(r):
        seen.append(np.array(r))
        return np.cos(3.0 * np.asarray(r))

    (roots, _, _), = locate_sign_changes(lambda r: f(r)[None], (0.0, 6.0), 6, stop=2.0)
    full = np.linspace(0.0, 6.0, 513)  # max(513, 32 (6 + 1) + 1) nodes
    assert np.array_equal(seen[0], full[full < 2.0 + full[1]])
    assert np.allclose(roots, [math.pi / 6, math.pi / 2], atol=1e-12)


SINE_ROW = st.tuples(st.floats(0.5, 8.0), st.floats(0.0, 2.0 * math.pi), st.floats(-0.9, 0.9))
CLOSING = st.floats(-16.0, -3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(SINE_ROW, st.floats(1.0, 9.0), CLOSING), min_size=2, max_size=4))
@example([((3.0, 0.5 * math.pi, 0.0), 4.0, -math.inf), ((2.0, 0.0, -0.3), 7.5, -math.inf)])
def test_rows_find_the_cuts_they_find_alone(rows):
    # rows sin(w r + phi) + c share one scan and one ladder; each keeps its
    # own stop (inside the bracket, or past it, where it is cut at the
    # bracket's end), floor and closing bound, so one row's brackets stay
    # wide while another's shrink and every row's cuts are still bit for
    # bit those of a call of its own on the same grid.  One degree_hint for
    # every call gives the same grid and the same root budget.  No cut is
    # missed: the roots are at least 2 acos(0.9) / 8 apart, far wider than
    # a scan step.
    hint = 30
    step = 6.0 / (32 * (hint + 1))
    fs = [lambda r, w=w, phi=phi, c=c: np.sin(w * r + phi) + c for (w, phi, c), _, _ in rows]
    stops = [stop for _, stop, _ in rows]
    bounds = [bound for _, _, bound in rows]
    joint = locate_sign_changes(lambda r: np.array([f(r) for f in fs]), (0.0, 6.0), hint,
                                stop=stops, close=(bounds, 0.0))
    assert len(joint) == len(rows)
    for ((w, phi, c), stop, bound), f, (got, widths, heights) in zip(rows, fs, joint):
        (alone, alone_widths, alone_heights), = locate_sign_changes(
            lambda r, f=f: f(r)[None], (0.0, 6.0), hint, stop=stop, close=(bound, 0.0))
        assert list(got) == list(alone)
        assert np.array_equal(widths, alone_widths)
        assert np.array_equal(heights, alone_heights)
        # each cut lies within its bracket of a root w r + phi = asin(-c) or pi - asin(-c)
        phase = np.asarray(got) * w + phi
        miss = [np.abs((phase - t + math.pi) % (2.0 * math.pi) - math.pi) / w
                for t in (math.asin(-c), math.pi - math.asin(-c))]
        assert np.all(np.minimum(*miss) <= widths + 1e-12)
        # a row is scanned up to its first node at or past its stop, at
        # most up to the bracket's end
        end = phi + w * step * min(math.ceil(stop / step), 32 * (hint + 1))
        roots = sum(math.floor((end - t) / (2.0 * math.pi)) - math.floor((phi - t) / (2.0 * math.pi))
                    for t in (math.asin(-c), math.pi - math.asin(-c)))
        assert len(got) == roots
        assert all(0.0 < r < stop + step and r <= 6.0 for r in got)


def window_points(f, xs, ends=None):
    """The first points of the scan brackets of one row f on the grid xs, and
    regula falsi's, with the row read only up to node ``ends``."""
    ends = len(xs) if ends is None else ends
    row = f(xs)
    idx = np.nonzero((np.sign(row[:-1]) * np.sign(row[1:]) < 0.0)
                     & (np.arange(1, len(xs)) < ends))[0]
    a, b, ya, yb = xs[idx], xs[idx + 1], row[idx], row[idx + 1]
    first = phasenorm.quadrature._window_roots(row[None], np.zeros(len(idx), dtype=int), idx,
                                               np.full(len(idx), ends), a, b)
    return first, b + yb * (b - a) / (ya - yb)


def test_first_point_from_the_window_interpolant():
    # f = x^2 - 2 on a 513-node grid of step 0.05: the interpolant of the 8
    # nodes around [1.4, 1.45] lands on sqrt 2, regula falsi misses by 1.8e-4
    (first,), (falsi,) = window_points(lambda x: x**2 - 2.0, np.linspace(0.0, 25.6, 513))
    assert abs(first - math.sqrt(2.0)) < 1e-12
    assert abs(falsi - math.sqrt(2.0)) > 1e-4


def test_window_shifts_inward_at_the_ends_of_a_row():
    # a bracket at node 0, and one whose right node is the row's last live
    # node, take the 8 nodes next to them; the nodes past a row's end read
    # nan, and a window across them would give no point
    xs = np.linspace(0.0, 3.0, 513)
    (first,), _ = window_points(lambda x: np.exp(3.0 * x) - 1.01, xs)
    assert xs[0] < first < xs[1] and abs(first - math.log(1.01) / 3.0) < 1e-12
    root = xs[299] + 0.3 * xs[1]
    row = lambda x: np.where(x < xs[300] + 0.5 * xs[1], np.cos(x) - math.cos(root), np.nan)
    (first,), _ = window_points(row, xs, ends=301)
    assert abs(first - root) < 1e-12


@pytest.mark.parametrize("case", ["leaves", "not_finite", "no_node", "zeroed"])
def test_first_point_falls_back_to_regula_falsi(case):
    # a slope that steps by 20 inside the bracket puts the polished point
    # outside it, window nodes of -1e307 overflow the interpolant, and a
    # row scanned to 5 nodes has no window: regula falsi takes the point's
    # place.  A row that reads zero on every window node but the bracket's
    # two has regula falsi's point as its interpolant's root.  The ladder
    # still closes on the root (a scan with -1e307 in it sees no other
    # sign change above its floor)
    xs = np.linspace(0.0, 3.0, 513)
    step = xs[1]
    root, ends = xs[2 if case == "no_node" else 200] + 0.4 * step, None
    g = lambda r: (root - r) * np.exp(3.0 * r)
    if case == "leaves":
        kink = root + 0.45 * step
        f = lambda r: np.where(r < kink, r - root, kink - root + 20.0 * (r - kink))
    elif case == "not_finite":
        f = lambda r: np.where(r > xs[202] + 0.5 * step, -1e307, g(r))
    elif case == "no_node":
        f, ends = g, 5
    else:
        f = lambda r: np.where(np.abs(r - root) < step, g(r), 0.0)
    (first,), (falsi,) = window_points(f, xs, ends)
    assert first == pytest.approx(falsi, rel=0.0, abs=1e-15)
    if case != "not_finite":
        (roots, _, _), = locate_sign_changes(lambda r: f(np.asarray(r))[None], (0.0, 3.0), 1,
                                     stop=None if ends is None else xs[ends - 1])
        assert np.min(np.abs(np.array(roots) - root)) < 1e-12


def test_kinked_neighbour_still_finds_the_root():
    # a kink between the left neighbour and the bracket bends the window's
    # interpolant, whose point misses by 0.06 steps; the ladder still
    # closes on the root
    xs = np.linspace(0.0, 3.0, 513)
    step = xs[1]
    kink, depth = xs[200] - 0.5 * step, 0.8 * step
    (roots, widths, _), = locate_sign_changes(lambda r: np.abs(r - kink)[None] - depth,
                                              (0.0, 3.0), 1)
    assert np.allclose(roots, [kink - depth, kink + depth], rtol=0.0, atol=1e-12)
    assert np.all(widths <= phasenorm.quadrature.ROOT_XTOL)


def test_exact_zero_scan_node_is_a_cut():
    # the first row is exactly zero at scan node 256 of 513, r = 1.5: that
    # node is returned as a cut of width 0 beside the laddered root 0.7,
    # while the second row, with no zero node, keeps its three brackets
    xs = np.linspace(0.0, 3.0, 513)
    assert xs[256] == 1.5
    (first, first_widths, first_heights), (second, second_widths, _) = locate_sign_changes(
        lambda r: np.array([(r - 1.5) * (r - 0.7), np.cos(3.0 * r)]), (0.0, 3.0), [2, 3])
    assert list(first) == [0.7, 1.5]
    assert first_widths[1] == 0.0 and first_heights[1] == 0.0
    assert len(second) == 3
    for k, (root, width) in enumerate(zip(second, second_widths)):
        assert abs(root - (k + 0.5) * math.pi / 3.0) <= width
        assert 0.0 < width <= phasenorm.quadrature.ROOT_XTOL


def test_zero_node_left_of_a_laddered_root_comes_back_in_order():
    # the row is exactly zero at scan node 128 of 513, r = 0.75, left of its
    # laddered root sqrt 5: the zero node is merged in front of that root
    # as a cut of width 0
    assert np.linspace(0.0, 3.0, 513)[128] == 0.75
    (cuts, widths, heights), = locate_sign_changes(
        lambda r: ((r - 0.75) * (r - math.sqrt(5.0)))[None], (0.0, 3.0), 2)
    assert list(cuts) == [0.75, pytest.approx(math.sqrt(5.0), rel=0.0, abs=1e-12)]
    assert widths[0] == 0.0 and heights[0] == 0.0
    assert abs(cuts[1] - math.sqrt(5.0)) <= widths[1] <= phasenorm.quadrature.ROOT_XTOL


def test_closing_bound_stops_each_row_at_its_placement_term():
    # a bracket closes once 4 b w (h + sup) <= bound, each row with its own
    # bound and sup; without a bound every bracket shrinks to ROOT_XTOL.
    # The window's first point lands within ROOT_XTOL of these roots, so a
    # bound of 1e-9 closed none early; at 1e-3 the scan bracket of cos 3r's
    # first root closes before any round and its other five are refined
    rows = [lambda r: np.cos(3.0 * r), lambda r: np.sin(2.0 * r) - 0.3]
    bounds, sups = [1e-3, 1e-14], [0.0, 1e-6]
    joint = locate_sign_changes(lambda r: np.array([g(r) for g in rows]), (0.0, 6.0),
                                [6, 4], close=(bounds, sups))
    closed_early = 0
    for g, bound, sup, (got, widths, heights) in zip(rows, bounds, sups, joint):
        placement = 4.0 * np.array(got) * widths * (heights + sup)
        assert np.all((placement <= bound) | (widths <= phasenorm.quadrature.ROOT_XTOL))
        # every root still lies in its bracket, left of its right end
        lefts = np.array(got) - widths
        assert np.all(g(lefts) * g(np.array(got)) <= 0.0)
        closed_early += int(np.sum(widths > phasenorm.quadrature.ROOT_XTOL))
        (alone, _, _), = locate_sign_changes(lambda r, g=g: g(r)[None], (0.0, 6.0), 6,
                                             close=(bound, sup))
        assert list(got) == list(alone)
    assert closed_early


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 40).flatmap(lambda cutoff: st.lists(
    st.floats(0.0, 1.0), min_size=cutoff + 1, max_size=cutoff + 1)).filter(lambda w: sum(w) > 0.01))
def test_closing_bound_keeps_n_within_err(weights):
    # brackets that close on the masses' rounding move N at rounding level,
    # inside the err of the route at either tolerance
    state = make_mixture(np.array(weights) / sum(weights))
    loose, tight = measure_m(state, CG, tol=1e-6), measure_m(state, CG, tol=1e-10)
    assert abs(loose.n_value - tight.n_value) <= loose.err + tight.err


@pytest.mark.xfail(strict=True, reason="the scan misses a close pair of sign changes at "
                   "tol 1e-6; its completeness is not yet certified (ROADMAP item 2)")
def test_scan_misses_no_close_pair_of_cuts():
    # a cutoff-36 mixture whose exact p = 1 route reads N = 0.66458262 at
    # tol 1e-6 but 0.66458352 at 1e-10, each with err below 1e-12: the
    # 1e-6 scan steps over a close pair of cuts
    weights = np.array([0.90625, 0, 0.65625, 0, 0.046875, 0, 0.953125, 0.1796875, 0.625,
                        0.73828125, 0.33203125, 0.671875, 0.4375, 0.25, 0.5, 0.5, 0.25, 0,
                        0.7890625, 0.8125, 0, 0, 1, 0.125, 0.5625, 0.46875, 0.0625, 0.75,
                        0.9375, 0.9765625, 0, 0.8984375, 0, 1, 0, 0.015625, 0.5])
    state = make_mixture(weights / weights.sum())
    loose, tight = measure_m(state, CG, tol=1e-6), measure_m(state, CG, tol=1e-10)
    assert abs(loose.n_value - tight.n_value) <= loose.err + tight.err


SQUEEZED_NEEDLE = ("the per-ray planar route's angle panels put no node in a term squeezed "
                   "by r = 6, a needle about e^-2r wide, so err misses (ROADMAP item 4)")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=SQUEEZED_NEEDLE)
def test_strongly_squeezed_l2_matches_pairwise_overlaps():
    # nbar 1 squeezed by r = 6 under C_g at p = 2, tol 1e-6, reads N =
    # 0.5751669 +- 5.2e-7 against the closed form 0.5757457
    state = make_squeezed_thermal(1.0, 6.0, 0.0)
    t1, t2 = wigner_term(state, 0.0), wigner_term(apply_channel_gaussian(state, CG), 0.0)
    want = math.sqrt(overlap(t1, t1) - 2.0 * overlap(t1, t2) + overlap(t2, t2))
    value, err = norm_value(state, CG, FunctionalSpec(0.0, 2.0), 1e-6)
    assert abs(value - want) <= err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=SQUEEZED_NEEDLE)
@pytest.mark.parametrize("p, theta, channel, tight", [
    (1.5, 0.0, CG, 1e-9),
    (1.0, 0.3, ChannelSpec((Attenuator(0.9), Displacement(0.3 + 0.2j))), 1e-10)],
    ids=["p1.5_cg", "p1_displaced"])
def test_strongly_squeezed_n_agrees_across_tolerances(p, theta, channel, tight):
    # nbar 1 squeezed by r = 6: at p = 1.5 under C_g tol 1e-6 reads
    # 0.68728357 +- 2.6e-7 and tol 1e-9 0.68728282 +- 5.9e-10; at p = 1,
    # theta = 0.3, under loss 0.9 then a displacement, tol 1e-6 reads
    # 1.99228955 +- 6.7e-7 and tol 1e-10 1.99222266 +- 2.7e-11
    state, fn = make_squeezed_thermal(1.0, 6.0, theta), FunctionalSpec(0.0, p)
    loose, loose_err = norm_value(state, channel, fn, 1e-6)
    value, err = norm_value(state, channel, fn, tight)
    assert abs(loose - value) <= loose_err + err


def one_rule_per_call(g, edges, budget, max_panels):
    """The worst-first panel loop with one call of g per GL16 rule (oracle)."""
    quad = phasenorm.quadrature

    def gl16(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float((g(mid + half * quad.LEG_NODES) * quad.LEG_WEIGHTS).sum())

    def make(a, b, coarse=None):
        whole = gl16(a, b) if coarse is None else coarse
        mid = 0.5 * (a + b)
        left, right = gl16(a, mid), gl16(mid, b)
        return (a, b, mid, left, right, left + right, abs(left + right - whole))

    heap, seq, total, err, count = [], 0, 0.0, 0.0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < quad.MIN_PANEL_WIDTH:
            continue
        p = make(a, b)
        total, err, count, seq = total + p[5], err + p[6], count + 1, seq + 1
        heapq.heappush(heap, (-p[6], seq, p))
    while err > budget and count < max_panels and heap:
        _, _, (a0, b0, mid0, left0, right0, v0, e0) = heapq.heappop(heap)
        if b0 - a0 < quad.MIN_PANEL_WIDTH:
            break
        total, err = total - v0, err - e0
        for aa, bb, coarse in ((a0, mid0, left0), (mid0, b0, right0)):
            p = make(aa, bb, coarse)
            total, err, seq = total + p[5], err + p[6], seq + 1
            heapq.heappush(heap, (-p[6], seq, p))
        count += 1
    return total, err, count


def panel_runs(monkeypatch):
    """Record (g, edges, budget, max_panels, sizes of the calls of g, result)
    of every _adaptive_panels run."""
    runs = []
    panels = phasenorm.quadrature._adaptive_panels

    def spied(g, edges, budget, max_panels):
        sizes = []

        def counted(x):
            sizes.append(len(x))
            return g(x)

        result = panels(counted, edges, budget, max_panels)
        runs.append((g, edges, budget, max_panels, sizes, result))
        return result

    monkeypatch.setattr(phasenorm.quadrature, "_adaptive_panels", spied)
    return runs


FOCK6 = radial_profile(number_state(6), 0.0)  # six sign cuts
# the vacuum pair is no route here: its isotropic terms are closed form
PANEL_ROUTES = {
    "squeezed_p1": lambda: integrate_plane_abs_pow(*squeezed_difference(), 1.0, 1e-12),
    "fock6_p1.5": lambda: integrate_radial_abs_pow(*FOCK6, 1.5, 1e-10),
    "fock6_p2": lambda: integrate_radial_abs_pow(*FOCK6, 2.0, 1e-12),
    "fock6_p3": lambda: integrate_radial_abs_pow(*FOCK6, 3.0, 1e-12),
}


@pytest.mark.parametrize("route", ["squeezed_p1", "fock6_p1.5", "fock6_p3"])
def test_one_call_of_the_integrand_per_step(route, monkeypatch):
    # the first call holds every initial panel's rule and two half-rules,
    # each later call the four half-rules of one split
    runs = panel_runs(monkeypatch)
    PANEL_ROUTES[route]()
    (_, edges, _, _, sizes, (_, _, count)), = runs
    initial = len(edges) - 1
    assert sizes == [48 * initial] + [64] * (count - initial)
    assert count > initial


@pytest.mark.parametrize("route", sorted(PANEL_ROUTES))
def test_batched_rules_match_one_rule_per_call(route, monkeypatch):
    # summing each rule on its own keeps every value, error and count bitwise
    runs = panel_runs(monkeypatch)
    PANEL_ROUTES[route]()
    (g, edges, budget, max_panels, _, result), = runs
    assert result[2] > len(edges) - 1
    assert one_rule_per_call(g, edges, budget, max_panels) == result


def ray_l1(amps, rates):
    """int_0^inf r |A_1 exp(-k_1 r^2) + A_2 exp(-k_2 r^2)| dr along rays with
    rates k_i (an array per term), A_1 > 0 > A_2, in closed form (oracle).

    With F(R) = sum_i A_i (1 - exp(-k_i R^2)) / (2 k_i), the terms cancel
    at most once, at r0^2 = ln|A_1/A_2| / (k_1 - k_2) when that is > 0, and
    the ray integrates to |2 F(r0) - F(inf)|; a ray without a cut gives
    |F(inf)|.
    """
    halves = [0.5 * a / k for a, k in zip(amps, rates)]
    whole = sum(halves)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0sq = math.log(abs(amps[0] / amps[1])) / (rates[0] - rates[1])
    r0sq = np.where(r0sq > 0.0, r0sq, np.inf)
    rest = sum(h * np.expm1(-k * r0sq) for h, k in zip(halves, rates))
    return np.abs(whole + 2.0 * rest)


def co_centred_l1_on_grid(first, second, count=4096):
    """int d^2z/pi |G_1 - G_2| of co-centred terms from the closed-form rays
    at count angles spaced evenly over [0, pi) (f is even): the trapezoid
    rule of a smooth periodic integrand.  Against Imhof's form in mpmath at
    30 digits it is within 2e-15 for the variances drawn below."""
    phi = np.arange(count) * (math.pi / count)
    u = np.array([np.cos(phi), np.sin(phi)])
    rates = [0.5 * np.einsum("in,ij,jn->n", u, np.linalg.inv(cov_of(t)), u)
             for t in (first, second)]
    return 2.0 * ray_l1([first.amp, -second.amp], rates).mean()


GRID_ORACLE_ERR = 1e-12
COVS = st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, math.pi))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(COVS, COVS, st.sampled_from(["pair", "indefinite", "identity"]),
       st.sampled_from([1e-6, 1e-9]))
def test_co_centred_route_matches_the_rays_on_a_fine_grid(cov1, cov2, kind, tol):
    # Imhof's angular form against the closed-form rays: rotated axes that
    # differ, indefinite pencils (lambda_1 < 1 < lambda_2, on shared axes)
    # and the identity channel
    mean = (0.3, -0.8)
    first = term(*cov1, mean=mean)
    if kind == "identity":
        est = integrate_plane_abs_pow(first, first, 1.0, tol)
        assert est.value == 0.0 and est.abs_error_bound <= tol
        return
    if kind == "indefinite":
        # the second covariance is wider along one axis of the first, narrower along the other
        var1, var2, angle = cov1
        cov2 = (var1 * (1.0 + cov2[0]), var2 / (1.0 + cov2[1]), angle)
    second = term(*cov2, mean=mean)
    assume(abs(math.log(first.amp / second.amp)) > 0.1)
    est = integrate_plane_abs_pow(first, second, 1.0, tol)
    assert (abs(est.value - co_centred_l1_on_grid(first, second))
            <= est.abs_error_bound + GRID_ORACLE_ERR)


ORACLE_SLOP = 1e-28
LOSS_AND_GAIN = st.lists(st.one_of(st.floats(0.05, 1.0).map(Attenuator),
                                   st.floats(1.0, 3.0).map(Amplifier)), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, math.pi), LOSS_AND_GAIN,
       st.one_of(st.none(), st.floats(0.05, 3.0)), st.sampled_from([0.0, -1.0]))
def test_pencil_matches_mpmath_roots(nbar, r, theta, chain, angle, s):
    # the pencil of a state's W^(s) and its output's against the roots of
    # det(C_2 - lambda C_1) at 60 digits (30 of them left at a double root),
    # each C exactly R diag(v) R^T from the term's axes.  Co-axial terms (no
    # rotation) take the quotients of their variances, to their last digits;
    # turned ones are within the slack charged for them: each |d lambda_k| /
    # lambda_k is at most its sum
    state = make_squeezed_thermal(nbar, r, theta)
    rotation = () if angle is None else (Rotation(angle),)
    out = apply_channel_gaussian(state, ChannelSpec(tuple(chain) + rotation))
    first, second = wigner_term(state, s), wigner_term(out, s)
    nus, lams, half_log_det, slack = phasenorm.quadrature._pencil(first, second)
    with mp.workdps(60):
        (a1, c1, b1), (a2, c2, b2) = (
            (mp.cos(t.theta) ** 2 * t.variances[0] + mp.sin(t.theta) ** 2 * t.variances[1],
             mp.cos(t.theta) * mp.sin(t.theta) * (mp.mpf(t.variances[0]) - t.variances[1]),
             mp.sin(t.theta) ** 2 * t.variances[0] + mp.cos(t.theta) ** 2 * t.variances[1])
            for t in (first, second))
        half_sum, det1 = (a1 * b2 + a2 * b1 - 2 * c1 * c2) / 2, a1 * b1 - c1 * c1
        spread = mp.sqrt(max(half_sum ** 2 - det1 * (a2 * b2 - c2 * c2), 0))
        roots = [(half_sum - spread) / det1, (half_sum + spread) / det1]
        exact = [(float(x - 1), float(x)) for x in roots]
        exact_log = float(mp.log(roots[0] * roots[1]) / 2)
    # a double root leaves the oracle 30 digits: ORACLE_SLOP lambda
    pairs = zip(sorted(zip(nus, lams), key=lambda pair: pair[1]), exact)
    if slack == 0.0:  # shared axes, or an isotropic term
        for (nu, lam), (exact_nu, exact_lam) in pairs:
            assert abs(lam - exact_lam) <= 4.0 * EPS * exact_lam
            assert abs(nu - exact_nu) <= 4.0 * EPS * abs(exact_nu) + ORACLE_SLOP * exact_lam
    else:
        assert angle is not None
        for (nu, lam), (exact_nu, exact_lam) in pairs:
            assert abs(lam - exact_lam) <= slack * exact_lam
            assert abs(nu - exact_nu) <= slack * exact_lam
    assert abs(half_log_det - exact_log) <= 4.0 * EPS + slack
