import dataclasses
import heapq
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phasenorm.quadrature
from phasenorm import (CG, FunctionalSpec, GaussianState, GaussianTerm,
                       IntegralEstimate, PlanarProfile, RadialProfile, RootBudgetExceeded,
                       ToleranceNotReached, integrate_plane_abs_pow, integrate_radial_abs_pow,
                       locate_sign_changes, make_mixture, make_squeezed_thermal, measure_m,
                       number_state, radial_profile)

# frozen closed-form oracles (piecewise integration via u = 2 rho^2)
ABS_W1_INTEGRAL = 4.0 * math.exp(-0.5) - 1.0          # 1.4261226388505319
VACUUM_CG_L1 = 4.0 * math.sqrt(3.0) / 9.0             # 0.7698003589195010
VACUUM_DIFF_ROOT = math.sqrt(3.0 * math.log(3.0) / 4.0)  # 0.9077219929594507


def vacuum_diff_profile():
    f = lambda r: 2.0 * np.exp(-2.0 * np.asarray(r) ** 2) \
        - (2.0 / 3.0) * np.exp(-2.0 * np.asarray(r) ** 2 / 3.0)
    return RadialProfile(f, ((math.log(2.0), 2.0), (math.log(2.0 / 3.0), 2.0 / 3.0)),
                         degree_hint=2)


class TestRadial:
    def test_vacuum_normalization(self):
        est = integrate_radial_abs_pow(radial_profile(number_state(0), 0.0), 1.0, 1e-10)
        assert abs(est.value - 1.0) <= 1e-10
        assert est.abs_error_bound <= 1e-10

    def test_abs_wigner_fock1(self):
        est = integrate_radial_abs_pow(radial_profile(number_state(1), 0.0), 1.0, 1e-9)
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-9)

    def test_vacuum_cg_difference(self):
        est = integrate_radial_abs_pow(vacuum_diff_profile(), 1.0, 1e-8)
        assert est.value == pytest.approx(VACUUM_CG_L1, abs=1e-7)

    def test_error_bound_is_honest_along_tolerance_ladder(self):
        profile = radial_profile(number_state(2), 0.0)
        reference = integrate_radial_abs_pow(profile, 1.0, 1e-12).value
        for tol in (1e-4, 5e-5, 1e-6, 1e-8):
            est = integrate_radial_abs_pow(profile, 1.0, tol)
            assert est.abs_error_bound <= tol
            assert abs(est.value - reference) <= est.abs_error_bound

    def test_norm_order_validated(self):
        with pytest.raises(ValueError):
            integrate_radial_abs_pow(vacuum_diff_profile(), 0.5, 1e-6)

    def test_mass_route_is_exact(self):
        # one sign cut at rho = 1/2, two mass intervals
        est = integrate_radial_abs_pow(radial_profile(number_state(1), 0.0), 1.0, 1e-9)
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
        est = integrate_radial_abs_pow(radial_profile(number_state(2), 0.0), 1.0, 1e-9)
        assert est.value == pytest.approx(want, abs=1e-14)

    def test_mass_route_floor_raises_with_estimate(self):
        # the tail is below tol/10 by construction; rounding of the masses
        # (about 1e-15 here) is what cannot reach 1e-16
        with pytest.raises(ToleranceNotReached) as excinfo:
            integrate_radial_abs_pow(radial_profile(number_state(1), 0.0), 1.0, 1e-16)
        est = excinfo.value.estimate
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-14)
        assert est.abs_error_bound > 1e-16

    def test_placement_bound_covers_unrefined_cuts(self, monkeypatch):
        # with no refinement step the cut stays at a scan node near rho = 1/2;
        # the miss is far above the tail part of err (2e-7), so only the
        # placement term can cover it, and it pushes err above tol
        monkeypatch.setattr(phasenorm.quadrature, "ROOT_MAX_STEPS", 0)
        with pytest.raises(ToleranceNotReached) as excinfo:
            integrate_radial_abs_pow(radial_profile(number_state(1), 0.0), 1.0, 1e-6)
        est = excinfo.value.estimate
        miss = abs(est.value - ABS_W1_INTEGRAL)
        assert 1e-6 < miss <= est.abs_error_bound

    @pytest.mark.parametrize("p,mass", [(1.0, True), (1.0, False), (3.0, True)],
                             ids=["p1_mass", "p1_no_mass", "p3_mass"])
    def test_panels_run_only_without_the_exact_route(self, p, mass, monkeypatch):
        calls = []
        panels = phasenorm.quadrature._adaptive_panels

        def counted(*args, **kwargs):
            calls.append(1)
            return panels(*args, **kwargs)

        monkeypatch.setattr(phasenorm.quadrature, "_adaptive_panels", counted)
        profile = radial_profile(number_state(3), -0.5)
        if not mass:
            profile = dataclasses.replace(profile, l1=None)
        integrate_radial_abs_pow(profile, p, 1e-8)
        assert bool(calls) == (p != 1.0 or not mass)

    def test_unreachable_tolerance_carries_estimate(self):
        with pytest.raises(ToleranceNotReached) as excinfo:
            integrate_radial_abs_pow(radial_profile(number_state(1), 0.0), 1.0, 1e-30)
        est = excinfo.value.estimate
        assert est.value == pytest.approx(ABS_W1_INTEGRAL, abs=1e-9)


class TestSignChanges:
    def test_fock1_root_at_half(self):
        f = lambda r: -2.0 * (1.0 - 4.0 * np.asarray(r) ** 2) * np.exp(-2.0 * np.asarray(r) ** 2)
        roots = locate_sign_changes(f, (0.0, 3.0), 1)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_vacuum_difference_root(self):
        roots = locate_sign_changes(vacuum_diff_profile().evaluator, (0.0, 4.0), 2)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(VACUUM_DIFF_ROOT, abs=1e-10)

    def test_strictly_positive_gives_empty(self):
        assert locate_sign_changes(lambda r: np.exp(-np.asarray(r)), (0.0, 5.0), 0) == []

    def test_identically_zero_gives_empty(self):
        assert locate_sign_changes(lambda r: np.zeros_like(np.asarray(r)), (0.0, 5.0), 0) == []

    def test_ladder_refines_in_few_calls(self):
        # the scan plus the ladder rounds, 4 calls of f; bisection took 34 calls
        calls = []

        def f(r):
            calls.append(np.size(r))
            r = np.asarray(r)
            return -2.0 * (1.0 - 4.0 * r**2) * np.exp(-2.0 * r**2)

        roots = locate_sign_changes(f, (0.0, 3.0), 1)
        assert roots == [pytest.approx(0.5, abs=1e-10)]
        assert len(calls) <= 8
        assert roots.widths[0] <= phasenorm.quadrature.ROOT_XTOL

    def test_brackets_close_on_every_root(self):
        # several roots refined together; each final bracket holds its root
        roots = locate_sign_changes(lambda r: np.cos(3.0 * np.asarray(r)), (0.0, 6.0), 6)
        want = (np.arange(6) + 0.5) * math.pi / 3.0
        assert np.max(np.abs(np.array(roots) - want)) <= 1e-12
        assert np.all(roots.widths <= phasenorm.quadrature.ROOT_XTOL)
        assert np.all(np.abs(np.array(roots) - want) <= roots.widths + 1e-15)

    def test_root_budget(self):
        with pytest.raises(RootBudgetExceeded):
            # budget 2 + 16 = 18 against the 38 roots of cos 40r on [0, 3]
            locate_sign_changes(lambda r: np.cos(40.0 * np.asarray(r)), (0.0, 3.0), 2)


def iso_term(amp, variance):
    return GaussianTerm(amp, np.zeros(2), np.diag([variance, variance]))


class TestPlanar:
    def test_squeezed_normalization(self):
        for r in (0.0, 0.6, 1.4):
            cov = np.diag([0.75 * math.exp(-2 * r), 0.75 * math.exp(2 * r)])
            amp = 1.0 / (2.0 * math.sqrt(np.linalg.det(cov)))
            profile = PlanarProfile((GaussianTerm(amp, np.zeros(2), cov),))
            est = integrate_plane_abs_pow(profile, 1.0, 1e-8)
            assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_matches_radial_on_isotropic_difference(self):
        # same integrand as the vacuum/C_g difference
        profile = PlanarProfile((iso_term(2.0, 0.25), iso_term(-2.0 / 3.0, 0.75)))
        plane = integrate_plane_abs_pow(profile, 1.0, 1e-8)
        radial = integrate_radial_abs_pow(vacuum_diff_profile(), 1.0, 1e-8)
        assert plane.value == pytest.approx(radial.value, abs=1e-8)
        assert plane.value == pytest.approx(VACUUM_CG_L1, abs=1e-7)

    def test_shifted_centers(self):
        # displaced copy of the isotropic difference: value must not change
        mean = np.array([1.5, -0.5])
        profile = PlanarProfile((
            GaussianTerm(2.0, mean, np.diag([0.25, 0.25])),
            GaussianTerm(-2.0 / 3.0, mean, np.diag([0.75, 0.75])),
        ))
        est = integrate_plane_abs_pow(profile, 1.0, 1e-8)
        assert est.value == pytest.approx(VACUUM_CG_L1, abs=1e-7)

    def test_unequal_centers(self):
        # two unit-mass Gaussians far apart: |difference| integrates to ~2
        profile = PlanarProfile((
            GaussianTerm(2.0, np.array([-4.0, 0.0]), np.diag([0.25, 0.25])),
            GaussianTerm(-2.0, np.array([4.0, 0.0]), np.diag([0.25, 0.25])),
        ))
        est = integrate_plane_abs_pow(profile, 1.0, 1e-7)
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_l2_power(self):
        # int (W_a - W_b)^2 = 1/(4a) - 1/(a+b) + 1/(4b) for isotropic terms
        profile = PlanarProfile((iso_term(2.0, 0.25), iso_term(-2.0 / 3.0, 0.75)))
        est = integrate_plane_abs_pow(profile, 2.0, 1e-8)
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_zero_profile(self):
        profile = PlanarProfile((iso_term(2.0, 0.25), iso_term(-2.0, 0.25)))
        est = integrate_plane_abs_pow(profile, 1.0, 1e-9)
        assert est.value == 0.0
        assert est.abs_error_bound <= 1e-9

    def test_term_without_decay_rejected(self):
        # an indefinite covariance would give negative closed-form rays
        profile = PlanarProfile((iso_term(1.0, 1.0),
                                 GaussianTerm(-0.5, np.zeros(2), np.array([[1.0, 2.0],
                                                                           [2.0, 1.0]]))))
        with pytest.raises(ValueError):
            integrate_plane_abs_pow(profile, 1.0, 1e-6)

    def test_one_or_two_terms(self):
        with pytest.raises(ValueError):
            PlanarProfile(())
        with pytest.raises(ValueError):
            PlanarProfile((iso_term(2.0, 0.25),) * 3)


def squeezed_difference(center_out=(0.0, 0.0)):
    """A squeezed, rotated Gaussian minus its broadened copy."""
    c, s = math.cos(0.4), math.sin(0.4)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([0.1, 2.5]) @ rot.T
    cov_out = cov + 0.5 * np.eye(2)
    return PlanarProfile((
        GaussianTerm(1.0 / (2.0 * math.sqrt(np.linalg.det(cov))), np.zeros(2), cov),
        GaussianTerm(-1.0 / (2.0 * math.sqrt(np.linalg.det(cov_out))),
                     np.array(center_out), cov_out)))


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
    est = integrate_plane_abs_pow(profile, p, 1e-7)
    assert est.value > 0.0 and est.abs_error_bound <= 1e-7


def test_off_center_cuts_keep_radial_panels_few():
    # at p = 1 a cut off the true sign change leaves a kink inside a panel:
    # 802 panels with the closed-form cuts, 2444 with cuts moved by 1 %,
    # 4137 with none; the value converges either way, so only the count shows it
    est = integrate_plane_abs_pow(squeezed_difference((0.7, -0.3)), 1.0, 1e-7)
    assert est.subdivisions <= 1200


def overlap(t1, t2):
    """int d^2z/pi of the product of two Gaussian terms, in closed form."""
    prec = np.linalg.inv(t1.cov) + np.linalg.inv(t2.cov)
    delta = t1.mean - t2.mean
    quad = delta @ np.linalg.solve(t1.cov + t2.cov, delta)
    return 2.0 * t1.amp * t2.amp / math.sqrt(np.linalg.det(prec)) * math.exp(-0.5 * quad)


def random_term(sign, amp, var1, var2, angle, x, y):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return GaussianTerm(sign * amp, np.array([x, y]), rot @ np.diag([var1, var2]) @ rot.T)


TERMS = st.tuples(st.floats(0.2, 3.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0),
                  st.floats(0.0, math.pi), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(TERMS, TERMS)
def test_l2_matches_pairwise_overlaps(first, second):
    # opposite signs and unequal centers: the ray cuts solve quadratics
    # with a linear term, the case the shared-center route never sees
    t1, t2 = random_term(1.0, *first), random_term(-1.0, *second)
    want = overlap(t1, t1) + 2.0 * overlap(t1, t2) + overlap(t2, t2)
    tol = 1e-8
    est = integrate_plane_abs_pow(PlanarProfile((t1, t2)), 2.0, tol)
    assert abs(est.value - want) <= 10 * tol


def test_even_p_rays_are_not_cut():
    # |f|^2 = f^2 is smooth at a sign change, so a cut only adds panels:
    # 278 with the closed-form cuts, 206 without
    est = integrate_plane_abs_pow(squeezed_difference(), 2.0, 1e-7)
    assert est.subdivisions <= 230


def test_even_p_radial_route_runs_no_sign_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("radial route scanned for sign changes at p = 2")

    monkeypatch.setattr(phasenorm.quadrature, "locate_sign_changes", scan)
    # int W^2 d^2alpha/pi is the purity, 1 for a number state
    est = integrate_radial_abs_pow(radial_profile(number_state(2), 0.0), 2.0, 1e-9)
    assert est.value == pytest.approx(1.0, abs=1e-9)


VACUUM_PAIR = PlanarProfile((iso_term(2.0, 0.25), iso_term(-2.0 / 3.0, 0.75)))
FOCK1 = radial_profile(number_state(1), 0.0)


@pytest.mark.parametrize("integrate,p,reference", [
    (lambda p, tol: integrate_plane_abs_pow(VACUUM_PAIR, p, tol), 1.0, VACUUM_CG_L1),
    (lambda p, tol: integrate_plane_abs_pow(VACUUM_PAIR, p, tol), 2.0, 1.0 / 3.0),
    (lambda p, tol: integrate_radial_abs_pow(FOCK1, p, tol), 1.0, ABS_W1_INTEGRAL),
    (lambda p, tol: integrate_radial_abs_pow(FOCK1, p, tol), 3.0, None),
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
    (lambda tol: integrate_plane_abs_pow(VACUUM_PAIR, 1.0, tol), VACUUM_CG_L1),
    (lambda tol: integrate_radial_abs_pow(FOCK1, 3.0, tol), abs_w1_cubed_integral()),
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

    roots = locate_sign_changes(f, (0.0, 6.0), 6, stop=2.0)
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
    # own stop (inside the bracket or past it, where the grid continues),
    # floor and closing bound, so one row's brackets stay wide while
    # another's shrink and every row's cuts are still bit for bit those of
    # a call of its own on the same grid.  One degree_hint for every call
    # gives the same grid and the same root budget.  No cut is missed: the
    # roots are at least 2 acos(0.9) / 8 apart, far wider than a scan step.
    hint = 30
    step = 6.0 / (32 * (hint + 1))
    fs = [lambda r, w=w, phi=phi, c=c: np.sin(w * r + phi) + c for (w, phi, c), _, _ in rows]
    stops = [stop for _, stop, _ in rows]
    bounds = [bound for _, _, bound in rows]
    joint = locate_sign_changes(lambda r: np.array([f(r) for f in fs]), (0.0, 6.0), hint,
                                stop=stops, close=(bounds, 0.0))
    assert len(joint) == len(rows)
    for ((w, phi, c), stop, bound), f, got in zip(rows, fs, joint):
        alone = locate_sign_changes(f, (0.0, 6.0), hint, stop=stop, close=(bound, 0.0))
        assert list(got) == list(alone)
        assert np.array_equal(got.widths, alone.widths)
        assert np.array_equal(got.heights, alone.heights)
        # each cut lies within its bracket of a root w r + phi = asin(-c) or pi - asin(-c)
        phase = np.asarray(got) * w + phi
        miss = [np.abs((phase - t + math.pi) % (2.0 * math.pi) - math.pi) / w
                for t in (math.asin(-c), math.pi - math.asin(-c))]
        assert np.all(np.minimum(*miss) <= got.widths + 1e-12)
        # a row is scanned up to its first node at or past its stop
        end = phi + w * step * math.ceil(stop / step)
        roots = sum(math.floor((end - t) / (2.0 * math.pi)) - math.floor((phi - t) / (2.0 * math.pi))
                    for t in (math.asin(-c), math.pi - math.asin(-c)))
        assert len(got) == roots
        assert all(0.0 < r < stop + step for r in got)


def test_first_point_from_three_nodes():
    # f = x^2 - 2 on [1.4, 1.45] with the left neighbour 1.35: the inverse
    # interpolant misses sqrt 2 by 8.4e-6, regula falsi by 1.8e-4
    a, b, node = np.array([1.4]), np.array([1.45]), np.array([1.35])
    c = phasenorm.quadrature._first_points(a, b, a**2 - 2.0, b**2 - 2.0, node, node**2 - 2.0)
    falsi = b - (b**2 - 2.0) * (b - a) / (b**2 - a**2)
    assert a[0] < c[0] < b[0]
    assert abs(c[0] - math.sqrt(2.0)) < 0.1 * abs(falsi[0] - math.sqrt(2.0))


@pytest.mark.parametrize("yn", [-1.0 + 1e-12, -1.0, math.nan],
                         ids=["leaves", "not_finite", "no_node"])
def test_first_point_falls_back_to_regula_falsi(yn):
    # a node value at (or next to) the left end's puts the interpolant far
    # outside [a, b] (or makes it infinite); regula falsi takes its place
    c = phasenorm.quadrature._first_points(
        np.array([0.0]), np.array([1.0]), np.array([-1.0]), np.array([3.0]),
        np.array([-0.5]), np.array([yn]))
    assert c[0] == 0.25


def test_kinked_neighbour_still_finds_the_root():
    # a kink between the left neighbour and the bracket gives the node the
    # left end's value, so the first point falls back to regula falsi
    xs = np.linspace(0.0, 3.0, 513)
    step = xs[1]
    kink, depth = xs[200] - 0.5 * step, 0.8 * step
    roots = locate_sign_changes(lambda r: np.abs(np.asarray(r) - kink) - depth, (0.0, 3.0), 1)
    assert np.allclose(roots, [kink - depth, kink + depth], rtol=0.0, atol=1e-12)
    assert np.all(roots.widths <= phasenorm.quadrature.ROOT_XTOL)


def test_closing_bound_stops_each_row_at_its_placement_term():
    # a bracket closes once 4 b w (h + sup) <= bound, each row with its own
    # bound and sup; without a bound every bracket shrinks to ROOT_XTOL
    rows = [lambda r: np.cos(3.0 * r), lambda r: np.sin(2.0 * r) - 0.3]
    bounds, sups = [1e-9, 1e-14], [0.0, 1e-6]
    joint = locate_sign_changes(lambda r: np.array([g(r) for g in rows]), (0.0, 6.0),
                                [6, 4], close=(bounds, sups))
    closed_early = 0
    for g, bound, sup, got in zip(rows, bounds, sups, joint):
        widths = np.asarray(got.widths)
        placement = 4.0 * np.array(got) * widths * (got.heights + sup)
        assert np.all((placement <= bound) | (widths <= phasenorm.quadrature.ROOT_XTOL))
        # every root still lies in its bracket, left of its right end
        lefts = np.array(got) - widths
        assert np.all(g(lefts) * g(np.array(got)) <= 0.0)
        closed_early += int(np.sum(widths > phasenorm.quadrature.ROOT_XTOL))
        alone = locate_sign_changes(g, (0.0, 6.0), 6, close=(bound, sup))
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


def one_rule_per_call(g, edges, budget, max_panels):
    """The worst-first panel loop with one call of g per GL16 rule (oracle)."""
    quad = phasenorm.quadrature

    def gl16(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(quad.LEG_WEIGHTS, g(mid + half * quad.LEG_NODES)))

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
    "squeezed_p1": lambda: integrate_plane_abs_pow(squeezed_difference(), 1.0, 1e-12),
    "fock6_p1.5": lambda: integrate_radial_abs_pow(FOCK6, 1.5, 1e-10),
    "fock6_p2": lambda: integrate_radial_abs_pow(FOCK6, 2.0, 1e-12),
    "fock6_p3": lambda: integrate_radial_abs_pow(FOCK6, 3.0, 1e-12),
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
    """int_0^inf r |sum_i A_i exp(-k_i r^2)| dr along rays with rates k_i
    (an array per term), in closed form (oracle).

    With F(R) = sum_i A_i (1 - exp(-k_i R^2)) / (2 k_i), two terms of
    opposite signs cancel at most once, at r0^2 = ln|A_1/A_2| / (k_1 - k_2)
    when that is > 0, and the ray integrates to |2 F(r0) - F(inf)|; a ray
    without a cut gives |F(inf)|.
    """
    halves = [0.5 * a / k for a, k in zip(amps, rates)]
    whole = sum(halves)
    if len(amps) == 1 or amps[0] * amps[1] > 0.0:
        return np.abs(whole)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0sq = math.log(abs(amps[0] / amps[1])) / (rates[0] - rates[1])
    r0sq = np.where(r0sq > 0.0, r0sq, np.inf)
    rest = sum(h * np.expm1(-k * r0sq) for h, k in zip(halves, rates))
    return np.abs(whole + 2.0 * rest)


def co_centred_l1_on_grid(terms, count=4096):
    """int d^2z/pi |f| of co-centred terms from the closed-form rays at count
    angles spaced evenly over [0, pi) (f is even): the trapezoid rule of a
    smooth periodic integrand.  Against Imhof's form in mpmath at 30 digits
    it is within 2e-15 for the variances and amplitude ratios drawn below."""
    phi = np.arange(count) * (math.pi / count)
    u = np.array([np.cos(phi), np.sin(phi)])
    rates = [0.5 * np.einsum("in,ij,jn->n", u, np.linalg.inv(t.cov), u) for t in terms]
    return 2.0 * ray_l1([t.amp for t in terms], rates).mean()


GRID_ORACLE_ERR = 1e-12
COVS = st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, math.pi))
SIGNED = st.tuples(st.floats(0.2, 5.0), st.sampled_from([-1.0, 1.0]))


def rotated_cov(var1, var2, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c * c * var1 + s * s * var2, c * s * (var1 - var2)],
                     [c * s * (var1 - var2), s * s * var1 + c * c * var2]])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(COVS, COVS, SIGNED, SIGNED,
       st.sampled_from(["pair", "one", "indefinite", "identity"]), st.sampled_from([1e-6, 1e-9]))
def test_co_centred_route_matches_the_rays_on_a_fine_grid(cov1, cov2, amp1, amp2, kind, tol):
    # Imhof's angular form against the closed-form rays: rotated axes that
    # differ, amplitudes of either sign (same-sign pairs too), one term,
    # indefinite pencils (lambda_1 < 1 < lambda_2) and the identity channel
    mean = np.array([0.3, -0.8])
    first = GaussianTerm(amp1[0] * amp1[1], mean, rotated_cov(*cov1))
    if kind == "identity":
        est = integrate_plane_abs_pow(
            PlanarProfile((first, GaussianTerm(-first.amp, mean, first.cov))), 1.0, tol)
        assert est.value == 0.0 and est.abs_error_bound <= tol
        return
    if kind == "indefinite":
        # the second covariance is wider along one axis of the first, narrower along the other
        var1, var2, angle = cov1
        cov2 = (var1 * (1.0 + cov2[0]), var2 / (1.0 + cov2[1]), angle)
    second = GaussianTerm(amp2[0] * amp2[1], mean, rotated_cov(*cov2))
    terms = (first,) if kind == "one" else (first, second)
    assume(kind == "one" or abs(math.log(abs(first.amp / second.amp))) > 0.1)
    est = integrate_plane_abs_pow(PlanarProfile(terms), 1.0, tol)
    assert abs(est.value - co_centred_l1_on_grid(terms)) <= est.abs_error_bound + GRID_ORACLE_ERR
