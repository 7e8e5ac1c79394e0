import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasenorm.quadrature
from phasenorm import (GaussianTerm, PlanarProfile, RadialProfile,
                       RootBudgetExceeded, ToleranceNotReached,
                       integrate_plane_abs_pow, integrate_radial_abs_pow,
                       locate_sign_changes, number_state, radial_profile)

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
            profile = dataclasses.replace(profile, mass=None)
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
        roots = locate_sign_changes(f, (0.0, 3.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_vacuum_difference_root(self):
        roots = locate_sign_changes(vacuum_diff_profile().evaluator, (0.0, 4.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(VACUUM_DIFF_ROOT, abs=1e-10)

    def test_strictly_positive_gives_empty(self):
        assert locate_sign_changes(lambda r: np.exp(-np.asarray(r)), (0.0, 5.0)) == []

    def test_identically_zero_gives_empty(self):
        assert locate_sign_changes(lambda r: np.zeros_like(np.asarray(r)), (0.0, 5.0)) == []

    def test_illinois_refines_in_few_calls(self):
        # the scan plus five Illinois steps; bisection took 34 calls
        calls = []

        def f(r):
            calls.append(np.size(r))
            r = np.asarray(r)
            return -2.0 * (1.0 - 4.0 * r**2) * np.exp(-2.0 * r**2)

        roots = locate_sign_changes(f, (0.0, 3.0))
        assert roots == [pytest.approx(0.5, abs=1e-10)]
        assert len(calls) <= 8
        assert roots.widths[0] <= phasenorm.quadrature.ROOT_XTOL

    def test_brackets_close_on_every_root(self):
        # several roots refined together; each final bracket holds its root
        roots = locate_sign_changes(lambda r: np.cos(3.0 * np.asarray(r)), (0.0, 6.0))
        want = (np.arange(6) + 0.5) * math.pi / 3.0
        assert np.max(np.abs(np.array(roots) - want)) <= 1e-12
        assert np.all(roots.widths <= phasenorm.quadrature.ROOT_XTOL)
        assert np.all(np.abs(np.array(roots) - want) <= roots.widths + 1e-15)

    def test_root_budget(self):
        with pytest.raises(RootBudgetExceeded):
            locate_sign_changes(lambda r: np.cos(40.0 * np.asarray(r)), (0.0, 3.0),
                                max_roots=10)


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
