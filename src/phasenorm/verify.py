"""Executable property batteries: resource-theory axioms and numeric oracles.

Each check returns a :class:`CheckResult` whose ``value`` is the worst
margin observed; the sign convention is stated per check in ``detail``.
The CLI ``verify`` subcommand prints one machine-readable line per check;
the pytest suite asserts the same batteries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import (CG, Amplifier, Attenuator, ChannelSpec, Displacement,
                       Rotation)
from .fock import (amplify_fock, apply_channel_fock, attenuate_fock,
                   loss_kraus_decomposition, make_mixture, make_thermal_fock,
                   mean_photons, number_state, radial_l1, radial_profile, wigner_s_fock)
from .gaussian import (GaussianState, apply_channel_gaussian, make_coherent,
                       make_squeezed_thermal, make_thermal, wigner_s_gaussian)
from .quadrature import integrate_radial_abs_pow
from .quantifier import (NOGO_INSTANCE, FunctionalSpec, baseline_with_error,
                         convexity_gap, measure_m, monotonicity_gap_strong,
                         monotonicity_gap_weak, norm_value)

W1 = FunctionalSpec(s=0.0, p=1.0)

# a Fock mixture that is Wigner-negative yet lands below the baseline
# (no-go instance); values confirmed by the radial quadrature oracle
NOGO_MIXTURE = (0.38, 0.57, 0.05)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float
    detail: str


def _monotone_battery():
    # Fixed battery for the loss-monotonicity checks.  Bare thermal states
    # are deliberately absent: loss drags every state toward the vacuum,
    # which maximizes N among classical states, so states that start below
    # the vacuum distance can only move up (see check_loss_monotonicity_domain,
    # which pins that counterexample).  Every state listed here is verified
    # to satisfy the inequality at lambda in {0.2, 0.5, 0.8}.
    return [
        ("vacuum", GaussianState()),
        ("coherent_1+2j", make_coherent(1 + 2j)),
        ("squeezed_thermal_1_0.7", make_squeezed_thermal(1.0, 0.7)),
        ("squeezed_thermal_1_1.2", make_squeezed_thermal(1.0, 1.2)),
        ("squeezed_thermal_0_0.5", make_squeezed_thermal(0.0, 0.5)),
    ] + _fock_battery()


def _fock_battery():
    return [
        ("fock_0", number_state(0)),
        ("fock_1", number_state(1)),
        ("fock_2", number_state(2)),
        ("mixture_0.2_0.3_0.5", make_mixture([0.2, 0.3, 0.5])),
        ("nogo_mixture", make_mixture(NOGO_MIXTURE)),
    ]


def _classical_battery():
    return [
        ("coherent_0", make_coherent(0)),
        ("coherent_2-1j", make_coherent(2 - 1j)),
        ("thermal_gauss_0.5", make_thermal(0.5)),
        ("thermal_gauss_1", make_thermal(1.0)),
        ("thermal_gauss_2", make_thermal(2.0)),
        ("thermal_fock_0.5", make_thermal_fock(0.5)),
        ("thermal_fock_1", make_thermal_fock(1.0)),
        ("thermal_fock_2", make_thermal_fock(2.0)),
        # diagonal mixtures arising from channels on classical inputs
        ("attenuated_thermal_fock", attenuate_fock(make_thermal_fock(1.0), 0.7)),
        ("classicalized_vacuum", apply_channel_fock(number_state(0), CG)),
    ]


def _random_mixture(rng, smallest):
    """A diagonal state on |0>..|cut>, cut drawn from [smallest, 6), uniform weights."""
    cut = int(rng.integers(smallest, 6))
    w = rng.uniform(size=cut + 1)
    return make_mixture(w / w.sum())


# ------------------------------------------------------------------ axioms

def check_classical_bound(tol):
    worst = -math.inf
    worst_name = ""
    for name, state in _classical_battery():
        res = measure_m(state, CG, W1, tol)
        excess = res.m_value - res.err
        if excess > worst:
            worst, worst_name = excess, name
    return CheckResult("axioms", "classical_bound", worst <= 0.0, worst,
                       f"max m_value - err over classical battery (worst {worst_name}); "
                       "must be <= 0")


def check_invariance(tol):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        nbar = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(0.0, 1.2))
        theta = float(rng.uniform(0.0, math.pi))
        state = make_squeezed_thermal(nbar, r, theta)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        moved = apply_channel_gaussian(
            state, ChannelSpec((Rotation(phi), Displacement(alpha))))
        n0, _ = norm_value(state, CG, W1, tol)
        n1, _ = norm_value(moved, CG, W1, tol)
        worst = max(worst, abs(n1 - n0))
    return CheckResult("axioms", "displacement_rotation_invariance",
                       worst <= 2.0 * tol, worst,
                       "max |N(U rho U^+) - N(rho)| over 20 random Gaussian "
                       "states; must be <= 2 tol")


def check_convexity(tol):
    rng = np.random.default_rng(11)
    worst = math.inf
    for _ in range(50):
        k = int(rng.integers(2, 5))
        states = [_random_mixture(rng, 1) for _ in range(k)]
        lam = rng.uniform(0.0, 1.0, size=k)
        lam = lam / lam.sum()
        gap = convexity_gap(states, lam, CG, W1, tol)
        worst = min(worst, gap + (k + 1) * tol)
    return CheckResult("axioms", "convexity", worst >= 0.0, worst,
                       "min gap + err budget over 50 random mixtures; "
                       "must be >= 0")


def check_weak_monotonicity(tol):
    worst = math.inf
    worst_name = ""
    for lam in (0.2, 0.5, 0.8):
        for name, state in _monotone_battery():
            gap = monotonicity_gap_weak(state, lam, CG, W1, tol)
            margin = gap + 2.0 * tol
            if margin < worst:
                worst, worst_name = margin, f"{name}@lam={lam}"
    return CheckResult("axioms", "weak_monotonicity", worst >= 0.0, worst,
                       f"min gap + err budget (worst {worst_name}); must be >= 0")


def check_strong_monotonicity(tol):
    worst = math.inf
    worst_name = ""
    for lam in (0.2, 0.5, 0.8):
        for name, state in _fock_battery():
            strong = monotonicity_gap_strong(state, lam, CG, W1, tol)
            weak = monotonicity_gap_weak(state, lam, CG, W1, tol)
            budget = (state.cutoff + 2) * tol
            # convexity: averaging the branch norms upper-bounds the norm of
            # the branch mixture, so the strong gap never exceeds the weak one
            margin = min(strong + budget, weak - strong + budget + 2.0 * tol)
            if margin < worst:
                worst, worst_name = margin, f"{name}@lam={lam}"
    return CheckResult("axioms", "strong_monotonicity", worst >= 0.0, worst,
                       f"min of strong gap and weak - strong with err budgets "
                       f"(worst {worst_name}); must be >= 0")


def check_loss_monotonicity_domain(tol):
    # documented domain restriction: the attenuator is not a monotone for
    # states whose distance is below the vacuum value; thermal nbar=1 under
    # 80% loss is a closed-form counterexample (0.3718 -> 0.6320)
    gap = monotonicity_gap_weak(make_thermal(1.0), 0.2, CG, W1, tol)
    return CheckResult("axioms", "loss_monotonicity_domain", gap < 0.0, gap,
                       "weak gap of thermal nbar=1 at lambda=0.2 is negative: loss "
                       "moves sub-baseline states toward the vacuum maximizer, so "
                       "the monotonicity battery pins states where the bound holds")


def check_nogo_existence(tol):
    gauss = measure_m(make_squeezed_thermal(1.0, 0.7), CG, W1, tol)
    fock = measure_m(make_mixture(NOGO_MIXTURE), CG, W1, tol)
    ok = gauss.classification == NOGO_INSTANCE and fock.classification == NOGO_INSTANCE
    return CheckResult("axioms", "nogo_existence", ok,
                       min(-gauss.m_value, -fock.m_value),
                       "squeezed thermal (1, 0.7) and the pinned Fock mixture are "
                       "both witnessed quantum with m <= 0")


# ----------------------------------------------------------------- oracles

def check_s_shift_fock(tol):
    grid = np.linspace(0.0, 4.0, 81)
    worst = 0.0
    for n in range(6):
        state = number_state(n)
        shifted = apply_channel_fock(state, CG)
        diff = np.max(np.abs(wigner_s_fock(shifted, 0.0, grid)
                             - wigner_s_fock(state, -2.0, grid)))
        worst = max(worst, float(diff))
    return CheckResult("oracles", "s_shift_fock", worst <= 1e-6, worst,
                       "sup over rho in [0,4] of |W0(C_g|n>) - W^(-2)(|n>)|, n <= 5")


def check_cross_engine_thermal(tol):
    grid = np.linspace(0.0, 4.0, 81)
    worst = 0.0
    for nbar in (0.5, 1.0, 2.0):
        fock = make_thermal_fock(nbar, cutoff=120)
        gauss = make_thermal(nbar)
        for s in (0.0, -1.0, -2.0):
            diff = np.max(np.abs(wigner_s_fock(fock, s, grid)
                                 - wigner_s_gaussian(gauss, s, grid.astype(complex))))
            worst = max(worst, float(diff))
    return CheckResult("oracles", "cross_engine_thermal", worst <= 1e-8, worst,
                       "sup |W_fock - W_gauss| over thermal states, s in {0,-1,-2}")


def check_baseline_closed_form(tol):
    dev = abs(baseline_with_error(CG, W1, tol)[0] - 4.0 * math.sqrt(3.0) / 9.0)
    return CheckResult("oracles", "baseline_closed_form", dev <= 1e-7, dev,
                       "|baseline - 4 sqrt(3)/9| for the vacuum under C_g")


def check_thermal_closed_form(tol):
    closed = 2.0 * (0.6**1.5 - 0.6**2.5)
    value, _ = norm_value(make_thermal(1.0), CG, W1, min(tol, 1e-8))
    dev = abs(value - closed)
    return CheckResult("oracles", "thermal_closed_form", dev <= 1e-7, dev,
                       "|quadrature - closed form| for thermal nbar=1 under C_g")


def check_cg_covariance_shift(tol):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        nu = float(rng.uniform(0.25, 1.0))
        r = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        state = make_squeezed_thermal((4.0 * nu - 1.0) / 2.0, r, theta)
        out = apply_channel_gaussian(state, CG)
        worst = max(worst,
                    float(np.max(np.abs(out.cov - state.cov - np.diag([0.5, 0.5])))),
                    float(np.max(np.abs(out.mean - state.mean))))
    return CheckResult("oracles", "cg_covariance_shift", worst <= 1e-15, worst,
                       "max |cov_out - cov_in - I/2| over 100 random covariances")


def check_channel_composition(tol):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        ch = ChannelSpec((
            Attenuator(float(rng.uniform(0.1, 1.0))),
            Rotation(float(rng.uniform(0, 2 * math.pi))),
            Amplifier(float(rng.uniform(1.0, 3.0))),
            Displacement(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
        ))
        state = make_squeezed_thermal(float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
        seq = state
        for el in ch.elements:
            seq = apply_channel_gaussian(seq, ChannelSpec((el,)))
        once = apply_channel_gaussian(state, ch)
        worst = max(worst, float(np.max(np.abs(once.cov - seq.cov))),
                    float(np.max(np.abs(once.mean - seq.mean))))
    return CheckResult("oracles", "channel_composition_matrix_algebra",
                       worst <= 1e-14, worst,
                       "max |one-shot fold - element by element| of cov and mean "
                       "over 50 random channels")


def check_normalization(tol):
    # signed normalization equals the abs integral only for W >= 0, so the
    # battery uses classicalized mixtures, whose W^(s) is nonnegative, on the
    # Fock engine's exact p = 1 route.  It has no planar half: the planar
    # integrator always takes the difference of two Gaussians, whose
    # integral of |f| is a distance between them, not a mass
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(4):
        state = apply_channel_fock(_random_mixture(rng, 1), CG)
        for s in (0.0, -1.0, -2.0):
            est, = radial_l1(state, ((s, None),), (1e-8,))
            worst = max(worst, abs(est.value - 1.0))
    return CheckResult("oracles", "wigner_normalization", worst <= 1e-8 + 1e-9, worst,
                       "max |int W^(s) - 1| over classicalized Fock mixtures")


def check_amplifier_mean_photons(tol):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(8):
        state = _random_mixture(rng, 0)
        g = float(rng.uniform(1.0, 3.0))
        out = amplify_fock(state, g)
        expected = g * mean_photons(state) + (g - 1.0)
        worst = max(worst, abs(mean_photons(out) - expected))
    return CheckResult("oracles", "amplifier_mean_photons", worst <= 1e-8, worst,
                       "max |<n>_out - (g <n>_in + g - 1)| over random diagonal states")


def check_kraus_recombination(tol):
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(8):
        state = _random_mixture(rng, 0)
        lam = float(rng.uniform(0.1, 0.9))
        branches = loss_kraus_decomposition(state, lam)
        psum = sum(pk for pk, _ in branches)
        recombined = np.zeros(len(state.weights))
        for pk, rk in branches:
            recombined[: len(rk.weights)] += pk * rk.weights
        direct = attenuate_fock(state, lam)
        worst = max(worst, abs(psum - 1.0),
                    float(np.max(np.abs(recombined - direct.weights))))
    return CheckResult("oracles", "loss_kraus_recombination", worst <= 1e-12, worst,
                       "max |sum p_k - 1| and |sum p_k rho_k - E_lam(rho)|")


def check_s_shift_quantifier(tol):
    worst = 0.0
    for _, state in _fock_battery():
        out = apply_channel_fock(state, CG)
        via_channel = integrate_radial_abs_pow(
            lambda r: wigner_s_fock(state, 0.0, r) - wigner_s_fock(out, 0.0, r),
            radial_profile(state, 0.0)[1] + radial_profile(out, 0.0)[1],
            state.cutoff + out.cutoff + 2, 1.0, tol).value
        shifted, _ = norm_value(state, CG, W1, tol)
        worst = max(worst, abs(shifted - via_channel))
    return CheckResult("oracles", "s_shift_quantifier", worst <= 2.0 * tol + 1e-8,
                       worst, "N via ordering shift vs N via transition-law C_g(rho)")


AXIOM_CHECKS = (check_classical_bound, check_invariance, check_convexity,
                check_weak_monotonicity, check_strong_monotonicity,
                check_loss_monotonicity_domain, check_nogo_existence)

ORACLE_CHECKS = (check_s_shift_fock, check_cross_engine_thermal,
                 check_baseline_closed_form, check_thermal_closed_form,
                 check_cg_covariance_shift, check_channel_composition,
                 check_normalization, check_amplifier_mean_photons,
                 check_kraus_recombination, check_s_shift_quantifier)


def run_suite(suite="all", tol=1e-6):
    checks = {
        "axioms": AXIOM_CHECKS,
        "oracles": ORACLE_CHECKS,
        "all": AXIOM_CHECKS + ORACLE_CHECKS,
    }[suite]
    return [check(tol) for check in checks]
