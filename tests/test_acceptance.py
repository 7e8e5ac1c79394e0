"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime limit is pinned here; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.  The last test
pins the bytes of the Fig. 2 CSV and of the ``verify`` report, printed by
the CLI from the rows and results the criteria compute.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from phasenorm import (CG, CERTIFIED_QUANTUM, CLASSICAL_CONSISTENT,
                       FunctionalSpec, GaussianState, NOGO_INSTANCE,
                       baseline_with_error,
                       make_squeezed_thermal, make_thermal, make_thermal_fock,
                       min_quadrature_variance, norm_value, number_state,
                       wigner_negativity)
import phasenorm.cli
from phasenorm.cli import find_crossing, main, run_mixtures, run_sweep
from phasenorm.fock import apply_channel_fock, wigner_s_fock
from phasenorm.gaussian import SUB_VACUUM, wigner_s_gaussian
from phasenorm.verify import run_suite

BASELINE_CG = 4.0 * math.sqrt(3.0) / 9.0
# sha256 of `mixtures --count 100 --seed 42 --include-corners` and of the
# stdout of `verify --suite all`, both at their default tol 1e-6
MIXTURES_SHA256 = "81d1b1fcc36fb6ec52337bba0ad81addc0ed8166081244a6dd83e7f4976e15d5"
VERIFY_SHA256 = "549aa095ec8f2e73a7b99b1bae18099311c5cc99c3099f7283e410c8566c93cf"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def figure2_rows():
    """The Fig. 2 rows at the CLI's defaults, and their runtime."""
    return timed(run_mixtures, 100, seed=42, include_corners=True, tol=1e-6)


@pytest.fixture(scope="module")
def suite_results():
    """The axiom results with their runtime, and the oracle results."""
    axioms, elapsed = timed(run_suite, "axioms", tol=1e-6)
    return axioms, elapsed, run_suite("oracles", tol=1e-6)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}: {name} -- {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_baseline_closed_form_vs_quadrature():
    start = time.perf_counter()
    value, err = baseline_with_error(CG, FunctionalSpec(), 1e-7)
    quad, _ = norm_value(GaussianState(), CG, FunctionalSpec(), 1e-8)
    elapsed = time.perf_counter() - start
    dev = abs(quad - BASELINE_CG)
    ok = value == BASELINE_CG and dev <= 1e-7 and elapsed < 1.0
    report("criterion 1 (baseline 4*sqrt(3)/9)", ok,
           f"closed={value:.9f} quadrature_dev={dev:.2e} (tol 1e-7), "
           f"runtime {elapsed:.2f}s < 1s")


def test_criterion_2_figure1_reproduction():
    start = time.perf_counter()
    onset = 0.5 * math.log(3.0)
    onset_ok = (not min_quadrature_variance(make_squeezed_thermal(1.0, onset - 1e-6)) < SUB_VACUUM
                and min_quadrature_variance(make_squeezed_thermal(1.0, onset + 1e-6)) < SUB_VACUUM
                and abs(onset - 0.5493) < 1e-4)

    r_star, m_lo, m_hi, _ = find_crossing(1.0, tol=1e-5)
    crossing_ok = 0.90 <= r_star <= 1.00

    rows = run_sweep(1.0, 0.0, 1.5, 61, tol=1e-6)
    window = [row for row in rows if 0.60 - 1e-12 <= row.r <= 0.90 + 1e-12]
    nogo_ok = len(window) > 0 and all(
        row.classification == NOGO_INSTANCE for row in window)
    monotone_ok = all(b.n_value >= a.n_value - 2e-6
                      for a, b in zip(rows[:-1], rows[1:]))
    elapsed = time.perf_counter() - start
    ok = onset_ok and crossing_ok and nogo_ok and monotone_ok and elapsed < 60.0
    report("criterion 2 (Fig. 1, nbar=1)", ok,
           f"onset flip at ln(3)/2={onset:.4f}: {onset_ok}; r*={r_star:.4f} in "
           f"[0.90, 1.00]: {crossing_ok}; all {len(window)} rows in [0.60, 0.90] "
           f"nogo: {nogo_ok}; N nondecreasing: {monotone_ok}; "
           f"runtime {elapsed:.1f}s < 60s")


def test_criterion_3_figure2_reproduction(figure2_rows):
    rows, elapsed = figure2_rows
    sampled = [row for row in rows if row.seed_index >= 0]
    corners = {row.seed_index: row for row in rows if row.seed_index < 0}
    nogo_rows = [row for row in sampled
                 if row.wigner_negativity > 1e-3 and row.m_value < -1e-4]
    corners_ok = (corners[-1].classification == CLASSICAL_CONSISTENT
                  and corners[-2].classification == CERTIFIED_QUANTUM
                  and corners[-3].classification == CERTIFIED_QUANTUM)
    ok = len(sampled) == 100 and len(nogo_rows) >= 1 and corners_ok and elapsed < 120.0
    report("criterion 3 (Fig. 2, 100 seeded triplets)", ok,
           f"{len(nogo_rows)} no-go rows (negativity > 1e-3, m < -1e-4) among "
           f"100 at seed 42; corners |0>/|1>/|2> = "
           f"{corners[-1].classification}/{corners[-2].classification}/"
           f"{corners[-3].classification}; runtime {elapsed:.1f}s < 120s")


def test_criterion_4_negativity_golden_values():
    neg1 = wigner_negativity(number_state(1), 1e-7)
    neg2 = wigner_negativity(number_state(2), 1e-7)
    want1 = 4.0 * math.exp(-0.5) - 2.0    # analytic
    want2 = 0.7289892577870898            # pinned piecewise closed form
    ok = abs(neg1 - want1) <= 1e-6 and abs(neg2 - want2) <= 1e-6
    report("criterion 4 (Wigner negativity goldens)", ok,
           f"|1>: {neg1:.9f} vs {want1:.9f}; |2>: {neg2:.9f} vs {want2:.9f} "
           "(both within 1e-6)")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    grid = np.linspace(0.0, 4.0, 81)
    worst_shift = 0.0
    for n in range(6):
        state = number_state(n)
        out = apply_channel_fock(state, CG)
        assert out.tail_mass_bound <= 1e-10
        diff = np.max(np.abs(wigner_s_fock(out, 0.0, grid)
                             - wigner_s_fock(state, -2.0, grid)))
        worst_shift = max(worst_shift, float(diff))
    worst_thermal = 0.0
    for nbar in (0.5, 1.0, 2.0):
        fock = make_thermal_fock(nbar, cutoff=120)
        gauss = make_thermal(nbar)
        for s in (0.0, -1.0, -2.0):
            diff = np.max(np.abs(wigner_s_fock(fock, s, grid)
                                 - wigner_s_gaussian(gauss, s, grid.astype(complex))))
            worst_thermal = max(worst_thermal, float(diff))
    elapsed = time.perf_counter() - start
    ok = worst_shift <= 1e-6 and worst_thermal <= 1e-8 and elapsed < 30.0
    report("criterion 5 (oracle equivalence)", ok,
           f"classicalize vs ordering shift sup={worst_shift:.2e} (tol 1e-6); "
           f"cross-engine thermal sup={worst_thermal:.2e} (tol 1e-8); "
           f"runtime {elapsed:.1f}s < 30s")


def test_criterion_6_axiom_suite(suite_results):
    results, elapsed, _ = suite_results
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 120.0
    report("criterion 6 (axiom suite)", ok,
           f"{len(results)} checks (convexity, invariance, weak/strong "
           f"monotonicity, classical bound, no-go existence), failures: "
           f"{failed or 'none'}; runtime {elapsed:.1f}s < 120s")


def test_criterion_7_csv_determinism(tmp_path):
    pairs = []
    for tag, args in (("sweep", ["sweep", "--nbar", "1", "--r-min", "0",
                                 "--r-max", "1.2", "--steps", "9"]),
                      ("mixtures", ["mixtures", "--count", "12", "--seed", "42"])):
        paths = [tmp_path / f"{tag}_{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        pairs.append((tag, paths[0].read_bytes() == paths[1].read_bytes()))
    ok = all(same for _, same in pairs)
    report("criterion 7 (CSV determinism)", ok,
           "; ".join(f"{tag}: byte-identical={same}" for tag, same in pairs))


def test_outputs_match_pinned_digests(figure2_rows, suite_results, tmp_path, capsys,
                                      monkeypatch):
    # the CLI formats and writes the rows and results computed above, so
    # every byte of both outputs is pinned without computing them again
    axioms, _, oracles = suite_results
    monkeypatch.setattr(phasenorm.cli, "run_mixtures", lambda *args: figure2_rows[0])
    monkeypatch.setattr(phasenorm.cli, "run_suite", lambda *args: axioms + oracles)
    path = tmp_path / "mixtures.csv"
    assert main(["mixtures", "--count", "100", "--seed", "42", "--include-corners",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "all"]) == 0
    digests = {"mixtures": hashlib.sha256(path.read_bytes()).hexdigest(),
               "verify": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    report("outputs byte-identical to the pinned digests",
           digests == {"mixtures": MIXTURES_SHA256, "verify": VERIFY_SHA256},
           f"mixtures sha256 {digests['mixtures']}; verify sha256 {digests['verify']}")
