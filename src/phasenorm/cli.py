"""Command-line driver: baseline value, squeezing sweep, baseline crossing,
seeded Fock-mixture scan, and the verification suites.

All CSV artifacts are deterministic: quadrature is deterministic, the
simplex sampler uses a counter-based Philox generator, and floats are
written with fixed 7-significant-digit formatting, so identical flags
yield byte-identical files.  Exit codes: 0 success, 1 runtime failure
(a quadrature that misses its tolerance or root budget, or a parameter
out of a state's or a search's domain, among them), 2 usage error.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import CG
from .fock import make_mixture
from .gaussian import make_squeezed_thermal
from .quadrature import RootBudgetExceeded, ToleranceNotReached
from .quantifier import DEFAULT_TOL, FunctionalSpec, baseline_with_error, measure_m
from .verify import run_suite

SWEEP_HEADER = "r,n_value,err,baseline,m_value,quantum_by_variance,classification"
MIXTURE_HEADER = "p0,p1,p2,n_value,m_value,wigner_negativity,classification,seed_index"
CROSSING_R_HI = 2.0  # upper end of the crossing bracket


def _fmt(x):
    return f"{x:.7g}"


@dataclass(frozen=True)
class SweepRow:
    r: float
    n_value: float
    err: float
    baseline: float
    m_value: float
    quantum_by_variance: int
    classification: str

    def csv(self):
        return ",".join([_fmt(self.r), _fmt(self.n_value), _fmt(self.err),
                         _fmt(self.baseline), _fmt(self.m_value),
                         str(self.quantum_by_variance), self.classification])


@dataclass(frozen=True)
class MixtureRow:
    p0: float
    p1: float
    p2: float
    n_value: float
    m_value: float
    wigner_negativity: float
    classification: str
    seed_index: int

    def csv(self):
        return ",".join([_fmt(self.p0), _fmt(self.p1), _fmt(self.p2),
                         _fmt(self.n_value), _fmt(self.m_value),
                         _fmt(self.wigner_negativity), self.classification,
                         str(self.seed_index)])


def run_sweep(nbar, r_min, r_max, steps, tol=DEFAULT_TOL):
    """SweepRow list over an evenly spaced squeezing grid (ascending r)."""
    rows = []
    for r in np.linspace(r_min, r_max, steps):
        res = measure_m(make_squeezed_thermal(nbar, float(r)), CG,
                        FunctionalSpec(), tol)
        rows.append(SweepRow(float(r), res.n_value, res.err, res.baseline,
                             res.m_value, int(res.witness_quantum),
                             res.classification))
    return rows


def sample_triplets(count, seed):
    """Uniform simplex triplets via sorted-uniform spacings, Philox counter RNG."""
    rng = np.random.Generator(np.random.Philox(seed))
    triplets = []
    for _ in range(count):
        u = np.sort(rng.uniform(size=2))
        triplets.append((float(u[0]), float(u[1] - u[0]), float(1.0 - u[1])))
    return triplets


def run_mixtures(count, seed, include_corners=False, tol=DEFAULT_TOL):
    """MixtureRow list for seeded random triplets (corners appended last).

    Corner rows carry seed_index -1, -2, -3 for (1,0,0), (0,1,0), (0,0,1).
    """
    jobs = [(i, trip) for i, trip in enumerate(sample_triplets(count, seed))]
    if include_corners:
        jobs += [(-1, (1.0, 0.0, 0.0)), (-2, (0.0, 1.0, 0.0)), (-3, (0.0, 0.0, 1.0))]
    rows = []
    for index, (p0, p1, p2) in jobs:
        res = measure_m(make_mixture([p0, p1, p2]), CG, FunctionalSpec(), tol)
        rows.append(MixtureRow(p0, p1, p2, res.n_value, res.m_value,
                               res.witness_value, res.classification, index))
    return rows


def find_crossing(nbar, tol=1e-5):
    """Bisect for r* with M(rho_st(r*)) = 0 above the quantumness onset.

    Returns (r_star, m_lo, m_hi, onset).  Raises ValueError when the onset
    is not below CROSSING_R_HI (nbar >= (e^4 - 1)/2), before any
    quadrature, and RuntimeError when M has no certified sign change on
    [onset, CROSSING_R_HI] (for some nbar the measure is positive for
    every r past the onset and no crossing exists).
    """
    onset = 0.5 * math.log(2.0 * nbar + 1.0)
    if not onset < CROSSING_R_HI:
        raise ValueError(f"onset {onset:.4g} of nbar={nbar:.4g} is not below the "
                         f"crossing bracket's upper end r = {CROSSING_R_HI:.4g}")
    quad_tol = min(tol / 20.0, 1e-6)

    def m_of(r):
        res = measure_m(make_squeezed_thermal(nbar, r), CG, FunctionalSpec(), quad_tol)
        return res.m_value, res.err

    lo = None
    for probe in (onset + 0.05, onset + 0.1, onset + 0.2):
        m_probe, err_probe = m_of(probe)
        if m_probe < -err_probe:
            lo, m_lo = probe, m_probe
            break
    m_hi, err_hi = m_of(CROSSING_R_HI)
    if lo is None or m_hi < err_hi:
        raise RuntimeError(
            f"no certified sign change of M on [{onset:.4g}, {CROSSING_R_HI:.4g}] "
            f"for nbar={nbar:.4g}; measure does not cross the baseline there")
    hi = CROSSING_R_HI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m_mid, _ = m_of(mid)
        if abs(m_mid) <= tol or hi - lo < 1e-12:
            return mid, m_lo, m_hi, onset
        if m_mid < 0.0:
            lo, m_lo = mid, m_mid
        else:
            hi, m_hi = mid, m_mid
    return 0.5 * (lo + hi), m_lo, m_hi, onset


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")


def _cmd_baseline(args):
    value, err = baseline_with_error(CG, FunctionalSpec(args.s, args.p), args.tol)
    print(f"baseline,{_fmt(value)},{err:.3g}")
    return 0


def _cmd_sweep(args):
    rows = run_sweep(args.nbar, args.r_min, args.r_max, args.steps, args.tol)
    try:
        _write_rows(args.out, SWEEP_HEADER, rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"sweep,{len(rows)} rows,{args.out}")
    return 0


def _cmd_crossing(args):
    try:
        r_star, m_lo, m_hi, onset = find_crossing(args.nbar, args.tol)
    except RuntimeError as exc:
        print(f"onset,{_fmt(0.5 * math.log(2.0 * args.nbar + 1.0))}")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"onset,{_fmt(onset)}")
    print(f"crossing,{_fmt(r_star)},{_fmt(m_lo)},{_fmt(m_hi)}")
    return 0


def _cmd_mixtures(args):
    rows = run_mixtures(args.count, args.seed, args.include_corners, args.tol)
    try:
        _write_rows(args.out, MIXTURE_HEADER, rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"mixtures,{len(rows)} rows,{args.out}")
    return 0


def _cmd_verify(args):
    results = run_suite(args.suite, args.tol)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{status},{res.suite},{res.name},{_fmt(res.value)}")
    print(f"summary,pass={len(results) - failed},fail={failed}")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasenorm",
        description="Phase-space norm distance to the Gaussian classicalization "
                    "channel: baseline, sweeps, mixture scans, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="print N of the vacuum for (s, p)")
    p.add_argument("--s", type=float, default=0.0, help="ordering parameter (<= 0)")
    p.add_argument("--p", type=float, default=1.0, help="norm order (>= 1)")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("sweep", help="squeezed-thermal sweep CSV over r")
    p.add_argument("--nbar", type=float, default=1.0)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.5)
    p.add_argument("--steps", type=int, default=61)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crossing", help="bisect for M = 0 above the onset")
    p.add_argument("--nbar", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=_cmd_crossing)

    p = sub.add_parser("mixtures", help="seeded Fock-mixture scan CSV")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--include-corners", action="store_true",
                   help="append the pure |0>, |1>, |2> corner rows")
    p.set_defaults(func=_cmd_mixtures)

    p = sub.add_parser("verify", help="run the axiom/oracle check batteries")
    p.add_argument("--suite", choices=("axioms", "oracles", "all"), default="all")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)
    return parser


def _validate(parser, args):
    for name in ("tol", "s", "p", "nbar", "r_min", "r_max"):
        if not math.isfinite(getattr(args, name, 0.0)):
            parser.error(f"--{name.replace('_', '-')} must be finite")
    if getattr(args, "tol", 1.0) <= 0.0:
        parser.error("--tol must be positive")
    if args.command == "baseline":
        if args.s > 0.0:
            parser.error("--s must be <= 0 (ordering parameter)")
        if args.p < 1.0:
            parser.error("--p must be >= 1 (norm order)")
    elif args.command == "sweep":
        if args.steps < 2:
            parser.error("--steps must be >= 2")
        if not args.r_min < args.r_max:
            parser.error("--r-min must be smaller than --r-max")
        if args.nbar < 0 or args.r_min < 0:
            parser.error("--nbar and --r-min must be >= 0")
    elif args.command == "crossing":
        if args.nbar < 0:
            parser.error("--nbar must be >= 0")
    elif args.command == "mixtures":
        if args.count < 1:
            parser.error("--count must be >= 1")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except (ToleranceNotReached, RootBudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
