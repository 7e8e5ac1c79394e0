"""Seeded workload generators.

Each generator turns a seed key into the list of states one pass of the
workload evaluates, with the facts the correctness gate checks them
against.  The program under test only ever sees the generated states.
The reasons for each workload are in README.md next to this file.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from phasenorm.cli import sample_triplets
from phasenorm.fock import make_mixture, make_thermal_fock, number_state
from phasenorm.gaussian import GaussianState, make_squeezed_thermal


@dataclass(frozen=True)
class Case:
    """One state of a workload and what the gate knows about it.

    ``thermal_nbar`` is set for thermal states, whose N has a closed form;
    ``classical`` marks inputs with a nonnegative P function (M <= err);
    ``quantum_by_variance`` is the expected Gaussian witness, None for
    Fock states.
    """

    label: str
    state: object
    thermal_nbar: float = None
    classical: bool = False
    quantum_by_variance: bool = None


def _rng(key):
    return np.random.Generator(np.random.Philox(key))


def _strata(rng, count, lo, hi):
    """One uniform draw in each of ``count`` equal strata of [lo, hi], shuffled.

    Stratifying keeps the spread of the cost-setting parameter the same on
    every seed, so the run-to-run spread measures the program, not the draw.
    """
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(lo + (hi - lo) * u)


def gaussian_sweep(key):
    """Fig. 1 path: 30 squeezed thermal states plus one thermal anchor.

    Squeezing r is stratified over [0, 1.5] in ascending order and nbar is
    stratified over [0, 2] independently; rotation and displacement are
    uniform (neither changes N, both change the planar frame).
    """
    rng = _rng(key)
    count = 31
    rs = np.concatenate([[0.0], np.sort(_strata(rng, count - 1, 0.0, 1.5))])
    nbars = _strata(rng, count, 0.0, 2.0)
    thetas = rng.uniform(0.0, math.pi, size=count)
    radii = rng.uniform(0.0, 1.0, size=count)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    cases = []
    for r, nbar, theta, rad, phase in zip(rs, nbars, thetas, radii, phases):
        r, nbar, theta = float(r), float(nbar), float(theta)
        mean = (float(rad * math.cos(phase)), float(rad * math.sin(phase)))
        state = GaussianState(np.array(mean), make_squeezed_thermal(nbar, r, theta).cov)
        onset = 0.5 * math.log(2.0 * nbar + 1.0)
        cases.append(Case(
            f"gauss r={r!r} nbar={nbar!r} theta={theta!r} mean={mean!r}", state,
            thermal_nbar=nbar if r == 0.0 else None,
            classical=r <= onset, quantum_by_variance=r > onset))
    return cases


def fock_mixtures(key):
    """Fig. 2 path: the CLI's 100 seeded triplets plus the three corners."""
    triplets = sample_triplets(100, key)
    triplets += [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    cases = []
    for trip in triplets:
        vacuum = trip == (1.0, 0.0, 0.0)
        cases.append(Case(f"mix p={trip!r}", make_mixture(list(trip)),
                          thermal_nbar=0.0 if vacuum else None, classical=vacuum))
    return cases


def fock_highcut(key):
    """High-photon diagonal states: 10 thermal, 10 number, 10 random mixtures.

    Thermal: nbar stratified over [0.5, 3], cutoff stratified over 60-120.
    Number states: n stratified over 5-40.  Mixtures: flat Dirichlet weights
    with cutoff stratified over 10-60.
    """
    rng = _rng(key)
    kind = 10
    cases = []
    nbars = _strata(rng, kind, 0.5, 3.0)
    cutoffs = np.floor(_strata(rng, kind, 60.0, 121.0)).astype(int)
    for nbar, cutoff in zip(nbars, cutoffs):
        nbar, cutoff = float(nbar), int(cutoff)
        cases.append(Case(f"thermal nbar={nbar!r} cutoff={cutoff}",
                          make_thermal_fock(nbar, cutoff),
                          thermal_nbar=nbar, classical=True))
    for n in np.floor(_strata(rng, kind, 5.0, 41.0)).astype(int):
        cases.append(Case(f"number n={int(n)}", number_state(int(n))))
    for cutoff in np.floor(_strata(rng, kind, 10.0, 61.0)).astype(int):
        weights = rng.dirichlet(np.ones(int(cutoff) + 1))
        digest = hashlib.sha256(weights.tobytes()).hexdigest()[:16]
        cases.append(Case(f"random cutoff={int(cutoff)} weights={digest}",
                          make_mixture(weights)))
    return cases


WORKLOADS = {
    "gaussian_sweep": gaussian_sweep,
    "fock_mixtures": fock_mixtures,
    "fock_highcut": fock_highcut,
}


def generate(workload, seed, pass_index):
    """States of one pass.  Every pass of a run draws fresh states, so no
    result can be reused across passes and each run averages several draws."""
    return WORKLOADS[workload](np.random.SeedSequence([seed, pass_index]))


def fingerprint(cases):
    """Short digest of a workload's inputs, to tie reference outputs to them."""
    text = "\n".join(case.label for case in cases)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
