"""Every constructor rejects NaN and infinities, wherever they sit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenorm import (Amplifier, Attenuator, Displacement, FockDiagonalState,
                       FunctionalSpec, GaussianState, Rotation)

BAD = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(-10.0, 10.0)


def poked(values, index, bad):
    """``values`` with ``bad`` at ``index`` (taken modulo the length)."""
    values = list(values)
    values[index % len(values)] = bad
    return values


BUILDS = {
    "mean": lambda bad, i, x: GaussianState(poked([x[0], x[-1]], i, bad)),
    "cov": lambda bad, i, x: GaussianState(
        np.zeros(2), np.reshape(poked([0.5, 0.1, 0.1, 0.5], i, bad), (2, 2))),
    "weights": lambda bad, i, x: FockDiagonalState(
        poked((np.abs(x) + 1.0) / np.sum(np.abs(x) + 1.0), i, bad)),
    "functional": lambda bad, i, x: FunctionalSpec(*poked([-abs(x[0]), 1.0 + abs(x[-1])],
                                                          i, bad)),
    "attenuator": lambda bad, i, x: Attenuator(bad),
    "amplifier": lambda bad, i, x: Amplifier(bad),
    "rotation": lambda bad, i, x: Rotation(bad),
    "displacement": lambda bad, i, x: Displacement(complex(*poked([x[0], x[-1]], i, bad))),
}


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(BUILDS)), BAD, st.integers(0, 2**16),
       st.lists(FINITE, min_size=1, max_size=12))
def test_non_finite_input_rejected(kind, bad, index, values):
    with pytest.raises(ValueError):
        BUILDS[kind](bad, index, values)
