"""phasenorm: norm distance of a state to its classicalized image in phase
space, with the Gaussian and Fock engines needed to reproduce the no-go
demonstrations (quantum states the distance fails to certify).
"""

from .backend import KERNEL_BACKEND  # noqa: F401  not public; perfbench records it
from .channels import CG, Amplifier, Attenuator, ChannelSpec, Displacement, Rotation
from .fock import (FockDiagonalState, UnsupportedInputError, loss_kraus_decomposition,
                   make_mixture, make_thermal_fock, mix_states, number_state)
from .gaussian import (GaussianState, apply_channel_gaussian, make_coherent,
                       make_squeezed_thermal, make_thermal, min_quadrature_variance)
from .quadrature import IntegralEstimate, RootBudgetExceeded, ToleranceNotReached
from .quantifier import (CERTIFIED_QUANTUM, CLASSICAL_CONSISTENT,
                         NOGO_INSTANCE, FunctionalSpec, QuantifierResult,
                         baseline_with_error, classify, convexity_gap,
                         measure_m, monotonicity_gap_strong,
                         monotonicity_gap_weak, norm_value, wigner_negativity)

__version__ = "0.1.0"

__all__ = [
    "CG", "Amplifier", "Attenuator", "ChannelSpec", "Displacement", "Rotation",
    "FockDiagonalState", "UnsupportedInputError", "loss_kraus_decomposition",
    "make_mixture", "make_thermal_fock", "mix_states", "number_state",
    "GaussianState", "apply_channel_gaussian", "make_coherent",
    "make_squeezed_thermal", "make_thermal", "min_quadrature_variance",
    "IntegralEstimate", "RootBudgetExceeded", "ToleranceNotReached",
    "CERTIFIED_QUANTUM", "CLASSICAL_CONSISTENT", "NOGO_INSTANCE", "FunctionalSpec",
    "QuantifierResult", "baseline_with_error", "classify", "convexity_gap",
    "measure_m", "monotonicity_gap_strong", "monotonicity_gap_weak",
    "norm_value", "wigner_negativity",
]
