"""phasenorm: norm distance of a state to its classicalized image in phase
space, with the Gaussian and Fock engines needed to reproduce the no-go
demonstrations (quantum states the distance fails to certify).
"""

from .backend import KERNEL_BACKEND
from .channels import (CG, IDENTITY, Amplifier, Attenuator, ChannelSpec,
                       Displacement, Rotation)
from .fock import (FockDiagonalState, UnsupportedInputError, amplify_fock,
                   apply_channel_fock, attenuate_fock, loss_kraus_decomposition,
                   make_mixture, make_thermal_fock, mean_photons, mix_states,
                   number_state, radial_profile, wigner_s_fock)
from .gaussian import (GaussianState, apply_channel_gaussian,
                       is_quantum_gaussian, make_coherent,
                       make_squeezed_thermal, make_thermal,
                       min_quadrature_variance, wigner_s_gaussian)
from .quadrature import (GaussianTerm, IntegralEstimate, PlanarProfile,
                         RadialProfile, RootBudgetExceeded,
                         ToleranceNotReached, integrate_plane_abs_pow,
                         integrate_radial_abs_pow, locate_sign_changes)
from .quantifier import (CERTIFIED_QUANTUM, CLASSICAL_CONSISTENT,
                         NOGO_INSTANCE, FunctionalSpec, QuantifierResult,
                         baseline_with_error, classify, convexity_gap,
                         measure_m, monotonicity_gap_strong,
                         monotonicity_gap_weak, norm_value, wigner_negativity)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND", "CG", "IDENTITY", "Amplifier", "Attenuator",
    "ChannelSpec", "Displacement", "Rotation", "FockDiagonalState",
    "UnsupportedInputError", "amplify_fock", "apply_channel_fock",
    "attenuate_fock", "loss_kraus_decomposition", "make_mixture",
    "make_thermal_fock", "mean_photons", "mix_states", "number_state",
    "radial_profile", "wigner_s_fock", "GaussianState",
    "apply_channel_gaussian", "is_quantum_gaussian",
    "make_coherent", "make_squeezed_thermal", "make_thermal",
    "min_quadrature_variance", "wigner_s_gaussian", "GaussianTerm",
    "IntegralEstimate", "PlanarProfile", "RadialProfile",
    "RootBudgetExceeded", "ToleranceNotReached", "integrate_plane_abs_pow",
    "integrate_radial_abs_pow", "locate_sign_changes", "CERTIFIED_QUANTUM",
    "CLASSICAL_CONSISTENT", "NOGO_INSTANCE", "FunctionalSpec",
    "QuantifierResult", "baseline_with_error", "classify", "convexity_gap",
    "measure_m", "monotonicity_gap_strong", "monotonicity_gap_weak",
    "norm_value", "wigner_negativity",
]
