"""The package's public names: adding or removing one is a deliberate edit here.

The integrator layer (profiles, integrators, the sign scan) is not among
them; it lives in ``phasenorm.quadrature`` and ``phasenorm.fock``.  Nor
are the oracles the quantifier does not call (the Fock transition laws,
the pointwise Wigner functions, ``IDENTITY``, ``mean_photons``) or
``KERNEL_BACKEND``; each is imported from its own module.
"""

import phasenorm

PUBLIC = {
    # channels
    "CG", "Amplifier", "Attenuator", "ChannelSpec", "Displacement", "Rotation",
    # Fock engine
    "FockDiagonalState", "UnsupportedInputError", "loss_kraus_decomposition", "make_mixture",
    "make_thermal_fock", "mix_states", "number_state",
    # Gaussian engine
    "GaussianState", "apply_channel_gaussian", "make_coherent", "make_squeezed_thermal",
    "make_thermal", "min_quadrature_variance",
    # integration results and errors
    "IntegralEstimate", "RootBudgetExceeded", "ToleranceNotReached",
    # quantifier
    "CERTIFIED_QUANTUM", "CLASSICAL_CONSISTENT", "NOGO_INSTANCE", "FunctionalSpec",
    "QuantifierResult", "baseline_with_error", "classify", "convexity_gap", "measure_m",
    "monotonicity_gap_strong", "monotonicity_gap_weak", "norm_value", "wigner_negativity",
}


def test_all_is_the_public_names():
    assert len(phasenorm.__all__) == len(PUBLIC) == 35
    assert set(phasenorm.__all__) == PUBLIC


def test_every_public_name_is_an_attribute():
    assert [name for name in phasenorm.__all__ if not hasattr(phasenorm, name)] == []
