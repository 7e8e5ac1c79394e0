"""Single-mode channel descriptions shared by both state engines.

A :class:`ChannelSpec` is an ordered composition of primitive elements;
each engine (Gaussian covariance calculus, Fock transition laws) knows how
to apply every primitive.  The distinguished constant :data:`CG` is the
Gaussian classicalization channel: a transmittivity-1/2 quantum-limited
attenuator followed by a gain-2 quantum-limited amplifier.
"""

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Attenuator:
    """Quantum-limited attenuator (beam splitter with vacuum ancilla)."""

    transmittivity: float

    def __post_init__(self):
        if not 0.0 < self.transmittivity <= 1.0:
            raise ValueError(f"transmittivity must be in (0, 1], got {self.transmittivity}")


@dataclass(frozen=True)
class Amplifier:
    """Quantum-limited amplifier (two-mode squeezer with vacuum ancilla)."""

    gain: float

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain >= 1.0):
            raise ValueError(f"gain must be finite and >= 1, got {self.gain}")


@dataclass(frozen=True)
class Rotation:
    """Phase-space rotation by ``theta`` radians."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"rotation angle must be finite, got {self.theta}")


@dataclass(frozen=True)
class Displacement:
    """Displacement by the complex amplitude ``delta`` (alpha-plane)."""

    delta: complex

    def __post_init__(self):
        if not cmath.isfinite(self.delta):
            raise ValueError(f"displacement must be finite, got {self.delta}")


PRIMITIVES = (Attenuator, Amplifier, Rotation, Displacement)


@dataclass(frozen=True)
class ChannelSpec:
    """Ordered composition of primitive channel elements (applied left to right)."""

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        for el in elements:
            if not isinstance(el, PRIMITIVES):
                raise TypeError(f"unknown channel element {el!r}")
        object.__setattr__(self, "elements", elements)

    def then(self, other):
        """Composite channel: self first, then ``other``."""
        return ChannelSpec(self.elements + other.elements)


# Gaussian classicalization channel C_g = A_2 after E_1/2.  Its output P
# function equals the input Husimi Q function, i.e. its action on any
# s-ordered Wigner function is the ordering shift s -> s - 2.
CG = ChannelSpec((Attenuator(0.5), Amplifier(2.0)))

IDENTITY = ChannelSpec(())
