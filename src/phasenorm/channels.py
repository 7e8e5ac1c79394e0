"""Single-mode channel descriptions shared by both state engines.

A :class:`ChannelSpec` is an ordered composition of primitive elements.
Every primitive is phase-covariant, so a whole chain folds to four numbers
(:meth:`ChannelSpec.fold`), and that one fold serves both engines: the
Gaussian engine maps the moments with it, the Fock engine turns it into an
ordering shift.  The Fock transition laws, which apply each primitive to
the photon-number weights, are the oracle for both.  The distinguished
constant :data:`CG` is the Gaussian classicalization channel: a
transmittivity-1/2 quantum-limited attenuator followed by a gain-2
quantum-limited amplifier.
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

    def fold(self):
        """(k, y, theta, d) of the chain: cov -> k R cov R^T + y I and
        mean -> sqrt(k) R mean + d, with R the rotation by theta and d complex.

        Attenuator t: k -> t k, y -> t y + (1-t)/4; amplifier g: k -> g k,
        y -> g y + (g-1)/4; both scale d by their sqrt.  Rotations add to
        theta and turn d; displacements add to d.  This is the composition
        of phase-insensitive Gaussian channels (Weedbrook et al., Rev. Mod.
        Phys. 84, 621 (2012)); C_g folds to exactly (1.0, 0.5, 0.0, 0j).
        """
        k, y, theta, d = 1.0, 0.0, 0.0, 0j
        for el in self.elements:
            if isinstance(el, Attenuator):
                t = el.transmittivity
                k, y, d = t * k, t * y + (1.0 - t) / 4.0, math.sqrt(t) * d
            elif isinstance(el, Amplifier):
                g = el.gain
                k, y, d = g * k, g * y + (g - 1.0) / 4.0, math.sqrt(g) * d
            elif isinstance(el, Rotation):
                theta, d = theta + el.theta, cmath.exp(1j * el.theta) * d
            else:
                d = d + el.delta
        return k, y, theta, d

    def then(self, other):
        """Composite channel: self first, then ``other``."""
        return ChannelSpec(self.elements + other.elements)


# Gaussian classicalization channel C_g = A_2 after E_1/2.  Its output P
# function equals the input Husimi Q function, i.e. its action on any
# s-ordered Wigner function is the ordering shift s -> s - 2.
CG = ChannelSpec((Attenuator(0.5), Amplifier(2.0)))

IDENTITY = ChannelSpec(())
