import math

import pytest

from phasenorm import CG, Amplifier, Attenuator, ChannelSpec, Displacement, Rotation
from phasenorm.channels import IDENTITY


def test_cg_is_half_attenuator_then_double_amplifier():
    assert CG.elements == (Attenuator(0.5), Amplifier(2.0))
    assert CG == ChannelSpec((Attenuator(0.5), Amplifier(2.0)))


def test_cg_folds_exactly():
    k, y, theta, d = CG.fold()
    assert (k, y, theta, d) == (1.0, 0.5, 0.0, 0j)
    assert isinstance(d, complex)
    assert IDENTITY.fold() == (1.0, 0.0, 0.0, 0j)


def test_fold_scales_and_turns_the_displacement():
    # 1j, shrunk by sqrt(1/4), turned by pi/2, then shifted by 2
    ch = ChannelSpec((Displacement(1j), Attenuator(0.25), Rotation(math.pi / 2),
                      Displacement(2)))
    k, y, theta, d = ch.fold()
    assert (k, y, theta) == (0.25, 0.1875, math.pi / 2)
    assert d == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001, math.nan])
def test_attenuator_bounds(bad):
    with pytest.raises(ValueError):
        Attenuator(bad)


def test_attenuator_allows_unity():
    assert Attenuator(1.0).transmittivity == 1.0


@pytest.mark.parametrize("bad", [0.99, 0.0, -2.0, math.nan, math.inf])
def test_amplifier_bounds(bad):
    with pytest.raises(ValueError):
        Amplifier(bad)


@pytest.mark.parametrize("build", [
    lambda: Rotation(math.nan),
    lambda: Rotation(-math.inf),
    lambda: Displacement(complex(math.inf, 0.0)),
    lambda: Displacement(complex(0.0, math.nan)),
], ids=["rotation_nan", "rotation_inf", "displacement_inf", "displacement_nan"])
def test_non_finite_rotation_and_displacement_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_then_concatenates():
    a = ChannelSpec((Rotation(0.3),))
    b = ChannelSpec((Displacement(1j), Attenuator(0.5)))
    assert a.then(b).elements == (Rotation(0.3), Displacement(1j), Attenuator(0.5))


def test_unknown_element_rejected():
    with pytest.raises(TypeError):
        ChannelSpec(("loss",))
