import math

import pytest

from fockprobe import (
    FieldPreparation,
    ParameterError,
    ProbeWarning,
    build_setup,
    prepare_field,
)


def test_natural_desk_setup():
    setup = build_setup(
        1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
        coupling_ratio=1e-4, unit_mode="natural",
    )
    assert setup.crossing_time == 1000.0
    assert setup.atom_gap == 2 * math.pi
    assert setup.coupling == pytest.approx(1e-4 * 2 * math.pi, rel=1e-15)


def test_optical_microcavity_setup():
    # 1 um cavity, 1000 m/s atoms, gap on the second harmonic
    setup = build_setup(1e-6, 1000.0, light_speed=3e8,
                        resonant_with_mode=2, coupling_ratio=1e-4)
    assert setup.crossing_time == pytest.approx(1e-9, rel=1e-15)
    assert setup.atom_gap == pytest.approx(2 * math.pi * 3e8 / 1e-6, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cavity_length=1.0, atom_speed=2.0, light_speed=1.0,
             atom_gap=1.0, coupling=0.0),                      # v = 2c
        dict(cavity_length=1.0, atom_speed=1.0, light_speed=1.0,
             atom_gap=1.0, coupling=0.0),                      # v = c
        dict(cavity_length=-1.0, atom_speed=1e-3, light_speed=1.0,
             atom_gap=1.0, coupling=0.0),                      # L < 0
        dict(cavity_length=1.0, atom_speed=1e-3, light_speed=1.0,
             atom_gap=1.0, coupling=-0.1),                     # lambda < 0
        dict(cavity_length=1.0, atom_speed=1e-3, light_speed=1.0,
             atom_gap=-2.0, coupling=0.0),                     # Omega < 0
        dict(cavity_length=1.0, atom_speed=1e-3, light_speed=1.0,
             atom_gap=float("nan"), coupling=0.0),             # non-finite
    ],
)
def test_build_setup_rejects(kwargs):
    kwargs = dict(kwargs)
    length = kwargs.pop("cavity_length")
    speed = kwargs.pop("atom_speed")
    with pytest.raises(ParameterError):
        build_setup(length, speed, **kwargs)


def test_gap_and_resonant_mode_are_exclusive():
    with pytest.raises(ParameterError):
        build_setup(1.0, 1e-3, light_speed=1.0, atom_gap=1.0,
                    resonant_with_mode=2, coupling=0.0)
    with pytest.raises(ParameterError):
        build_setup(1.0, 1e-3, light_speed=1.0, coupling=0.0)


def test_coupling_and_ratio_are_exclusive():
    with pytest.raises(ParameterError):
        build_setup(1.0, 1e-3, light_speed=1.0, atom_gap=1.0,
                    coupling=1e-4, coupling_ratio=1e-4)
    with pytest.raises(ParameterError):
        build_setup(1.0, 1e-3, light_speed=1.0, atom_gap=1.0)


def test_natural_mode_requires_unit_c():
    with pytest.raises(ParameterError):
        build_setup(1.0, 1e-3, light_speed=2.0, atom_gap=1.0, coupling=0.0,
                    unit_mode="natural")


def test_coupling_ratio_warning():
    with pytest.warns(ProbeWarning):
        build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                    coupling_ratio=1e-2, unit_mode="natural")
    with pytest.warns(ProbeWarning):
        build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                    coupling_ratio=1e-8, unit_mode="natural")


def test_dispersion_is_exact(natural_setup):
    for beta in (1, 2, 3, 17, 240):
        omega = natural_setup.mode_frequency(beta)
        k = natural_setup.wavenumber(beta)
        assert omega / k == natural_setup.light_speed


def test_crossing_time_identity():
    for L, v in [(1.0, 1e-3), (0.37, 2e-2), (1e-6, 1000.0)]:
        setup = build_setup(L, v, light_speed=3e8 if L < 1e-3 else 1.0,
                            atom_gap=1.0 if L >= 1e-3 else 1e15, coupling=0.0)
        assert setup.crossing_time * setup.atom_speed == pytest.approx(L, rel=1e-15)


def test_scaled_setups_share_dimensionless_groups():
    natural = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                          coupling_ratio=1e-4, unit_mode="natural")
    si = build_setup(1e-6, 1e-3 * 3e8, light_speed=3e8, resonant_with_mode=2,
                     coupling_ratio=1e-4)
    g1 = natural.dimensionless_groups()
    g2 = si.dimensionless_groups()
    for key in g1:
        assert g1[key] == pytest.approx(g2[key], rel=1e-12)


def test_prepare_field_derives_detuning(natural_setup):
    prep = prepare_field(natural_setup, 2, 5)
    assert prep.detuning == 0.0
    off = prepare_field(natural_setup, 3, 1)
    assert off.detuning == pytest.approx(math.pi, rel=1e-15)


def test_field_preparation_invariants():
    with pytest.raises(ParameterError):
        FieldPreparation(mode=0, photons=1)
    with pytest.raises(ParameterError):
        FieldPreparation(mode=1, photons=-1)

