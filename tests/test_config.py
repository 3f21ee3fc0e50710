import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprobe import ConfigError, parse_config, resolve_mapping
from fockprobe.config import KNOWN_KEYS, read_config_text


MINIMAL = """
# optical microcavity, second harmonic
cavity.length = 1e-6
field.mode = 2
field.photons = 10
"""


def test_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "probe.cfg"
    path.write_text(MINIMAL)
    resolved = parse_config(path)
    assert resolved.setup.cavity_length == 1e-6
    assert resolved.prep.photons == 10
    # resonance with the probed mode is the default operating point
    assert resolved.prep.detuning == 0.0
    assert resolved.defaults_applied["atom.resonant_with_mode"] == 2
    assert resolved.defaults_applied["atom.speed"] == 1000.0
    assert resolved.defaults_applied["atom.coupling_ratio"] == 1e-4
    assert resolved.sweep is None


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_text("cavity.lenght = 1e-6\n")


@pytest.mark.parametrize("key, value", [
    ("truncation.max_mode", "10000"),
    ("truncation.tail_tol", "1e-10"),
])
def test_truncation_keys_are_unknown(key, value):
    # the mode sums run to infinity under constants of fockprobe.amplitudes
    with pytest.raises(ConfigError, match="unknown key"):
        read_config_text(MINIMAL + f"{key} = {value}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_mapping({"cavity.length": 1e-6, "field.mode": 2, "field.photons": 1,
                         key: value})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        read_config_text("cavity.length = 1\ncavity.length = 2\n")


def test_missing_mandatory_key():
    with pytest.raises(ConfigError, match="mandatory"):
        resolve_mapping({"cavity.length": 1e-6, "field.mode": 2})


def test_gap_and_resonant_mode_conflict():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        resolve_mapping({
            "cavity.length": 1e-6, "field.mode": 2, "field.photons": 1,
            "atom.gap": 1e15, "atom.resonant_with_mode": 2,
        })


def test_gap_with_detuning_conflict():
    with pytest.raises(ConfigError, match="derived"):
        resolve_mapping({
            "cavity.length": 1e-6, "field.mode": 2, "field.photons": 1,
            "atom.gap": 1e15, "field.detuning": 1.0,
        })


def test_natural_mode_unit_consistency():
    with pytest.raises(ConfigError, match="cavity.c = 1"):
        resolve_mapping({
            "units.mode": "natural", "cavity.length": 1.0, "cavity.c": 3e8,
            "field.mode": 2, "field.photons": 0,
        })


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        read_config_text("cavity.length = two\n")
    with pytest.raises(ConfigError, match="bad value"):
        read_config_text("field.photons = 1.5\n")
    with pytest.raises(ConfigError, match="key = value"):
        read_config_text("cavity.length 1e-6\n")


def test_physics_validation_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        resolve_mapping({
            "cavity.length": 1e-6, "field.mode": 2, "field.photons": 1,
            "atom.speed": 4e8,  # faster than light
        })


def test_sweep_range_resolution():
    resolved = resolve_mapping({
        "units.mode": "natural", "cavity.length": 1.0,
        "atom.speed": 1e-3, "field.mode": 2, "field.photons": 0,
        "sweep.variable": "n", "sweep.start": 0, "sweep.stop": 10,
        "sweep.step": 2,
    })
    assert resolved.sweep.values == (0, 2, 4, 6, 8, 10)
    assert resolved.sweep.observable == "phase"


def test_sweep_requires_variation():
    base = {
        "units.mode": "natural", "cavity.length": 1.0,
        "atom.speed": 1e-3, "field.mode": 2, "field.photons": 0,
    }
    with pytest.raises(ConfigError, match="at least two"):
        resolve_mapping({**base, "sweep.variable": "n", "sweep.values": "5"})
    with pytest.raises(ConfigError, match="step > 0"):
        resolve_mapping({**base, "sweep.variable": "n",
                         "sweep.start": 5, "sweep.stop": 0, "sweep.step": 1})
    with pytest.raises(ConfigError, match="missing"):
        resolve_mapping({**base, "sweep.variable": "n"})
    with pytest.raises(ConfigError, match="non-negative integers"):
        resolve_mapping({**base, "sweep.variable": "n",
                         "sweep.start": 0.5, "sweep.stop": 2.5, "sweep.step": 1})


def test_resolution_sweep_needs_photon_axis():
    base = {
        "units.mode": "natural", "cavity.length": 1.0,
        "atom.speed": 1e-3, "field.mode": 2, "field.photons": 0,
        "sweep.observable": "resolution",
    }
    resolved = resolve_mapping({**base, "sweep.variable": "n", "sweep.start": 0,
                                "sweep.stop": 10, "sweep.step": 5,
                                "sweep.m_values": "1, 2"})
    assert resolved.sweep.m_values == (1, 2)
    with pytest.raises(ConfigError, match="photon number"):
        resolve_mapping({**base, "sweep.variable": "delta", "sweep.start": 0,
                         "sweep.stop": 1, "sweep.step": 0.5})


def test_scaled_configs_agree_on_dimensionless_output():
    from fockprobe import eta_rows, phase_components, survival_amplitude
    import warnings

    natural = resolve_mapping({
        "units.mode": "natural", "cavity.length": 1.0, "atom.speed": 1e-3,
        "field.mode": 2, "field.photons": 5,
    })
    si = resolve_mapping({
        "cavity.length": 1e-6, "cavity.c": 3e8, "atom.speed": 3e5,
        "field.mode": 2, "field.photons": 5,
    })
    assert natural.setup.dimensionless_groups() == pytest.approx(
        si.setup.dimensionless_groups()
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gamma_a, gamma_b = (
            eta_rows(survival_amplitude(phase_components(r.setup, 2), r.setup, 5))[0][0].real
            for r in (natural, si))
    assert gamma_a == pytest.approx(gamma_b, rel=1e-9)


@pytest.mark.parametrize("key, value, reason", [
    ("field.photons", 2.5, "not an integer"),
    ("field.photons", float("inf"), "not finite"),
    ("field.photons", float("nan"), "not finite"),
    ("atom.resonant_with_mode", 2.5, "not an integer"),
    ("sweep.m_values", (1.0, float("inf")), "not finite"),
    ("units.mode", 5, "not a string"),
])
def test_python_values_get_the_checks_of_config_text(key, value, reason):
    mapping = {"cavity.length": 1e-6, "field.mode": 2, "field.photons": 1, key: value}
    with pytest.raises(ConfigError, match=f"bad value for {key}: .*{reason}"):
        resolve_mapping(mapping)


NUMERIC_KEYS = sorted(key for key, (kind, _) in KNOWN_KEYS.items() if kind in ("int", "float"))
SWEEP_BASE = {
    "cavity.length": 1e-6, "atom.speed": 1000.0, "field.mode": 2, "field.photons": 1,
    "sweep.variable": "n", "sweep.start": 0.0, "sweep.stop": 4.0, "sweep.step": 1.0,
}


def _resolve_or_error(mapping):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return resolve_mapping(mapping)
        except ConfigError as exc:
            return exc


@settings(deadline=None)
@given(key=st.sampled_from(NUMERIC_KEYS),
       value=st.one_of(st.integers(), st.floats(), st.sampled_from([0, 1, 2, 3, 1e-5, 1e4])))
def test_text_and_number_resolve_alike(key, value):
    as_number = _resolve_or_error({**SWEEP_BASE, key: value})
    as_text = _resolve_or_error({**SWEEP_BASE, key: repr(value)})
    if isinstance(as_number, ConfigError) or isinstance(as_text, ConfigError):
        assert type(as_number) is type(as_text) is ConfigError
        if str(as_text).startswith("bad value"):
            # the message quotes the raw value, which differs between the two forms
            assert str(as_number).startswith(f"bad value for {key}: ")
        else:
            assert str(as_number) == str(as_text)
    else:
        assert as_number == as_text
