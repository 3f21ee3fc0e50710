"""Flat dotted-key config files and their resolution into validated objects.

Syntax: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Unknown keys are rejected (typo safety), duplicates are errors, and
every default that fills an omitted key is recorded so run manifests can show
the fully resolved configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .model import (
    SPEED_OF_LIGHT,
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    build_setup,
    prepare_field,
)


class ConfigError(ValueError):
    """Malformed, unknown, inconsistent, or missing configuration keys."""


SWEEP_VARIABLES = ("n", "m", "delta", "speed", "coupling_ratio")
SWEEP_OBSERVABLES = ("phase", "resolution")
# Most values a sweep.start/stop/step grid may have, and most rows (n x m) a
# resolution sweep may have; a grid is checked before it is built, so a
# mistyped range is an error rather than an unbounded allocation.
MAX_SWEEP_ROWS = 100_000

# key -> (type tag, mandatory)
KNOWN_KEYS = {
    "units.mode": ("str", False),
    "cavity.length": ("float", True),
    "cavity.c": ("float", False),
    "atom.gap": ("float", False),
    "atom.resonant_with_mode": ("int", False),
    "atom.coupling_ratio": ("float", False),
    "atom.speed": ("float", False),
    "field.mode": ("int", True),
    "field.photons": ("int", True),
    "field.detuning": ("float", False),
    "sweep.variable": ("str", False),
    "sweep.start": ("float", False),
    "sweep.stop": ("float", False),
    "sweep.step": ("float", False),
    "sweep.values": ("list", False),
    "sweep.observable": ("str", False),
    "sweep.m_values": ("list", False),
}


@dataclass(frozen=True)
class SweepRequest:
    """What to sweep and what to record, resolved from config keys."""

    variable: str
    values: tuple
    observable: str
    m_values: tuple


@dataclass(frozen=True)
class ResolvedConfig:
    """Validated physics objects plus the fully resolved key/value view."""

    setup: ProbeSetup
    prep: FieldPreparation
    sweep: SweepRequest | None
    resolved: dict
    defaults_applied: dict


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_scalar(key: str, raw):
    """Check one value, as config-file text or as a Python value, against its key's type.

    Lists are comma-separated text or a sequence of numbers.
    """
    kind = KNOWN_KEYS[key][0]
    try:
        if kind == "str":
            if not isinstance(raw, str):
                raise TypeError("not a string")
            return raw.strip()
        if kind == "list":
            items = raw.split(",") if isinstance(raw, str) else raw
            values = tuple(_finite(item) for item in items if str(item).strip())
            if not values:
                raise ValueError("empty list")
            return values
        value = _finite(raw)
        if kind == "float":
            return value
        if value != int(value):
            raise ValueError("not an integer")
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def read_config_text(text: str) -> dict:
    """Parse the flat key = value syntax into a raw mapping."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = _parse_scalar(key, raw)
    return mapping


def resolve_mapping(mapping: dict) -> ResolvedConfig:
    """Fill defaults, cross-validate, and build the physics objects."""
    unknown = set(mapping) - set(KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    mapping = {key: _parse_scalar(key, value) for key, value in mapping.items()}
    for key, (_, mandatory) in KNOWN_KEYS.items():
        if mandatory and key not in mapping:
            raise ConfigError(f"missing mandatory key {key!r}")

    defaults: dict = {}

    def get(key, default=None):
        if key in mapping:
            return mapping[key]
        if default is not None:
            defaults[key] = default
        return default

    unit_mode = get("units.mode", "SI")
    if unit_mode not in ("SI", "natural"):
        raise ConfigError(f"units.mode must be SI or natural, got {unit_mode!r}")
    light_speed = get("cavity.c", 1.0 if unit_mode == "natural" else SPEED_OF_LIGHT)
    if unit_mode == "natural" and light_speed != 1.0:
        raise ConfigError("units.mode = natural requires cavity.c = 1")

    if "atom.gap" in mapping and "atom.resonant_with_mode" in mapping:
        raise ConfigError("atom.gap and atom.resonant_with_mode are mutually exclusive")
    if "atom.gap" in mapping and "field.detuning" in mapping:
        raise ConfigError(
            "field.detuning is derived when atom.gap is given; remove one of them"
        )

    mode = mapping["field.mode"]
    photons = mapping["field.photons"]
    speed = get("atom.speed", 1e-3 if unit_mode == "natural" else 1000.0)
    ratio = get("atom.coupling_ratio", 1e-4)

    try:
        if "atom.gap" in mapping:
            setup = build_setup(
                mapping["cavity.length"],
                speed,
                light_speed=light_speed,
                atom_gap=mapping["atom.gap"],
                coupling_ratio=ratio,
                unit_mode=unit_mode,
            )
        else:
            resonant = get("atom.resonant_with_mode", mode)
            detuning = get("field.detuning", 0.0)
            setup = build_setup(
                mapping["cavity.length"],
                speed,
                light_speed=light_speed,
                resonant_with_mode=resonant,
                detuning=detuning,
                coupling_ratio=ratio,
                unit_mode=unit_mode,
            )
        prep = prepare_field(setup, mode, photons)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = _resolve_sweep(mapping, defaults)

    resolved = dict(mapping)
    resolved.update(defaults)
    return ResolvedConfig(
        setup=setup,
        prep=prep,
        sweep=sweep,
        resolved=resolved,
        defaults_applied=defaults,
    )


def _resolve_sweep(mapping, defaults) -> SweepRequest | None:
    sweep_keys = [key for key in mapping if key.startswith("sweep.")]
    if not sweep_keys:
        return None
    if "sweep.variable" not in mapping:
        raise ConfigError("sweep keys given but sweep.variable is missing")
    variable = mapping["sweep.variable"]
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"sweep.variable must be one of {SWEEP_VARIABLES}, got {variable!r}"
        )
    if variable == "delta" and "atom.gap" in mapping:
        raise ConfigError("a delta sweep sets field.detuning, which atom.gap excludes; "
                          "give atom.resonant_with_mode instead")
    observable = mapping.get("sweep.observable")
    if observable is None:
        observable = "phase"
        defaults["sweep.observable"] = observable
    if observable not in SWEEP_OBSERVABLES:
        raise ConfigError(
            f"sweep.observable must be one of {SWEEP_OBSERVABLES}, got {observable!r}"
        )

    if "sweep.values" in mapping:
        values = mapping["sweep.values"]
    else:
        missing = [k for k in ("sweep.start", "sweep.stop", "sweep.step") if k not in mapping]
        if missing:
            raise ConfigError(f"sweep needs sweep.values or start/stop/step; missing {missing}")
        start, stop, step = (
            mapping["sweep.start"],
            mapping["sweep.stop"],
            mapping["sweep.step"],
        )
        if step <= 0 or stop < start:
            raise ConfigError("sweep range must have step > 0 and stop >= start")
        # the grid has floor(steps) + 1 values; steps may be inf
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_SWEEP_ROWS:
            raise ConfigError(
                f"sweep range has more than MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS} values"
            )
        values = tuple(start + i * step for i in range(int(steps) + 1))
    if variable in ("n", "m"):
        if any(v != int(v) or v < 0 for v in values):
            raise ConfigError(f"sweep over {variable} requires non-negative integers")
        values = tuple(int(v) for v in values)
    if len(values) < 2:
        raise ConfigError("sweep range must contain at least two values")

    m_values = mapping.get("sweep.m_values")
    if observable == "resolution":
        if m_values is None:
            m_values = (1.0,)
            defaults["sweep.m_values"] = m_values
        if any(v != int(v) or v < 1 for v in m_values):
            raise ConfigError("sweep.m_values must be positive integers")
        m_values = tuple(int(v) for v in m_values)
        if variable != "n":
            raise ConfigError("resolution sweeps run over the photon number n")
        if len(values) * len(m_values) > MAX_SWEEP_ROWS:
            raise ConfigError(f"resolution sweep has over MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS} rows")
    elif m_values is not None:
        raise ConfigError("sweep.m_values is read only by resolution sweeps; "
                          "set sweep.observable = resolution or remove it")
    return SweepRequest(
        variable=variable,
        values=tuple(values),
        observable=observable,
        m_values=m_values or (),
    )


def parse_config(path) -> ResolvedConfig:
    """Read a config file and resolve it; raises :class:`ConfigError` on any defect."""
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigError(f"config file not found: {file_path}")
    return resolve_mapping(read_config_text(file_path.read_text(encoding="utf-8")))
