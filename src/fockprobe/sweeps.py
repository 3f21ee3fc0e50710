"""Parameter sweeps with deterministic CSV output and run manifests.

A sweep walks one variable (photon number, photon difference, detuning, atom
speed, or coupling ratio) and emits a CSV plus a JSON manifest recording the
fully resolved configuration, the truncation behaviour, and every warning
raised along the way.  Each column is one array, through
``observables.eta_rows`` or ``observables.delta_gamma_rows``; only detuning,
speed and coupling-ratio rows need a setup and a mode sum each.  Identical
configurations produce byte-identical files; a failed row gets NaN cells and
an ``error: ...`` status instead of aborting the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .amplitudes import ConvergenceError
from .config import ResolvedConfig, SweepRequest, resolve_mapping
from .model import FieldPreparation, ParameterError, ProbeSetup, build_setup
from .observables import (
    classify_validity,
    delta_gamma_rows,
    eta_rows,
    phase_components,
    survival_amplitude,
    validity,
)


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep plus its destination."""

    request: SweepRequest
    setup: ProbeSetup
    prep: FieldPreparation
    policy: object
    output: Path
    resolved: dict
    defaults_applied: dict


def spec_from_config(resolved: ResolvedConfig, output) -> SweepSpec:
    if resolved.sweep is None:
        raise ParameterError("configuration defines no sweep.* keys")
    return SweepSpec(
        request=resolved.sweep,
        setup=resolved.setup,
        prep=resolved.prep,
        policy=resolved.policy,
        output=Path(output),
        resolved=resolved.resolved,
        defaults_applied=resolved.defaults_applied,
    )


def _fmt(value) -> str:
    # repr of the builtin float is the shortest round-trip form; the cast
    # also strips numpy scalar wrappers out of the CSV
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _rebuilt_amplitudes(spec: SweepSpec):
    """A(fixed_n) and validity per row of a delta, speed or coupling_ratio sweep.

    Each row needs its own setup and mode sum.  Returns ``(amplitudes,
    validities, failed)``: a row whose setup or mode sum fails is NaN in both
    and ``failed`` maps it to the message.
    """
    request, setup, prep = spec.request, spec.setup, spec.prep
    fixed = dict(atom_speed=setup.atom_speed, light_speed=setup.light_speed,
                 coupling_ratio=setup.coupling_ratio, unit_mode=setup.unit_mode)
    if request.variable == "delta":
        fixed["resonant_with_mode"] = prep.mode
    else:
        fixed["atom_gap"] = setup.atom_gap
    axis = {"delta": "detuning", "speed": "atom_speed",
            "coupling_ratio": "coupling_ratio"}[request.variable]
    row_prep = FieldPreparation(prep.mode, request.fixed_n)
    amplitudes = np.full(len(request.values), complex(math.nan, math.nan))
    validities = np.full(len(request.values), math.nan)
    failed = {}
    for row, value in enumerate(request.values):
        try:
            row_setup = build_setup(setup.cavity_length, **{**fixed, axis: float(value)})
            comps = phase_components(row_setup, prep.mode, spec.policy)
        except (ParameterError, ConvergenceError) as exc:
            failed[row] = str(exc)
        else:
            amplitudes[row] = survival_amplitude(comps, row_setup, request.fixed_n)
            validities[row] = validity(row_setup, row_prep)
    return amplitudes, validities, failed


def compute_rows(spec: SweepSpec):
    """Evaluate every row as one array per column; failed rows get a status message.

    Returns (header, rows, report): ``report`` is the truncation report of the
    phase components at the configured base point, which n and m rows reuse.
    """
    request, setup, prep = spec.request, spec.setup, spec.prep
    comps = phase_components(setup, prep.mode, spec.policy)
    if request.variable == "m":
        header = ["m", "delta_gamma", "status"]
        keys = [(m,) for m in request.values]
        delta_gamma, failed = delta_gamma_rows(comps, setup, request.fixed_n, request.values)
        columns = [delta_gamma]
    elif request.observable == "resolution":
        header = ["n", "m", "delta_gamma", "status"]
        keys = [(n, m) for n in request.values for m in request.m_values]
        delta_gamma, failed = delta_gamma_rows(comps, setup, *np.array(keys, dtype=float).T)
        columns = [delta_gamma]
    else:
        header = [request.variable, "gamma", "visibility", "validity", "status"]
        keys = [(value,) for value in request.values]
        if request.variable == "n":
            amplitudes = survival_amplitude(comps, setup, np.array(request.values, dtype=float))
            validities = [validity(setup, FieldPreparation(prep.mode, n))
                          for n in request.values]
            failed = {}
        else:
            amplitudes, validities, failed = _rebuilt_amplitudes(spec)
        eta, visibility, branch_failed = eta_rows(amplitudes)
        failed.update(branch_failed)
        columns = [eta.real, visibility, validities]
    columns = [np.asarray(column).tolist() for column in columns]
    blanks = [math.nan] * len(columns)
    rows = [
        [*key, *blanks, f"error: {failed[row]}"] if row in failed
        else [*key, *(column[row] for column in columns), "ok"]
        for row, key in enumerate(keys)
    ]
    return header, rows, comps.report


def _json_safe(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def write_outputs(output, header, rows, config, command, messages=(), extra=None,
                  quiet=False):
    """Write rows as CSV to ``output`` (stdout when None) and, for a file, a manifest.

    ``config`` is the resolved configuration (a ResolvedConfig or SweepSpec).
    The manifest ``<output>.manifest.json`` holds only reproducible content
    (resolved configuration, columns, row count, warnings, and ``extra``);
    wall-clock timing is left to the caller's log so that identical
    configurations yield byte-identical files.  ``messages`` are deduplicated
    in the order given and, unless ``quiet``, also printed to stderr.
    Returns the manifest path, or None when the CSV went to stdout.
    """
    from . import __version__

    messages = list(dict.fromkeys(messages))
    if not quiet:
        for msg in messages:
            sys.stderr.write(f"warning: {msg}\n")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    if output is None:
        sys.stdout.write(text.getvalue())
        return None
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text.getvalue(), encoding="utf-8", newline="")
    manifest = {
        "tool": "fockprobe",
        "version": __version__,
        "command": command,
        "config": {k: _json_safe(v) for k, v in sorted(config.resolved.items())},
        "defaults_applied": {k: _json_safe(v)
                             for k, v in sorted(config.defaults_applied.items())},
        "columns": list(header),
        "row_count": len(rows),
        "warnings": messages,
        **(extra or {}),
    }
    manifest_path = Path(str(output) + ".manifest.json")
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest_path


def run_sweep(spec: SweepSpec, quiet: bool = False, messages=()):
    """Compute, then write CSV and manifest; returns (csv_path, manifest_path).

    Warnings raised while computing go to the manifest and, unless ``quiet``,
    to stderr, after ``messages`` (warnings raised before the sweep, such as
    while resolving its configuration).
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header, rows, report = compute_rows(spec)
    extra = {
        "validity_class": classify_validity(validity(spec.setup, spec.prep)),
        "truncation": report.as_dict(),
    }
    manifest_path = write_outputs(spec.output, header, rows, spec, "sweep",
                                  [*messages, *(str(w.message) for w in caught)],
                                  extra, quiet)
    return spec.output, manifest_path


# Canned sweeps reproducing the headline curves: phase versus photon number,
# resolution versus photon number for several photon differences, and the
# visibility falloff.  All use the optical-microcavity scenario (1 um cavity,
# second harmonic probed, 1000 m/s atoms, coupling ratio 1e-4).
_OPTICAL_BASE = {
    "units.mode": "SI",
    "cavity.length": 1e-6,
    "atom.speed": 1000.0,
    "atom.coupling_ratio": 1e-4,
    "atom.resonant_with_mode": 2,
    "field.mode": 2,
    "field.photons": 0,
}

PRESETS = {
    "fig3": {
        **_OPTICAL_BASE,
        "sweep.variable": "n",
        "sweep.start": 0.0,
        "sweep.stop": 1000.0,
        "sweep.step": 1.0,
        "sweep.observable": "phase",
    },
    "fig4": {
        **_OPTICAL_BASE,
        "sweep.variable": "n",
        "sweep.start": 0.0,
        "sweep.stop": 1000.0,
        "sweep.step": 10.0,
        "sweep.observable": "resolution",
        "sweep.m_values": (1.0, 2.0, 5.0, 10.0),
    },
    "fig5": {
        **_OPTICAL_BASE,
        "sweep.variable": "n",
        "sweep.start": 0.0,
        "sweep.stop": 2000.0,
        "sweep.step": 2.0,
        "sweep.observable": "phase",
    },
}


def preset_spec(name: str, output) -> SweepSpec:
    """Resolve one of the shipped presets into a runnable sweep."""
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    mapping = dict(PRESETS[name])
    resolved = resolve_mapping(mapping)
    return spec_from_config(resolved, output)
