"""Parameter sweeps with deterministic CSV output and run manifests.

A sweep walks one variable (photon number, photon difference, detuning, atom
speed, or coupling ratio), computes the transit observables per row, and emits
a CSV plus a JSON manifest recording the fully resolved configuration, the
truncation behaviour, and every warning raised along the way.  Identical
configurations produce byte-identical files; row failures are isolated into a
status column instead of aborting the run.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .amplitudes import ConvergenceError
from .config import ResolvedConfig, SweepRequest, resolve_mapping
from .model import (
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    build_setup,
    prepare_field,
)
from .observables import (
    BranchError,
    classify_validity,
    delta_gamma_exact,
    eta_phase,
    phase_components,
    survival_amplitude,
    validity,
    _eta_from_amplitude,
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


def _phase_row_builder(spec: SweepSpec, comps):
    """Rows (x, gamma, visibility, validity, status) for a swept variable."""
    request = spec.request
    setup, prep = spec.setup, spec.prep

    if request.variable == "n":
        def compute(value):
            amplitude = survival_amplitude(comps, setup, int(value))
            eta, gamma, vis = _eta_from_amplitude(amplitude)
            val = validity(setup, FieldPreparation(prep.mode, int(value), prep.detuning))
            return (gamma, vis, val)

        return compute

    def rebuilt_setup(value):
        if request.variable == "delta":
            return build_setup(
                setup.cavity_length,
                setup.atom_speed,
                light_speed=setup.light_speed,
                resonant_with_mode=prep.mode,
                detuning=float(value),
                coupling_ratio=setup.coupling_ratio,
                unit_mode=setup.unit_mode,
            )
        if request.variable == "speed":
            return build_setup(
                setup.cavity_length,
                float(value),
                light_speed=setup.light_speed,
                atom_gap=setup.atom_gap,
                coupling_ratio=setup.coupling_ratio,
                unit_mode=setup.unit_mode,
            )
        return build_setup(
            setup.cavity_length,
            setup.atom_speed,
            light_speed=setup.light_speed,
            atom_gap=setup.atom_gap,
            coupling_ratio=float(value),
            unit_mode=setup.unit_mode,
        )

    def compute(value):
        row_setup = rebuilt_setup(value)
        row_prep = prepare_field(row_setup, prep.mode, request.fixed_n)
        phase = eta_phase(row_setup, row_prep, spec.policy)
        return (phase.gamma, phase.visibility, validity(row_setup, row_prep))

    return compute


def compute_rows(spec: SweepSpec):
    """Evaluate all rows; per-row failures become status messages.

    Returns (header, rows, report): ``report`` is the truncation report of the
    phase components at the configured base point, which n and m rows reuse.
    """
    request = spec.request
    comps = phase_components(spec.setup, spec.prep.mode, spec.policy)
    if request.variable == "m":
        header = ["m", "delta_gamma", "status"]
        tasks = [(int(m),) for m in request.values]

        def run(task):
            (m,) = task
            dg = delta_gamma_exact(
                spec.setup, spec.prep.mode, request.fixed_n, m,
                spec.policy, components=comps,
            )
            return [m, dg]
    elif request.observable == "resolution":
        header = ["n", "m", "delta_gamma", "status"]
        tasks = [(int(n), int(m)) for n in request.values for m in request.m_values]

        def run(task):
            n, m = task
            dg = delta_gamma_exact(
                spec.setup, spec.prep.mode, n, m, spec.policy, components=comps
            )
            return [n, m, dg]
    else:
        header = [request.variable, "gamma", "visibility", "validity", "status"]
        compute = _phase_row_builder(spec, comps)
        tasks = [(value,) for value in request.values]

        def run(task):
            (value,) = task
            gamma, vis, val = compute(value)
            return [value, gamma, vis, val]

    def safe(task):
        try:
            return run(task) + ["ok"]
        except (BranchError, ConvergenceError, ParameterError) as exc:
            blanks = [float("nan")] * (len(header) - len(task) - 1)
            return list(task) + blanks + [f"error: {exc}"]

    return header, [safe(task) for task in tasks], comps.report


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
