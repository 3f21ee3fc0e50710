"""Parameter sweeps with deterministic CSV output and run manifests.

A sweep walks one variable (photon number, photon difference, detuning, atom
speed, or coupling ratio) and emits a CSV plus a JSON manifest recording the
fully resolved configuration, the truncation behaviour, and every warning
raised along the way.  Each column is one array, through
``observables.eta_rows`` or ``observables.delta_gamma_rows``; only detuning,
speed and coupling-ratio rows need a setup and a mode sum each, which they
get by re-resolving the configuration at their point through
``config.resolve_mapping``.  Identical configurations produce byte-identical
files; a failed row gets NaN cells and an ``error: ...`` status instead of
aborting the run; :func:`write_outputs` formats the CSV a column at a time.
A preset is run as ``resolve_mapping(PRESETS[name])``.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from .config import ConfigError, ResolvedConfig, resolve_mapping
from .observables import (
    classify_validity,
    delta_gamma_rows,
    eta_rows,
    phase_components,
    survival_amplitude,
    validity,
)

# the config key each rebuilt sweep variable sets
_SWEPT_KEYS = {"delta": "field.detuning", "speed": "atom.speed",
               "coupling_ratio": "atom.coupling_ratio"}


# a CSV cell holding one of these is quoted
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _column_text(cells) -> list:
    """CSV text of one column: a float (numpy's too) as its shortest round-trip
    ``repr``, any other cell as its ``str``; a quoted cell has its inner double
    quotes doubled, as ``csv.QUOTE_MINIMAL`` writes it."""
    floats = [issubclass(kind, float) for kind in set(map(type, cells))]
    if all(floats):
        return list(map(float.__repr__, cells))
    text = [float.__repr__(cell) if isinstance(cell, float) else str(cell)
            for cell in cells] if any(floats) else list(map(str, cells))
    if _NEEDS_QUOTES.search("".join(text)):
        text = ['"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell
                for cell in text]
    return text


def _rebuilt_amplitudes(resolved: ResolvedConfig):
    """A(field.photons) and validity per row of a delta, speed or coupling_ratio sweep.

    Each row re-resolves the configuration without its sweep.* keys, with the
    swept key set to the row's value, so a row is the run ``phase`` makes at
    that point.  Returns ``(amplitudes, validities, failed)``: a row whose
    configuration fails is NaN in both and ``failed`` maps it to the message.
    """
    request = resolved.sweep
    base = {key: value for key, value in resolved.resolved.items()
            if not key.startswith("sweep.")}
    amplitudes = np.full(len(request.values), complex(math.nan, math.nan))
    validities = np.full(len(request.values), math.nan)
    failed = {}
    for row, value in enumerate(request.values):
        try:
            point = resolve_mapping({**base, _SWEPT_KEYS[request.variable]: value})
        except ConfigError as exc:
            failed[row] = str(exc)
            continue
        comps = phase_components(point.setup, point.prep.mode)
        amplitudes[row] = survival_amplitude(comps, point.setup, point.prep.photons)
        validities[row] = validity(point.setup, point.prep.photons)
    return amplitudes, validities, failed


def largest_validity(resolved: ResolvedConfig, other_arm: int = 0) -> float:
    """Largest validity estimator the run evaluates, from the configuration alone.

    The estimator (lambda/Omega) n L/v grows with the photon number and the
    coupling ratio and falls with the speed; the detuning leaves it alone.  A
    speed outside 0 < v < c fails its row before anything is evaluated.  The
    largest photon number is the largest n plus the largest of sweep.m_values
    in an n sweep, field.photons plus the largest m in an m sweep, and
    field.photons otherwise, or ``other_arm`` (the photon number of a fringe's
    unknown arm) when that is larger.  A run without a sweep scores as a
    delta sweep does.
    """
    request, setup = resolved.sweep, resolved.setup
    photons = max(resolved.prep.photons, other_arm)
    variable = None if request is None else request.variable
    if variable == "n":
        photons = max(request.values) + max(request.m_values, default=0)
    elif variable == "m":
        photons += max(request.values)
    elif variable == "speed":
        speeds = [v for v in request.values if 0 < v < setup.light_speed]
        setup = replace(setup, atom_speed=min(speeds, default=setup.atom_speed))
    elif variable == "coupling_ratio":
        setup = replace(setup, coupling=max(request.values) * setup.atom_gap)
    return validity(setup, photons)


def compute_rows(resolved: ResolvedConfig):
    """Evaluate every row as one array per column; failed rows get a status message.

    Returns (header, rows, report): ``report`` is the truncation report of the
    phase components at the configured base point, which n and m rows reuse.
    """
    request, setup, prep = resolved.sweep, resolved.setup, resolved.prep
    if request is None:
        raise ConfigError("configuration defines no sweep.* keys")
    comps = phase_components(setup, prep.mode)
    if request.variable == "m":
        header = ["m", "delta_gamma", "status"]
        keys = [request.values]
        delta_gamma, failed = delta_gamma_rows(comps, setup, prep.photons, request.values)
        columns = [delta_gamma]
    elif request.observable == "resolution":
        header = ["n", "m", "delta_gamma", "status"]
        keys = list(zip(*product(request.values, request.m_values)))
        delta_gamma, failed = delta_gamma_rows(comps, setup, *np.array(keys, dtype=float))
        columns = [delta_gamma]
    else:
        header = [request.variable, "gamma", "visibility", "validity", "status"]
        keys = [request.values]
        if request.variable == "n":
            n = np.array(request.values, dtype=float)
            amplitudes = survival_amplitude(comps, setup, n)
            validities = validity(setup, n)
            failed = {}
        else:
            amplitudes, validities, failed = _rebuilt_amplitudes(resolved)
        eta, visibility, branch_failed = eta_rows(amplitudes)
        failed.update(branch_failed)
        columns = [eta.real, visibility, validities]
    columns = [np.array(column, dtype=float) for column in columns]
    status = ["ok"] * len(keys[0])
    for row, message in failed.items():
        status[row] = f"error: {message}"
        for column in columns:
            column[row] = math.nan
    rows = list(zip(*keys, *(column.tolist() for column in columns), status))
    return header, rows, comps.report


def write_outputs(output, header, rows, resolved: ResolvedConfig, command, messages=(),
                  extra=None, quiet=False):
    """Write rows as CSV to ``output`` (stdout when None) and, for a file, a manifest.

    Each column is formatted in one pass and the text written in one piece,
    so stdout and the file get the same bytes; a row without one cell per
    header entry raises ``ValueError`` before any CSV is written.
    The manifest ``<output>.manifest.json`` holds only reproducible content
    (the resolved configuration, columns, row count, warnings, and ``extra``);
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
    columns = [_column_text(cells) for _, *cells in zip(header, *rows, strict=True)]
    text = "\n".join([",".join(_column_text(header)), *map(",".join, zip(*columns))]) + "\n"
    if output is None:
        sys.stdout.write(text)
        return None
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text, encoding="utf-8", newline="")
    manifest = {
        "tool": "fockprobe",
        "version": __version__,
        "command": command,
        "config": resolved.resolved,
        "defaults_applied": resolved.defaults_applied,
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


def run_sweep(resolved: ResolvedConfig, output, quiet: bool = False, messages=()):
    """Compute, then write CSV and manifest; returns (csv_path, manifest_path).

    With ``output`` None the CSV goes to stdout and both paths are None.
    Warnings raised while computing go to the manifest and, unless ``quiet``,
    to stderr, after ``messages`` (warnings raised before the sweep, such as
    while resolving its configuration).  The manifest's ``validity_class`` is
    that of :func:`largest_validity`.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header, rows, report = compute_rows(resolved)
    extra = {
        "validity_class": classify_validity(largest_validity(resolved)),
        "truncation": report.as_dict(),
    }
    manifest_path = write_outputs(output, header, rows, resolved, "sweep",
                                  [*messages, *(str(w.message) for w in caught)],
                                  extra, quiet)
    return (None if output is None else Path(output)), manifest_path


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

