"""Spans around the public functions of every fockprobe module.

The tracer lives entirely in the benchmark: it wraps each public function a
``fockprobe`` module defines and rebinds the wrapper under every name that
refers to the original, because ``observables``, ``sweeps`` and ``cli``
import functions such as ``mode_sum_offres`` and ``survival_amplitude`` by
name.  Each call records a span (name, start, end, parent, op) in compact
in-memory arrays; the spans are written out once, when the run ends.  A few
wrapped functions also report counts the program already returns (modes
summed, integrator steps, rows, CSV bytes).

Per-layer metrics are derived from the spans: time per call, self time (a
span minus the time its child spans cover), calls per op, counts per call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "config", "model", "amplitudes", "kernels", "observables", "sweeps",
           "oracle")


def _modes(counts, result):
    counts["modes"] += result[1].modes_evaluated


def _evolve(counts, result):
    report = result.step_report
    counts["steps"] += report["steps"]
    counts["rhs_evals"] += report["rhs_evaluations"]
    counts["dimension"] += report["dimension"]


def _rows(counts, result):
    counts["rows"] += len(result[1])


def _csv_bytes(counts, result):
    counts["csv_bytes"] += Path(result[0]).stat().st_size


# Counts read from what a wrapped function returns.
EXTRACTORS = {
    "kernels.mode_sum_offres": _modes,
    "amplitudes.counter_rotating_mode_sum": _modes,
    "oracle.evolve": _evolve,
    "sweeps.compute_rows": _rows,
    "sweeps.run_sweep": _csv_bytes,
}

# (metric, unit, better, function, statistic).  Statistics: "ms"/"us"/"s" =
# mean time per call, "self_*" = mean self time per call, "calls_per_op",
# or the name of a count ("modes", "steps", ...) per call, or per op when
# prefixed with "op:".  "ns_per_mode" and "rhs_us" divide time by a count.
PER_LAYER = (
    ("kernels.mode_sum_offres.ms", "ms", "lower", "kernels.mode_sum_offres", "ms"),
    ("kernels.mode_sum_offres.modes", "count", "lower", "kernels.mode_sum_offres", "modes"),
    ("kernels.mode_sum_offres.ns_per_mode", "ns", "lower", "kernels.mode_sum_offres",
     "ns_per_mode"),
    ("kernels.mode_sum_offres.calls_per_op", "count", "lower", "kernels.mode_sum_offres",
     "calls_per_op"),
    ("amplitudes.counter_rotating_mode_sum.ms", "ms", "lower",
     "amplitudes.counter_rotating_mode_sum", "ms"),
    ("amplitudes.counter_rotating_mode_sum.modes", "count", "lower",
     "amplitudes.counter_rotating_mode_sum", "modes"),
    ("observables.phase_components.ms", "ms", "lower", "observables.phase_components", "ms"),
    ("observables.phase_components.calls_per_op", "count", "lower",
     "observables.phase_components", "calls_per_op"),
    ("observables.eta_phase.ms", "ms", "lower", "observables.eta_phase", "ms"),
    ("observables.probe_outcome.ms", "ms", "lower", "observables.probe_outcome", "ms"),
    ("model.build_setup.us", "us", "lower", "model.build_setup", "us"),
    ("model.build_setup.calls_per_op", "count", "lower", "model.build_setup", "calls_per_op"),
    ("observables.survival_amplitude.us", "us", "lower", "observables.survival_amplitude",
     "us"),
    ("observables.survival_amplitude.calls_per_op", "count", "lower",
     "observables.survival_amplitude", "calls_per_op"),
    ("observables.delta_gamma_exact.us", "us", "lower", "observables.delta_gamma_exact", "us"),
    ("observables.delta_gamma_exact.calls_per_op", "count", "lower",
     "observables.delta_gamma_exact", "calls_per_op"),
    ("sweeps.compute_rows.ms", "ms", "lower", "sweeps.compute_rows", "ms"),
    ("sweeps.compute_rows.self_ms", "ms", "lower", "sweeps.compute_rows", "self_ms"),
    ("sweeps.run_sweep.self_ms", "ms", "lower", "sweeps.run_sweep", "self_ms"),
    ("sweeps.rows_per_op", "count", "higher", "sweeps.compute_rows", "op:rows"),
    ("sweeps.csv_bytes_per_op", "B", "lower", "sweeps.run_sweep", "op:csv_bytes"),
    ("oracle.evolve.s", "s", "lower", "oracle.evolve", "s"),
    ("oracle.evolve.self_s", "s", "lower", "oracle.evolve", "self_s"),
    ("oracle.evolve.steps", "count", "lower", "oracle.evolve", "steps"),
    ("oracle.evolve.rhs_evals", "count", "lower", "oracle.evolve", "rhs_evals"),
    ("oracle.rhs_us", "us", "lower", "oracle.evolve", "rhs_us"),
    ("oracle.dimension", "count", "lower", "oracle.evolve", "dimension"),
    ("kernels.c_quadrature.ms", "ms", "lower", "kernels.c_quadrature", "ms"),
    ("kernels.c_quadrature.calls_per_op", "count", "lower", "kernels.c_quadrature",
     "calls_per_op"),
    ("amplitudes.x_quadrature.ms", "ms", "lower", "amplitudes.x_quadrature", "ms"),
    ("kernels.c_closed.us", "us", "lower", "kernels.c_closed", "us"),
    ("amplitudes.x_closed.us", "us", "lower", "amplitudes.x_closed", "us"),
    ("config.parse_config.ms", "ms", "lower", "config.parse_config", "ms"),
    ("cli.main.self_ms", "ms", "lower", "cli.main", "self_ms"),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Tracer:
    """Wraps fockprobe's public functions and keeps their spans in memory."""

    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.op = -1
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.missing: list = []
        self._undo: list = []

    def _wrap(self, fn, qualname):
        ix = self._index.setdefault(qualname, len(self.names))
        if ix == len(self.names):
            self.names.append(qualname)
        extract = EXTRACTORS.get(qualname)
        counts = self.counts[qualname]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = len(tracer.span_start)
            tracer.span_name.append(ix)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            stack.append(span)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[span] = clock()
                stack.pop()
            if extract is not None:
                try:
                    extract(counts, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    tracer._report_missing(f"{qualname} (count)")
            return result

        return traced

    def _report_missing(self, what):
        if what not in self.missing:
            self.missing.append(what)
            sys.stderr.write(f"trace: {what} not found; its metrics read 0\n")

    def install(self, package) -> None:
        """Wrap every public function of the traced modules, under every name bound to it."""
        modules = {name: sys.modules.get(f"{package.__name__}.{name}") for name in MODULES}
        wrappers = {}
        for short, module in modules.items():
            if module is None:
                self._report_missing(f"module {short}")
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for module in [package, *(m for m in modules.values() if m is not None)]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for qualname in dict.fromkeys(row[3] for row in PER_LAYER):
            if qualname not in self._index:
                self._report_missing(qualname)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _arrays(self):
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start,
                                                                        dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return name, dur, dur - child_time

    def metrics(self, ops: int) -> dict:
        """Every PER_LAYER metric; functions never called on this workload read 0."""
        name, dur, self_time = self._arrays()
        stats = {}
        for qualname, ix in self._index.items():
            mask = name == ix
            stats[qualname] = (int(mask.sum()), float(dur[mask].sum()),
                               float(self_time[mask].sum()))
        out = {}
        for metric, unit, _, fn, statistic in PER_LAYER:
            calls, total, own = stats.get(fn, (0, 0.0, 0.0))
            counts = self.counts.get(fn, {})
            if statistic == "calls_per_op":
                value = calls / ops
            elif statistic.startswith("op:"):
                value = counts.get(statistic[3:], 0.0) / ops
            elif calls == 0:
                value = 0.0
            elif statistic in _SCALE:
                value = total / calls * _SCALE[statistic]
            elif statistic.startswith("self_"):
                value = own / calls * _SCALE[statistic[5:]]
            elif statistic == "ns_per_mode":
                modes = counts.get("modes", 0.0)
                value = total / modes * 1e9 if modes else 0.0
            elif statistic == "rhs_us":
                evals = counts.get("rhs_evals", 0.0)
                value = total / evals * 1e6 if evals else 0.0
            else:
                value = counts.get(statistic, 0.0) / calls
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """Write every span: names, name index, parent, op, start and end times."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )
