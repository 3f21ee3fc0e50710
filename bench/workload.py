"""One workload in one process: set up, warm up, then run timed rounds of ops.

Started by run.py.  Protocol on stdout: the line ``READY`` once the warm-up
op has finished (run.py times set-up up to that line), then, unless
``--setup-only``, one JSON line with the run's results.  Everything the CLI
prints goes to in-memory buffers instead, so stdout carries only the
protocol.  The CLI is called in-process through ``fockprobe.cli.main(argv)``
on the config files ``gen`` writes; the process starts no threads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fockprobe  # noqa: E402
from fockprobe import cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

# Nearest-rank percentile reported as op_tail_ms: the highest one that keeps
# at least ten ops beyond it in a run of the benchmark's length.
TAIL_PERCENTILE = {"param-sweep": 75, "n-sweep": 95, "oracle": 75, "quadrature": 90}

PRESET_BASE = {"cavity.length": 1e-6, "atom.speed": 1000.0, "atom.coupling_ratio": 1e-4,
               "atom.resonant_with_mode": 2, "field.mode": 2}


class Run:
    """The run directory, the op counter and the state checks carry across ops."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.preset_digest: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tracer = None

    def path(self, token: str) -> str:
        return str(self.workdir / token[1:]) if token.startswith("@") else token

    def call(self, op) -> str:
        """Run the op's CLI calls; returns an error message, or '' on success."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in op.calls:
                try:
                    code = cli.main([self.path(token) for token in argv])
                except Exception as exc:  # an op that crashes is a failed op
                    return f"{argv[0]} raised {exc!r}"
                if code != 0:
                    return f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}"
        return ""

    def csv(self, op, call=0):
        argv = op.calls[call]
        return self.workdir / argv[argv.index("--output") + 1][1:]

    # -- checks, outside the timed region ----------------------------------

    def check_round(self, ops) -> list:
        """One list of problems per op of the round."""
        return getattr(self, "_check_" + self.workload.replace("-", "_"))(ops)

    def _check_param_sweep(self, ops):
        problems = []
        for op in ops:
            phase_csv, sweep_csv = self.csv(op, 0), self.csv(op, 1)
            problems.append(checks.check_param_sweep(
                op.params, *checks.read_csv(phase_csv), checks.read_manifest(phase_csv),
                *checks.read_csv(sweep_csv)))
        return problems

    def _check_n_sweep(self, ops):
        problems = []
        for op in ops:
            path = self.csv(op)
            header, rows = checks.read_csv(path)
            if op.label == "n-resolution":
                found = checks.check_n_resolution(op.params, header, rows)
            elif op.label == "fig4":
                found = checks.check_n_resolution({"base": PRESET_BASE}, header, rows)
            else:
                params = op.params if op.label == "n-phase" else {"base": PRESET_BASE}
                found = checks.check_n_phase(params, header, rows, checks.read_manifest(path))
            if op.label in gen.PRESETS:
                digest = hashlib.sha256(path.read_bytes() + b"\0" + Path(
                    str(path) + ".manifest.json").read_bytes()).hexdigest()
                first = self.preset_digest.setdefault(op.label, digest)
                if digest != first:
                    found.append(f"{op.label} output differs from its first run")
            problems.append(found)
        return problems

    def _check_oracle(self, ops):
        problems = []
        mismatch = []
        for op in ops:
            path = self.csv(op)
            found = checks.check_oracle_point(op.params["tol"], checks.read_manifest(path))
            mismatch.append(checks.oracle_mismatch(*checks.read_csv(path)))
            problems.append(found)
        pair = checks.check_oracle_pair(*mismatch)
        return [found + pair for found in problems]

    def _check_quadrature(self, ops):
        return [checks.check_quadrature(op.params, *checks.read_csv(self.csv(op, 0)),
                                        *checks.read_csv(self.csv(op, 1)), gen.QUAD_MODES)
                for op in ops]

    # -- rounds ------------------------------------------------------------

    def run_round(self, round_index: int, latencies: list) -> None:
        """Write the round's configs, run its ops (timing each), then check them."""
        ops = gen.make_round(self.workload, self.seed, round_index)
        self.write_configs(ops)
        errors = []
        for op in ops:
            if self.tracer is not None:
                self.tracer.op = self.attempted
            started = time.perf_counter()
            errors.append(self.call(op))
            latencies.append(time.perf_counter() - started)
            self.attempted += 1
        if any(errors):
            problems = [[e or "not checked: another op of its round failed"] for e in errors]
        else:
            try:
                problems = self.check_round(ops)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [[f"output unreadable: {exc!r}"]] * len(ops)
        for op, error, found in zip(ops, errors, problems):
            if found:
                sys.stderr.write(f"{self.workload} round {round_index} {op.label}: "
                                 f"{'; '.join(found[:3])}\n")
                self.failed += 1
                self.wrong += 0 if error else 1

    def write_configs(self, ops) -> None:
        for op in ops:
            for name, text in op.configs.items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def timed(self, seconds: float, first_round: int):
        """Whole rounds until the ops' own wall time reaches ``seconds``."""
        latencies = []
        round_index = first_round
        while sum(latencies) < seconds:
            self.run_round(round_index, latencies)
            round_index += 1
        return latencies, round_index


def end_to_end(workload: str, latencies: list) -> dict:
    ordered = sorted(latencies)
    rank = -(-TAIL_PERCENTILE[workload] * len(ordered) // 100)  # ceil
    if len(ordered) - rank < 10:
        sys.stderr.write(f"op_tail_ms: only {len(ordered) - rank} ops beyond "
                         f"p{TAIL_PERCENTILE[workload]} in this run\n")
    return {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": ordered[max(rank, 1) - 1] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(fockprobe.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"fockprobe imported from {fockprobe.__file__}, not from src/\n")
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.workdir)
    protocol = sys.stdout
    # The same op for every seed, so that set-up time does not vary with it.
    warm_up = gen.make_round(args.workload, 0, 0)[:1]
    run.write_configs(warm_up)
    error = run.call(warm_up[0])
    if error:
        sys.stderr.write(f"warm-up op failed: {error}\n")
    protocol.write("READY\n")
    protocol.flush()
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    if args.trace:
        # Untraced first half, traced second half: the difference of the two
        # medians is the tracing overhead.
        plain, next_round = run.timed(args.seconds / 2.0, 1)
        run.tracer = Tracer()
        run.tracer.install(fockprobe)
        ops_before = run.attempted
        traced, _ = run.timed(args.seconds / 2.0, next_round)
        run.tracer.uninstall()
        metrics = run.tracer.metrics(run.attempted - ops_before)
        metrics["trace.overhead_ms"] = {
            "value": (statistics.median(traced) - statistics.median(plain)) * 1e3,
            "unit": "ms"}
        metrics["trace.missing_names"] = {"value": len(run.tracer.missing), "unit": "count"}
        run.tracer.write(args.workdir / "spans.npz")
    else:
        latencies, _ = run.timed(args.seconds, 1)
        metrics = end_to_end(args.workload, latencies)

    for leftover in args.workdir.iterdir():
        if leftover.name != "spans.npz":
            leftover.unlink()
    if not args.trace:
        args.workdir.rmdir()
    protocol.write(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
