"""fockprobe benchmark: one workload per invocation, results as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(bench/workload.py) that imports fockprobe from ./src and calls its CLI
in-process.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; ``setup_s`` is the median over SETUP_SAMPLES processes of the time
from process start to the end of one warm-up op.  With ``--trace 1`` it
carries the per-layer metrics of a traced run.  Exits non-zero, printing no
result, when the checkout holds no fockprobe sources or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # one thread per process: no BLAS or OpenMP pools
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _read_line(proc, deadline: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
            raise ChildError("workload process did not answer before the deadline")
    return proc.stdout.readline()


def _start(args, workdir: Path, setup_only: bool):
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True)
    return proc, started


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError("workload process overran the deadline") from None
    if proc.returncode != 0:
        raise ChildError(f"workload process exited {proc.returncode}")
    return out


def _ready(proc, started: float, deadline: float) -> float:
    line = _read_line(proc, deadline)
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise ChildError(f"workload process failed during set-up ({line.strip()!r})")
    return time.perf_counter() - started


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    runs = ROOT / ".bench_runs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            proc, started = _start(args, runs / f"{tag}-setup{i}", setup_only=True)
            try:
                setups.append(_ready(proc, started, deadline))
            finally:
                _finish(proc, deadline)
    proc, started = _start(args, runs / tag, setup_only=False)
    try:
        setups.append(_ready(proc, started, deadline))
    finally:
        out = _finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fockprobe benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fockprobe" / "__init__.py").is_file():
        sys.stderr.write(f"no fockprobe sources under {ROOT / 'src'}; "
                         "run from the root of a fockprobe checkout\n")
        return 2
    try:
        result = run(args)
    except (ChildError, ValueError, IndexError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
