"""Single-shot timings of the layer costs named in ROADMAP item 3.

    python3 bench/baseline.py

Prints one line per figure (median of a few repeats where cheap).  These are
reference figures for README.md, not benchmark metrics: the benchmark proper
is run.py.  Takes about 40 s, most of it the criterion-8 evolve.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fockprobe as fp  # noqa: E402
from fockprobe import cli  # noqa: E402

MICROCAVITY = """cavity.length = 1e-6
atom.speed = 1000
atom.coupling_ratio = 1e-4
atom.resonant_with_mode = 2
field.mode = 2
field.photons = 10
"""


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main() -> None:
    warnings.simplefilter("ignore")
    setup = fp.build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)
    prep = fp.prepare_field(setup, 2, 10)
    print(f"mode_sum_offres, SI microcavity (10^4 modes): "
          f"{median_time(lambda: fp.mode_sum_offres(setup, prep), 20) * 1e3:.1f} ms")
    print(f"phase_components, SI microcavity: "
          f"{median_time(lambda: fp.phase_components(setup, 2), 20) * 1e3:.1f} ms")
    print(f"transition_probability, SI microcavity: "
          f"{median_time(lambda: fp.transition_probability(setup, prep), 20) * 1e3:.1f} ms")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        quiet = contextlib.redirect_stderr(io.StringIO())
        for name in ("fig3", "fig4", "fig5"):
            argv = ["sweep", "--preset", name, "--output", str(tmp / f"{name}.csv"), "--quiet"]
            with quiet:
                seconds = median_time(lambda: cli.main(argv), 5)
            print(f"{name} preset: {seconds * 1e3:.0f} ms")
        cfg = tmp / "speed.cfg"
        cfg.write_text(MICROCAVITY + "sweep.variable = speed\nsweep.start = 500\n"
                       "sweep.stop = 3500\nsweep.step = 10\n")
        argv = ["sweep", "--config", str(cfg), "--output", str(tmp / "speed.csv"), "--quiet"]
        with quiet:
            seconds = median_time(lambda: cli.main(argv), 1)
        print(f"speed sweep, 301 rows: {seconds:.2f} s")

    # criterion 8: natural units, v = 1e-3, detuning phase pi/2, lambda/Omega = 1e-5
    crit8 = fp.build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                           detuning=2.5e-4 * 2 * 3.141592653589793, coupling_ratio=1e-5,
                           unit_mode="natural")
    crit8_prep = fp.prepare_field(crit8, 2, 2)
    started = time.perf_counter()
    result = fp.evolve(crit8, crit8_prep, fp.default_truncation(crit8_prep), integ_tol=1e-11)
    seconds = time.perf_counter() - started
    report = result.step_report
    print(f"evolve at criterion 8: {seconds:.1f} s, dimension {report['dimension']}, "
          f"{report['steps']} steps, {report['rhs_evaluations']} RHS evaluations, "
          f"{seconds / report['rhs_evaluations'] * 1e6:.0f} us per evaluation")


if __name__ == "__main__":
    main()
