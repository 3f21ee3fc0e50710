import cmath
import csv
import io
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_setup
from fockprobe import (
    amplitudes,
    c_closed,
    c_quadrature,
    counter_rotating_mode_sum,
    default_truncation,
    eta_rows,
    fringe,
    mode_sum_offres,
    parse_config,
    phase_components,
    resolve_mapping,
    run_sweep,
    survival_amplitude,
    transition_probability,
    validity,
    x_closed,
    x_quadrature,
)
from fockprobe import cli
from fockprobe.cli import _build_parser, main
from fockprobe.config import MAX_SWEEP_ROWS, ConfigError
from fockprobe.sweeps import PRESETS, compute_rows, write_outputs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

NATURAL_BASE = {
    "units.mode": "natural",
    "cavity.length": 1.0,
    "atom.speed": 1e-3,
    "field.mode": 2,
    "field.photons": 0,
}


def small_sweep_mapping():
    return {
        **NATURAL_BASE,
        "sweep.variable": "n",
        "sweep.start": 0,
        "sweep.stop": 8,
        "sweep.step": 1,
    }


def write_config(tmp_path, lines, name="probe.cfg"):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


OPTICAL_LINES = {
    "cavity.length": "1e-6",
    "atom.speed": "1000",
    "field.mode": "2",
    "field.photons": "1",
}


def test_sweep_is_deterministic(tmp_path):
    csv_a, man_a = run_sweep(resolve_mapping(small_sweep_mapping()), tmp_path / "a.csv")
    csv_b, man_b = run_sweep(resolve_mapping(small_sweep_mapping()), tmp_path / "b.csv")
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert man_a.read_bytes() == man_b.read_bytes()


def test_sweep_rows_and_manifest_content(tmp_path, monkeypatch):
    csv_path, manifest_path = run_sweep(resolve_mapping(small_sweep_mapping()),
                                        tmp_path / "out.csv")
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "gamma", "visibility", "validity", "status"]
    assert len(rows) == 1 + 9
    assert all(row[-1] == "ok" for row in rows[1:])
    gammas = [float(row[1]) for row in rows[1:]]
    assert gammas == sorted(gammas)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["tool"] == "fockprobe"
    assert manifest["row_count"] == 9
    assert manifest["config"]["sweep.variable"] == "n"
    assert "atom.coupling_ratio" in manifest["defaults_applied"]
    # the default truncation meets its tail tolerance
    assert not any("max_mode" in w for w in manifest["warnings"])
    assert manifest["truncation"]["converged"] is True
    # a tolerance the tail bound cannot meet: recorded, not hidden
    monkeypatch.setattr(amplitudes, "MAX_MODE", amplitudes.DIRECT_MODES)
    monkeypatch.setattr(amplitudes, "TAIL_TOL", 1e-40)
    _, manifest_path = run_sweep(resolve_mapping(small_sweep_mapping()), tmp_path / "capped.csv")
    manifest = json.loads(manifest_path.read_text())
    assert any("hit max_mode=32" in w for w in manifest["warnings"])
    assert manifest["truncation"]["converged"] is False
    assert manifest["truncation"]["modes_evaluated"] == 32


def test_sweep_isolates_row_failures(tmp_path):
    mapping = {
        **NATURAL_BASE,
        "field.photons": 1,
        "sweep.variable": "delta",
        # last value pushes the gap negative: that row must fail alone
        "sweep.values": "0.0, 0.5, 7.0",
    }
    csv_path, _ = run_sweep(resolve_mapping(mapping), tmp_path / "delta.csv")
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "delta"
    statuses = [row[-1] for row in rows[1:]]
    assert statuses[0] == "ok" and statuses[1] == "ok"
    assert statuses[2].startswith("error:")
    assert rows[3][1] == "nan"


def test_resolution_sweep_rows(tmp_path):
    mapping = {
        **NATURAL_BASE,
        "sweep.variable": "n",
        "sweep.start": 0,
        "sweep.stop": 20,
        "sweep.step": 10,
        "sweep.observable": "resolution",
        "sweep.m_values": "1, 2",
    }
    csv_path, _ = run_sweep(resolve_mapping(mapping), tmp_path / "res.csv")
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "m", "delta_gamma", "status"]
    assert len(rows) == 1 + 3 * 2
    d1 = float(rows[1][2])
    d2 = float(rows[2][2])
    assert d2 == pytest.approx(2 * d1, rel=1e-2)


def test_cli_warnings_reach_stderr_unless_quiet(tmp_path, capsys, monkeypatch):
    shipped = CONFIGS / "optical-microcavity.cfg"
    assert main(["phase", "--config", str(shipped)]) == 0
    assert capsys.readouterr().err == ""
    # a tail tolerance the bound cannot meet with DIRECT_MODES direct modes
    monkeypatch.setattr(amplitudes, "MAX_MODE", amplitudes.DIRECT_MODES)
    monkeypatch.setattr(amplitudes, "TAIL_TOL", 1e-40)
    config = write_config(tmp_path, OPTICAL_LINES)
    assert main(["phase", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "p_excite,gamma,visibility,validity"
    assert "warning: off-resonant kernel sum hit max_mode=32" in captured.err
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", str(config), "--output", str(out)]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in manifest["warnings"])
    assert main(["phase", "--config", str(config), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    ["phase"], ["amplitudes", "--mode", "2"], ["sweep"],
])
def test_cli_config_time_warnings_are_captured(tmp_path, capsys, command):
    # build_setup warns about this coupling ratio while the config resolves
    lines = {**OPTICAL_LINES, "atom.coupling_ratio": "1e-2"}
    if command == ["sweep"]:
        lines.update({"sweep.variable": "n", "sweep.start": "0", "sweep.stop": "2",
                      "sweep.step": "1"})
    cfg = write_config(tmp_path, lines)
    out = tmp_path / "out.csv"
    assert main([*command, "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert any("coupling ratio 0.01" in w for w in manifest["warnings"])


def test_consecutive_cli_calls_match_fresh_ones(tmp_path, capsys):
    # main builds its parser once per process; no call may leave state behind
    cfg = str(write_config(tmp_path, OPTICAL_LINES))
    calls = [
        ["amplitudes", "--config", cfg, "--mode", "1", "--mode", "3", "--quiet"],
        ["kernels", "--config", cfg, "--mode", "2", "--mode-sum"],
        ["resolution", "--config", cfg, "--m", "1", "--m", "2", "--n-max", "4", "--quiet"],
        ["amplitudes", "--config", cfg, "--mode", "2"],
        ["resolution", "--config", cfg, "--m", "3", "--n-max", "2"],
        ["phase", "--config", cfg, "--quiet"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    consecutive = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert consecutive == fresh
    assert all(code == 0 for code, _, _ in fresh)
    # repeated flags start from nothing on every call
    assert len(fresh[3][1].splitlines()) == 1 + 2
    assert {line.split(",")[1] for line in fresh[4][1].splitlines()[1:]} == {"3"}
    assert "tail added" in fresh[1][2] and fresh[0][2] == fresh[2][2] == ""


def test_cli_amplitudes_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    code = main(["amplitudes", "--config", str(cfg), "--mode", "2", "--mode", "3",
                 "--sign", "both", "--quadrature-check"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "beta,sign,re_closed,im_closed,re_quad,im_quad,abs_err"
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-12


def test_cli_kernels_with_output(tmp_path):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    out = tmp_path / "kernels.csv"
    code = main(["kernels", "--config", str(cfg), "--mode", "2", "--sign", "+",
                 "--output", str(out), "--quiet", "--mode-sum"])
    assert code == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["beta", "sign", "re_closed", "im_closed", "re_quad", "im_quad"]
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert "mode_sum" in manifest
    assert manifest["command"] == "kernels"


def test_cli_phase_and_transition_headers(tmp_path, capsys):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    assert main(["phase", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p_excite,gamma,visibility,validity"
    values = [float(cell) for cell in lines[1].split(",")]  # plain numbers only
    assert 0.0 <= values[0] < 1e-19
    assert main(["transition", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p_excite,rotating,counter_rotating,vacuum"
    cells = [float(cell) for cell in lines[1].split(",")]
    assert cells[0] == pytest.approx(cells[1] + cells[2] + cells[3], rel=1e-12)


def test_cli_resolution_and_fringe(tmp_path, capsys):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    code = main(["resolution", "--config", str(cfg), "--m", "1", "--m", "2",
                 "--n-max", "10", "--n-step", "5", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,delta_gamma,status"
    assert len(lines) == 1 + 3 * 2
    phis = [0.0, 1.5707963267948966, -2.5]
    code = main(["fringe", "--config", str(cfg), "--unknown-photons", "4",
                 *(f"--phi={phi!r}" for phi in phis)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "phi,p_plus,p_minus"
    p_plus, p_minus = (float(x) for x in lines[1].split(",")[1:])
    assert p_plus + p_minus == pytest.approx(1.0, rel=1e-12)
    # the rows, from one evaluation of the amplitudes, equal one fringe call per phase
    resolved = parse_config(cfg)
    comps = phase_components(resolved.setup, 2)
    assert [[float(x) for x in line.split(",")] for line in lines[1:]] == [
        [phi, *fringe(comps, resolved.setup, resolved.prep.photons, 4, phi)] for phi in phis]


@pytest.mark.parametrize("command", [
    ["resolution", "--m", "1", "--m", "2", "--n-max", "10"],
    ["fringe", "--unknown-photons", "3", "--phi", "0.5"],
])
def test_cli_resolution_and_fringe_sum_the_modes_once(tmp_path, monkeypatch, command):
    # the threshold and the fringe read the components the run already holds
    from fockprobe import kernels, observables

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mode_sum_offres(*args, **kwargs)

    for module in (kernels, observables, cli):
        monkeypatch.setattr(module, "mode_sum_offres", counted)
    cfg = write_config(tmp_path, OPTICAL_LINES)
    assert main([*command, "--config", str(cfg), "--quiet"]) == 0
    assert len(calls) == 1


def test_cli_verify_perturbative_cells_are_one_row(tmp_path):
    # p_excite, gamma and im_eta of the perturbative column come from the
    # closed forms restricted to the kept modes, through the row path
    out = tmp_path / "verify.csv"
    cfg = CONFIGS / "desk-verification.cfg"
    assert main(["verify", "--config", str(cfg), "--output", str(out), "--quiet"]) == 0
    perturbative = {row[0]: float(row[1]) for row in list(csv.reader(open(out)))[1:]}
    resolved = parse_config(cfg)
    setup, prep = resolved.setup, resolved.prep
    kept = [b for b, _ in default_truncation(prep).modes]
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["kept_modes"] == kept
    comps = phase_components(setup, prep.mode, modes=kept)
    (eta,), _, failed = eta_rows(survival_amplitude(comps, setup, prep.photons))
    assert failed == {}
    assert perturbative == {"p_excite": transition_probability(setup, prep, modes=kept).total,
                            "gamma": eta.real, "im_eta": eta.imag}


def test_cli_verify_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "units.mode": "natural",
        "cavity.length": "1.0",
        "atom.speed": "1e-2",
        "atom.coupling_ratio": "1e-6",
        "field.mode": "2",
        "field.photons": "2",
    })
    out = tmp_path / "verify.csv"
    code = main(["verify", "--config", str(cfg), "--tol", "1e-10",
                 "--output", str(out), "--quiet"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["observable", "perturbative", "oracle", "abs_dev", "rel_dev"]
    assert {row[0] for row in rows[1:]} == {"p_excite", "gamma", "im_eta"}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_verify_fails_outside_perturbative_regime(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "units.mode": "natural",
        "cavity.length": "1.0",
        "atom.speed": "1e-2",
        "atom.coupling_ratio": "1e-2",  # wildly strong coupling
        "field.mode": "2",
        "field.photons": "2",
    })
    code = main(["verify", "--config", str(cfg), "--tol", "1e-10", "--force",
                 "--quiet"])
    assert code == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
    # stdout stays a clean CSV stream
    assert captured.out.splitlines()[0].startswith("observable,")


@pytest.mark.parametrize("extra", [
    ["--tol=nan"], ["--tol=inf"], ["--tol=0"], ["--tol=-1"], ["--tol=1e-16"],
    ["--tol=1e-12", "--scan", "integ_tol"],  # third scan level is 1e-14
    ["--tol=1e300"],  # passed after one Picard sweep per block
    ["--tol=0.1", "--scan", "modes"],
])
def test_cli_verify_rejects_unusable_tolerance(tmp_path, capsys, monkeypatch, extra):
    # a flag the oracle cannot honour is a configuration error, found before
    # anything evolves
    def evolved(*args, **kwargs):
        raise AssertionError("evolved with an unusable tolerance")
    monkeypatch.setattr(cli, "evolve", evolved)
    monkeypatch.setattr(cli, "convergence_scan", evolved)
    cfg = write_config(tmp_path, {
        "units.mode": "natural",
        "cavity.length": "1.0",
        "atom.speed": "1e-2",
        "atom.coupling_ratio": "1e-6",
        "field.mode": "2",
        "field.photons": "2",
    })
    code = main(["verify", "--config", str(cfg), "--quiet", *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "tightest rtol" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("axis", ["modes", "headroom", "integ_tol"])
def test_cli_verify_scan_refuses_modes(tmp_path, capsys, monkeypatch, axis):
    # no scan reads --modes: the modes scan sets its own, the others keep the default
    def evolved(*args, **kwargs):
        raise AssertionError("evolved with an unread --modes")
    monkeypatch.setattr(cli, "evolve", evolved)
    monkeypatch.setattr(cli, "convergence_scan", evolved)
    out = tmp_path / "scan.csv"
    assert main(["verify", "--config", str(CONFIGS / "desk-verification.cfg"),
                 "--scan", axis, "--modes", "9", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "configuration error: verify --scan reads no --modes; remove one of them\n"
    assert not out.exists()


def test_cli_validity_guard_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "units.mode": "natural",
        "cavity.length": "1.0",
        "atom.speed": "1e-3",
        "field.mode": "2",
        "field.photons": "20",  # estimator 2.0: invalid
    })
    assert main(["phase", "--config", str(cfg)]) == 3
    capsys.readouterr()
    assert main(["phase", "--config", str(cfg), "--force"]) == 0


def test_cli_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["phase", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("cavity.lenght = 1e-6\n")
    assert main(["phase", "--config", str(bad)]) == 1
    assert main(["phase"]) == 1  # --config required
    capsys.readouterr()


# Grids one value over the cap and of infinite count (stop - start overflows).
# Neither is built, since the count is checked first; a much larger finite
# grid is left out because a build before the check would exhaust memory.
@pytest.mark.parametrize("lines", [
    {"field.photons": "1e400"},
    {"sweep.variable": "n", "sweep.start": "0", "sweep.stop": str(MAX_SWEEP_ROWS),
     "sweep.step": "1"},
    {"sweep.variable": "delta", "sweep.start": "-1e308", "sweep.stop": "1e308",
     "sweep.step": "1"},
    # 99,999 values of n times two of m
    {"sweep.variable": "n", "sweep.start": "0", "sweep.stop": str(MAX_SWEEP_ROWS - 2),
     "sweep.step": "1", "sweep.observable": "resolution", "sweep.m_values": "1, 2"},
])
def test_cli_rejects_unbounded_input(tmp_path, capsys, lines):
    cfg = write_config(tmp_path, {**OPTICAL_LINES, **lines})
    out = tmp_path / "out.csv"
    command = "sweep" if "sweep.variable" in lines else "phase"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("variable", ["m", "delta"])
def test_sweep_with_negative_fixed_n_is_a_configuration_error(tmp_path, capsys, variable):
    cfg = write_config(tmp_path, {**OPTICAL_LINES, "sweep.variable": variable,
                                  "sweep.values": "0, 1", "sweep.fixed_n": "-1"})
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_sweep_row_cap_boundary():
    mapping = {**small_sweep_mapping(), "sweep.stop": MAX_SWEEP_ROWS - 1}
    assert len(resolve_mapping(mapping).sweep.values) == MAX_SWEEP_ROWS
    mapping["sweep.stop"] = MAX_SWEEP_ROWS
    with pytest.raises(ConfigError, match="MAX_SWEEP_ROWS"):
        resolve_mapping(mapping)


def test_cli_sweep_preset(tmp_path):
    out = tmp_path / "fig4.csv"
    code = main(["sweep", "--preset", "fig4", "--output", str(out), "--quiet"])
    assert code == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["n", "m", "delta_gamma", "status"]
    assert len(rows) == 1 + 101 * 4
    assert Path(str(out) + ".manifest.json").exists()



# Detuned microcavity whose amplitude leaves the half-plane Re A > 0 in about
# half of the rows n = 0..3000.
DETUNED = {**OPTICAL_LINES, "field.photons": 0, "field.detuning": 3e6}
DETUNED_GRID = {"sweep.start": 0, "sweep.stop": 3000, "sweep.step": 10}


def _scalar_amplitude(setup):
    """A(n) and the step A(n) - A(n + 1) = lambda^2 slope with Python complex
    arithmetic, and the warnings the mode sum raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        comps = phase_components(setup, 2)
    return ((lambda n: survival_amplitude(comps, setup, n)), setup.coupling**2 * comps.slope,
            [str(w.message) for w in caught])


def _branch_message(amplitude, consequence):
    return f"survival amplitude {amplitude:.6g} has non-positive real part; {consequence}"


def _reference_delta_gamma(amplitude, step, n, m):
    """(message or None, delta_gamma) from cmath and Python complex division."""
    if m == 0:
        return None, 0.0
    for amp in (amplitude(n + m), amplitude(n)):
        if amp.real <= 0.0:
            return _branch_message(amp, "phase difference is branch-ambiguous"), None
    return None, cmath.phase(1 - m * step / amplitude(n))


def _within_ulps(cell, reference, ulps):
    return abs(float(cell) - reference) <= ulps * math.ulp(reference)


@pytest.mark.parametrize("sweep", [
    {"sweep.variable": "n", **DETUNED_GRID},
    {"sweep.variable": "n", **DETUNED_GRID, "sweep.observable": "resolution",
     "sweep.m_values": "1, 300"},
    {"sweep.variable": "m", **DETUNED_GRID},
])
def test_branch_crossing_rows_match_scalar_reference(tmp_path, sweep):
    resolved = resolve_mapping({**DETUNED, **sweep})
    amplitude, step, expected_warnings = _scalar_amplitude(resolved.setup)
    csv_path, manifest_path = run_sweep(resolved, tmp_path / "out.csv", quiet=True)
    header, *rows = csv.reader(open(csv_path))
    failed = 0
    for row in rows:
        cells = dict(zip(header, row))
        n = int(cells.get("n", resolved.prep.photons))
        if "gamma" in cells:
            amp = amplitude(n)
            message = None
            if amp.real <= 0.0:
                message = _branch_message(amp, "principal-branch phase extraction is ambiguous")
            else:
                eta = -1j * cmath.log(amp)
                assert float(cells["gamma"]) == eta.real
                assert _within_ulps(cells["visibility"], math.exp(-abs(eta.imag)), 2)
                assert float(cells["validity"]) == validity(resolved.setup, n)
                if abs(eta) > math.pi / 2:
                    expected_warnings.append(f"|eta| = {abs(eta):.3g} inside "
                                             "principal-branch ambiguity zone (> pi/2)")
        else:
            message, reference = _reference_delta_gamma(amplitude, step, n, int(cells["m"]))
            if message is None:
                assert _within_ulps(cells["delta_gamma"], reference, 2)
        if message is None:
            assert cells["status"] == "ok"
        else:
            failed += 1
            assert cells["status"] == f"error: {message}"
            assert {cells[c] for c in header if c not in ("n", "m", "status")} == {"nan"}
    assert 0.4 * len(rows) < failed < 0.6 * len(rows)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["warnings"] == list(dict.fromkeys(expected_warnings))


def test_cli_resolution_marks_branch_crossing_rows(tmp_path, capsys):
    resolved = resolve_mapping(DETUNED)
    amplitude, step, _ = _scalar_amplitude(resolved.setup)
    out = tmp_path / "resolution.csv"
    assert main(["resolution", "--config", str(write_config(tmp_path, DETUNED)),
                 "--m", "300", "--m", "1", "--n-max", "3000", "--n-step", "10",
                 "--output", str(out), "--quiet"]) == 0
    header, *rows = csv.reader(open(out))
    assert header == ["n", "m", "delta_gamma", "status"]
    assert [(int(n), int(m)) for n, m, _, _ in rows] == [
        (n, m) for n in range(0, 3001, 10) for m in (1, 300)]
    failed = 0
    for n, m, delta_gamma, status in rows:
        message, reference = _reference_delta_gamma(amplitude, step, int(n), int(m))
        if message is None:
            assert _within_ulps(delta_gamma, reference, 2)
            assert status == "ok"
        else:
            failed += 1
            assert delta_gamma == "nan"
            assert status == f"error: {message}"
    assert 0.4 * len(rows) < failed < 0.6 * len(rows)
    # a failed row says so in its status cell only
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert not any(w.startswith("row ") for w in manifest["warnings"])
    # resolution writes what the equivalent resolution sweep writes
    sweep_cfg = write_config(tmp_path, {**DETUNED, "sweep.variable": "n", **DETUNED_GRID,
                                        "sweep.observable": "resolution",
                                        "sweep.m_values": "1, 300"}, "sweep.cfg")
    sweep_out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(sweep_cfg), "--output", str(sweep_out),
                 "--quiet"]) == 0
    assert out.read_bytes() == sweep_out.read_bytes()


def _phase_cells(tmp_path, lines):
    """The cells of the one row ``phase`` writes for a configuration, by column."""
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", str(write_config(tmp_path, lines, "point.cfg")),
                 "--output", str(out), "--quiet"]) == 0
    return dict(zip(*csv.reader(open(out))))


def _sweep_rows(tmp_path, lines):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(write_config(tmp_path, lines, "sweep.cfg")),
                 "--output", str(out), "--quiet"]) == 0
    header, *rows = csv.reader(open(out))
    return [dict(zip(header, row)) for row in rows]


def test_delta_rows_follow_the_configured_resonance(tmp_path):
    # the atom is locked to the fourth harmonic while the second is probed; a
    # sweep row is the row phase writes at that point, cell for cell
    base = {**NATURAL_BASE, "atom.resonant_with_mode": "4", "field.photons": "1"}
    detunings = ["-0.3", "-0.01", "0.0", "0.02", "0.4"]
    rows = _sweep_rows(tmp_path, {**base, "sweep.variable": "delta",
                                  "sweep.values": ", ".join(detunings)})
    assert [row["delta"] for row in rows] == [str(float(d)) for d in detunings]
    for detuning, cells in zip(detunings, rows):
        phase = _phase_cells(tmp_path, {**base, "field.detuning": detuning})
        assert cells["status"] == "ok"
        for column in ("gamma", "visibility", "validity"):
            assert cells[column] == phase[column]
    # so is the row of an n sweep at n = field.photons
    rows = _sweep_rows(tmp_path, {**base, "sweep.variable": "n", "sweep.values": "0, 1, 7"})
    phase = _phase_cells(tmp_path, base)
    assert rows[1]["n"] == base["field.photons"] and rows[1]["status"] == "ok"
    for column in ("gamma", "visibility", "validity"):
        assert rows[1][column] == phase[column]


@pytest.mark.filterwarnings("ignore:validity estimator:fockprobe.ProbeWarning")
def test_cli_phase_row_and_validity_warning(tmp_path, capsys):
    lines = {**NATURAL_BASE, "atom.coupling_ratio": "1e-4", "field.photons": "5"}
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", str(write_config(tmp_path, lines)),
                 "--output", str(out)]) == 0
    cells = {key: float(value) for key, value in zip(*csv.reader(open(out)))}
    resolved = resolve_mapping(lines)
    setup, prep = resolved.setup, resolved.prep
    (eta,), (visibility,), failed = eta_rows(
        survival_amplitude(phase_components(setup, 2), setup, prep.photons))
    assert failed == {}
    assert cells == {"p_excite": transition_probability(setup, prep).total,
                     "gamma": eta.real, "visibility": visibility,
                     "validity": validity(setup, prep.photons)}
    assert cells["validity"] == pytest.approx(0.5, rel=1e-12)
    assert 0.0 < cells["visibility"] <= 1.0
    # the estimator is marginal: its warning reaches stderr and the manifest once
    assert capsys.readouterr().err.count("validity estimator 0.5 is marginal") == 1
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert [w for w in manifest["warnings"] if "validity estimator" in w] == [
        "validity estimator 0.5 is marginal (perturbative trust requires < 1, "
        "comfortable below 0.1)"]


def test_delta_sweep_with_atom_gap_is_a_configuration_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**NATURAL_BASE, "atom.gap": "6.5", "field.photons": "1",
                                  "sweep.variable": "delta", "sweep.values": "0, 0.1"})
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_sweep_without_output_prints_what_output_writes(tmp_path, capsys):
    config = CONFIGS / "phase-sweep.cfg"
    out = tmp_path / "phase.csv"
    assert main(["sweep", "--config", str(config), "--output", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(config), "--quiet"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


# Each command evaluates a photon number of 1e20 or more while field.photons
# is 1; on the microcavity that puts the estimator at 1e7 or more.
HUGE = str(10**20)


@pytest.mark.parametrize("command", [
    ["sweep"],
    ["fringe", "--unknown-photons", HUGE],
    ["resolution", "--n-max", HUGE, "--n-step", str(5 * 10**19)],
])
def test_validity_guard_checks_the_largest_photon_number(tmp_path, capsys, command):
    # only the sweep reads the sweep.* keys; fringe and resolution take their
    # photon numbers from the command line
    lines = dict(OPTICAL_LINES)
    if command == ["sweep"]:
        lines.update({"sweep.variable": "n", "sweep.values": f"{HUGE}, {2 * 10**20}, 5"})
    cfg = write_config(tmp_path, lines)
    out = tmp_path / "out.csv"
    argv = [*command, "--config", str(cfg), "--output", str(out), "--quiet"]
    assert main(argv) == 3
    assert "perturbative output untrusted" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--force"]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert any(w.startswith("validity estimator") and " is invalid " in w
               for w in manifest["warnings"])
    if command == ["sweep"]:
        assert manifest["validity_class"] == "invalid"


# At L = 1, v = 1e-3, lambda/Omega = 1e-5 and n = 5 the base point scores
# 0.05 ("ok"); the smallest speed or the largest coupling ratio scores 5.
@pytest.mark.parametrize("variable, values", [
    ("coupling_ratio", "1e-5, 1e-4, 1e-3"),
    ("speed", "1e-3, 1e-4, 1e-5"),
])
def test_validity_guard_judges_the_whole_sweep_grid(tmp_path, capsys, variable, values):
    cfg = write_config(tmp_path, {"units.mode": "natural", "cavity.length": "1",
                                  "atom.speed": "1e-3", "atom.coupling_ratio": "1e-5",
                                  "field.mode": "2", "field.photons": "5",
                                  "sweep.variable": variable, "sweep.values": values})
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(cfg), "--output", str(out), "--quiet"]
    assert main(argv) == 3
    assert "perturbative output untrusted" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--force"]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["validity_class"] == "invalid"
    assert any(w.startswith("validity estimator 5 is invalid") for w in manifest["warnings"])


# A photon number of 401 digits converts to no float, like field.photons = 1e400.
BEYOND_FLOAT = str(10**400)


@pytest.mark.parametrize("grid", [
    ["--n-step", "0"],
    ["--n-step", "-1"],
    ["--n-max", str(MAX_SWEEP_ROWS), "--m", "1", "--m", "2"],
    ["--m", "0"],
    ["--n-max", "-5"],
    ["--floor", "nan"],
    ["--floor", "-1"],
    ["--floor", "inf"],
    ["--n-max", str(10**20)],
    ["--n-max", BEYOND_FLOAT, "--n-step", BEYOND_FLOAT],
    ["--m", BEYOND_FLOAT],
])
def test_cli_resolution_rejects_unusable_grid(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    assert main(["resolution", "--config", str(cfg), *grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_cli_fringe_rejects_an_unknown_arm_beyond_a_float(tmp_path, capsys, force):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    out = tmp_path / "out.csv"
    assert main(["fringe", "--config", str(cfg), "--unknown-photons", BEYOND_FLOAT,
                 "--output", str(out), *force]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: bad value for --unknown-photons")
    assert err.count("\n") == 1
    assert not out.exists()


# Above 2**53 neighbouring modes are the same double; 2**63 passed the integer
# check and cast to a negative int, 10**400 converted to no float at all.
@pytest.mark.parametrize("command", ["amplitudes", "kernels"])
@pytest.mark.parametrize("mode", [str(2**53 + 1), str(2**63), BEYOND_FLOAT],
                         ids=["2**53+1", "2**63", "10**400"])
def test_cli_refuses_a_mode_beyond_exact_doubles(tmp_path, capsys, command, mode):
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(CONFIGS / "optical-microcavity.cfg"),
                 "--mode", "1", "--mode", mode, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mode index")
    assert err.count("\n") == 1
    assert not out.exists()


# Mode 5000's quadrature is refused for its size (exit 2); the modes are all
# checked first, so the mode beyond 2**53 decides the exit code.
@pytest.mark.parametrize("command", ["amplitudes", "kernels"])
def test_cli_checks_every_mode_before_evaluating(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(CONFIGS / "desk-verification.cfg"),
                 "--quadrature-check", "--mode", str(2**53 + 1), "--mode", "5000",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mode index")
    assert err.count("\n") == 1
    assert not out.exists()


# The desk point with lambda/Omega = 1e-3 scores 0.2 at field.photons = 2;
# each command's largest photon number sets its estimator.
DESK_MARGINAL = {"units.mode": "natural", "cavity.length": "1", "atom.speed": "1e-2",
                 "atom.coupling_ratio": "1e-3", "field.mode": "2", "field.photons": "2"}


@pytest.mark.parametrize("command, sweep, value", [
    (["transition"], {}, "0.2"),
    (["phase"], {}, "0.2"),
    (["resolution", "--n-max", "3"], {}, "0.4"),
    (["fringe", "--unknown-photons", "3"], {}, "0.3"),
    (["verify"], {}, "0.2"),
    (["sweep"], {"sweep.variable": "n", "sweep.values": "1, 2, 3"}, "0.3"),
])
def test_every_guarded_command_warns_a_marginal_estimator(tmp_path, capsys, command, sweep,
                                                          value):
    cfg = write_config(tmp_path, {**DESK_MARGINAL, **sweep})
    out = tmp_path / "out.csv"
    assert main([*command, "--config", str(cfg), "--output", str(out)]) == 0
    expected = f"validity estimator {value} is marginal"
    assert expected in capsys.readouterr().err
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert any(w.startswith(expected) for w in manifest["warnings"])


# A gap of 1e300 makes lambda = 1e296 and (lambda T)^2 = 1e598.
@pytest.mark.parametrize("command", ["phase", "transition"])
@pytest.mark.parametrize("force", [[], ["--force"]])
def test_overflowing_coupling_is_a_configuration_error(tmp_path, capsys, command, force):
    cfg = write_config(tmp_path, {"units.mode": "natural", "cavity.length": "1",
                                  "atom.speed": "1e-3", "atom.gap": "1e300",
                                  "field.mode": "2", "field.photons": "1"})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--output", str(out), *force]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1
    assert not out.exists()


# A gap of 1e300 with no coupling passes every configuration check, but the
# transit phases reach 1e303 and the mode-sum tail turns NaN.
@pytest.mark.parametrize("command", ["phase", "transition"])
def test_non_finite_mode_sum_is_a_numerical_failure(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"units.mode": "natural", "cavity.length": "1",
                                  "atom.speed": "1e-3", "atom.gap": "1e300",
                                  "atom.coupling_ratio": "0", "field.mode": "2",
                                  "field.photons": "1"})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--output", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "not finite" in err
    assert not out.exists()


# A gap of 1e308 overflows omega T, so every transit phase is infinite; the
# closed forms would be NaN, and no quadrature is needed to see it.
@pytest.mark.parametrize("command", ["amplitudes", "kernels"])
def test_non_finite_transit_phase_is_a_numerical_failure(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"units.mode": "natural", "cavity.length": "1",
                                  "atom.speed": "1e-3", "atom.gap": "1e308",
                                  "atom.coupling_ratio": "0", "field.mode": "1",
                                  "field.photons": "0"})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--mode", "1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: transit phase inf is not finite\n"
    assert not out.exists()


# --quad-tol is refused whether or not --quadrature-check asks for a quadrature
QUAD_CHECK = ["--quadrature-check"]


@pytest.mark.parametrize("command", ["amplitudes", "kernels"])
@pytest.mark.parametrize("quad_tol, check", [
    pytest.param("nan", QUAD_CHECK, id="nan"), pytest.param("inf", QUAD_CHECK, id="inf"),
    pytest.param("nan", [], id="nan-unchecked"),
])
def test_non_finite_quad_tol_is_a_configuration_error(tmp_path, capsys, command, quad_tol,
                                                       check):
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(write_config(tmp_path, FAST_LINES)), "--mode", "1",
                 *check, "--quad-tol", quad_tol, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "quad_tol" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["amplitudes", "kernels"])
@pytest.mark.parametrize("quad_tol, check", [
    pytest.param("0.1", QUAD_CHECK, id="0.1"), pytest.param("1e300", QUAD_CHECK, id="1e300"),
    pytest.param("5", [], id="5-unchecked"),
])
def test_quad_tol_at_the_ceiling_is_a_configuration_error(tmp_path, capsys, command, quad_tol,
                                                          check):
    # an error estimate of a tenth of the value certifies nothing
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(CONFIGS / "desk-verification.cfg"), "--mode", "1",
                 *check, "--quad-tol", quad_tol, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "quad_tol must be positive and below 0.1" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_resolution_reports_a_threshold_above_ten_million(tmp_path, capsys):
    out = tmp_path / "resolution.csv"
    assert main(["resolution", "--config", str(CONFIGS / "optical-microcavity.cfg"),
                 "--floor", "1e-12", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == "largest n resolving a single photon at floor 1e-12 rad: 36527467\n"
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["threshold_n"] == 36_527_467
    assert manifest["warnings"] == []


def test_cli_resolution_refuses_a_threshold_beyond_2_pow_53(tmp_path, capsys):
    out = tmp_path / "resolution.csv"
    assert main(["resolution", "--config", str(CONFIGS / "optical-microcavity.cfg"),
                 "--floor", "1e-300", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: resolution floor 1e-300 rad puts the "
                          "threshold beyond 2**53")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("phis", [["--phi", "inf"], ["--phi", "nan"],
                                  ["--phi", "0", "--phi=-inf"]])
def test_cli_fringe_rejects_non_finite_phi(tmp_path, capsys, phis):
    cfg = write_config(tmp_path, OPTICAL_LINES)
    out = tmp_path / "out.csv"
    assert main(["fringe", "--config", str(cfg), "--unknown-photons", "4", *phis,
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --phi")
    assert err.count("\n") == 1
    assert not out.exists()


# Each retained mode at least doubles the dimension, so both counts are far
# over the cap; neither mode tuple may be built or its dimension multiplied out.
@pytest.mark.parametrize("modes", ["30000", "1000000"])
def test_cli_verify_refuses_an_oversized_truncation_at_once(tmp_path, capsys, modes):
    out = tmp_path / "out.csv"
    started = time.perf_counter()
    assert main(["verify", "--config", str(CONFIGS / "desk-verification.cfg"),
                 "--modes", modes, "--output", str(out)]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1 and len(err) < 200
    assert not out.exists()


def test_phase_manifest_reports_both_mode_sums(tmp_path):
    # at v = 0.2005 the vacuum sum needs B = 1024, the kernel sum B = 512
    lines = {**NATURAL_BASE, "atom.speed": "0.2005", "field.photons": "1"}
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", str(write_config(tmp_path, lines)),
                 "--output", str(out), "--quiet"]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    resolved = resolve_mapping(lines)
    _, offres = mode_sum_offres(resolved.setup, resolved.prep)
    _, vacuum = counter_rotating_mode_sum(resolved.setup, 2)
    assert offres.modes_evaluated != vacuum.modes_evaluated
    assert manifest["truncation"] == offres.as_dict()
    assert manifest["vacuum_truncation"] == vacuum.as_dict()


@pytest.mark.parametrize("variable", ["n", "m"])
def test_m_values_on_a_phase_sweep_is_a_configuration_error(tmp_path, capsys, variable):
    cfg = write_config(tmp_path, {**OPTICAL_LINES, "sweep.variable": variable,
                                  "sweep.values": "0, 1", "sweep.m_values": "7, 9"})
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "sweep.m_values" in err
    assert not out.exists()


FAST_LINES = {"units.mode": "natural", "cavity.length": "1", "atom.speed": "0.1",
              "atom.coupling_ratio": "1e-6", "field.mode": "2", "field.photons": "0"}


def test_cli_kernels_quadrature_check(tmp_path):
    out = tmp_path / "kernels.csv"
    assert main(["kernels", "--config", str(write_config(tmp_path, FAST_LINES)),
                 "--mode", "1", "--quadrature-check", "--output", str(out), "--quiet"]) == 0
    header, *rows = csv.reader(open(out))
    assert header == ["beta", "sign", "re_closed", "im_closed", "re_quad", "im_quad"]
    setup = resolve_mapping(FAST_LINES).setup
    assert [row[1] for row in rows] == ["+1", "-1"]
    for beta, sign, *cells in rows:
        closed, quad = (complex(float(re), float(im)) for re, im in (cells[:2], cells[2:]))
        assert closed == c_closed(setup, int(beta), int(sign))
        assert abs(quad - closed) <= 1e-9 * abs(closed)


@pytest.mark.parametrize("axis, code, summary", [
    ("headroom", 0, "PASS: scan converged"),
    ("modes", 2, "FAIL: scan not converged"),  # each added mode moves gamma by 5-8%
])
def test_cli_verify_scan(tmp_path, capsys, axis, code, summary):
    out = tmp_path / "scan.csv"
    assert main(["verify", "--config", str(write_config(tmp_path, FAST_LINES)),
                 "--scan", axis, "--others-max", "1", "--headroom", "2",
                 "--output", str(out), "--quiet"]) == code
    assert capsys.readouterr().out == summary + "\n"
    header, *rows = csv.reader(open(out))
    assert header == ["axis", "value", "gamma", "p_excite", "norm_drift", "dimension"]
    assert [row[0] for row in rows] == [axis] * 3
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["scan_converged"] is (code == 0)


@pytest.mark.parametrize("command", [
    ["phase"], ["transition"], ["amplitudes", "--mode", "2"], ["kernels", "--mode", "2"],
    ["resolution"], ["fringe", "--unknown-photons", "1"], ["verify"],
])
def test_sweep_keys_outside_sweep_are_a_configuration_error(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [*command, "--config", str(CONFIGS / "phase-sweep.cfg"), "--output", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "sweep.*" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config", ["optical-microcavity.cfg", "does-not-exist.cfg"])
def test_preset_with_config_is_a_configuration_error(tmp_path, capsys, config):
    out = tmp_path / "out.csv"
    argv = ["sweep", "--preset", "fig3", "--config", str(CONFIGS / config),
            "--output", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--preset" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("source", [*sorted(p.name for p in CONFIGS.glob("*.cfg")),
                                    *sorted(PRESETS)])
def test_shipped_inputs_close_both_mode_sums_below_the_cap(source):
    if source in PRESETS:
        resolved = resolve_mapping(PRESETS[source])
    else:
        resolved = parse_config(CONFIGS / source)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [mode_sum_offres(resolved.setup, resolved.prep)[1],
                   counter_rotating_mode_sum(resolved.setup, resolved.prep.mode)[1]]
    for report in reports:
        assert report.converged is True
        assert report.modes_evaluated < amplitudes.MAX_MODE


def _reference_csv(header, rows):
    """The table as csv.writer writes it with each float cell as repr(float(x))."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(cell)) if isinstance(cell, float) else str(cell)
                         for cell in row])
    return text.getvalue()


GOLDEN_HEADER = ["x", "count", "mixed", "status"]
GOLDEN_ROWS = [
    (np.float64(0.1), np.int64(3), math.nan, "ok"),
    (math.inf, 7, "", 'error: v=1.5, c=1.0 "quoted"\nsecond line'),
    (-0.0, np.int64(-1), np.float64(1e16), 'error: "q"'),
    (1e-5, 0, -math.inf, "error: one\ntwo"),
    (np.float64(math.nan), 2, 1e-5, "error: a, b"),
]


@pytest.mark.parametrize("rows", [GOLDEN_ROWS, []], ids=["cells", "empty"])
def test_written_csv_matches_the_csv_module_byte_for_byte(tmp_path, capsys, rows):
    resolved = resolve_mapping(small_sweep_mapping())
    expected = _reference_csv(GOLDEN_HEADER, rows)
    assert write_outputs(None, GOLDEN_HEADER, rows, resolved, "sweep") is None
    assert capsys.readouterr().out == expected
    out = tmp_path / "golden.csv"
    write_outputs(out, GOLDEN_HEADER, rows, resolved, "sweep")
    assert out.read_bytes() == expected.encode("utf-8")
    if not rows:
        assert expected == "x,count,mixed,status\n"


def test_written_csv_quotes_a_carriage_return_so_it_reads_back(capsys):
    # csv.writer with a "\n" line terminator leaves a bare CR unquoted on some
    # Python versions, which a reader then takes for a line break
    resolved = resolve_mapping(small_sweep_mapping())
    write_outputs(None, ["x", "status"], [(1.5, "error: a\rb")], resolved, "sweep")
    text = capsys.readouterr().out
    assert text == 'x,status\n1.5,"error: a\rb"\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["x", "status"], ["1.5", "error: a\rb"]]


@pytest.mark.parametrize("rows", [
    [(1.0, 2.0), (3.0,)],
    [(1.0,), (2.0,)],
    [(1.0, 2.0, 3.0)],
], ids=["ragged", "short", "long"])
def test_rows_that_do_not_fit_the_header_are_refused(capsys, rows):
    resolved = resolve_mapping(small_sweep_mapping())
    with pytest.raises(ValueError):
        write_outputs(None, ["a", "b"], rows, resolved, "sweep")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mapping, key_columns", [
    ({**DETUNED, "sweep.variable": "n", **DETUNED_GRID}, 1),
    ({**DETUNED, "sweep.variable": "m", **DETUNED_GRID}, 1),
    ({**DETUNED, "sweep.variable": "n", **DETUNED_GRID, "sweep.observable": "resolution",
      "sweep.m_values": "1, 300"}, 2),
    ({**NATURAL_BASE, "field.photons": 1, "sweep.variable": "delta",
      "sweep.values": "0.0, 0.5, 7.0"}, 1),
], ids=["n", "m", "resolution", "delta"])
def test_compute_rows_gives_one_row_per_grid_point(mapping, key_columns):
    resolved = resolve_mapping(mapping)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        header, rows, _ = compute_rows(resolved)
    request = resolved.sweep
    grid = [(value,) for value in request.values]
    if key_columns == 2:
        grid = [(n, m) for n in request.values for m in request.m_values]
    assert len(rows) == len(grid)
    assert [tuple(row[:key_columns]) for row in rows] == grid
    assert all(len(row) == len(header) for row in rows)
    failed = [row for row in rows if row[-1] != "ok"]
    assert failed
    for row in failed:
        assert row[-1].startswith("error: ")
        assert all(math.isnan(cell) for cell in row[key_columns:-1])


# The CLI evaluates the closed forms as one array per sign over the sorted
# modes; every cell must be what the one-element functions return.
CERTIFIED = {"amplitudes": (x_closed, x_quadrature), "kernels": (c_closed, c_quadrature)}


@pytest.mark.parametrize("command", sorted(CERTIFIED))
@pytest.mark.parametrize("sign", ["+", "-", "both"])
@pytest.mark.parametrize("check", [[], ["--quadrature-check"]], ids=["closed", "quad"])
def test_cli_array_path_is_the_scalar_path(tmp_path, rng, command, sign, check):
    closed_of, quadrature_of = CERTIFIED[command]
    signs = {"+": [+1], "-": [-1], "both": [+1, -1]}[sign]
    for draw in range(6):
        setup = random_setup(rng)
        cfg = write_config(tmp_path, {
            "units.mode": "natural", "cavity.length": repr(setup.cavity_length),
            "atom.speed": repr(setup.atom_speed), "atom.gap": repr(setup.atom_gap),
            "atom.coupling_ratio": "1e-4", "field.mode": "1", "field.photons": "0"})
        assert parse_config(cfg).setup == setup
        # unsorted, with a duplicate: the largest of four distinct modes leads
        picks = [int(beta) for beta in rng.choice(np.arange(1, 9), size=4, replace=False)]
        modes = [max(picks), *picks]
        out = tmp_path / f"{command}-{draw}.csv"
        argv = [command, "--config", str(cfg), "--sign", sign, *check,
                "--output", str(out), "--quiet"]
        for beta in modes:
            argv += ["--mode", str(beta)]
        expected = [(beta, s, closed_of(setup, beta, s),
                     quadrature_of(setup, beta, s) if check else None)
                    for beta in sorted(set(modes)) for s in signs]
        assert main(argv) == 0
        header, *rows = csv.reader(open(out))
        assert len(rows) == len(expected)
        for row, (beta, s, closed, quad) in zip(rows, expected):
            assert row[:2] == [str(beta), f"{s:+d}"]
            assert complex(float(row[2]), float(row[3])) == closed
            if quad is None:
                assert set(row[4:]) == {""}
                continue
            assert complex(float(row[4]), float(row[5])) == quad
            if command == "amplitudes":
                assert float(row[6]) == abs(closed - quad)
