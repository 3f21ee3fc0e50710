import csv
import json
from pathlib import Path

import pytest

from fockprobe import resolve_mapping, run_sweep, spec_from_config
from fockprobe.cli import main

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
    spec_a = spec_from_config(resolve_mapping(small_sweep_mapping()), tmp_path / "a.csv")
    spec_b = spec_from_config(resolve_mapping(small_sweep_mapping()), tmp_path / "b.csv")
    csv_a, man_a = run_sweep(spec_a)
    csv_b, man_b = run_sweep(spec_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert man_a.read_bytes() == man_b.read_bytes()


def test_sweep_rows_and_manifest_content(tmp_path):
    spec = spec_from_config(resolve_mapping(small_sweep_mapping()), tmp_path / "out.csv")
    csv_path, manifest_path = run_sweep(spec)
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
    # default truncation caps the off-resonant sum: recorded, not hidden
    assert any("max_mode" in w for w in manifest["warnings"])
    assert manifest["truncation"]["converged"] is False


def test_sweep_isolates_row_failures(tmp_path):
    mapping = {
        **NATURAL_BASE,
        "field.photons": 1,
        "sweep.variable": "delta",
        # last value pushes the gap negative: that row must fail alone
        "sweep.values": "0.0, 0.5, 7.0",
    }
    spec = spec_from_config(resolve_mapping(mapping), tmp_path / "delta.csv")
    csv_path, _ = run_sweep(spec)
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
    spec = spec_from_config(resolve_mapping(mapping), tmp_path / "res.csv")
    csv_path, _ = run_sweep(spec)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "m", "delta_gamma", "status"]
    assert len(rows) == 1 + 3 * 2
    d1 = float(rows[1][2])
    d2 = float(rows[2][2])
    assert d2 == pytest.approx(2 * d1, rel=1e-2)


def test_cli_warnings_reach_stderr_unless_quiet(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "optical-microcavity.cfg"
    assert main(["phase", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "p_excite,gamma,visibility,validity"
    assert "warning: off-resonant kernel sum hit max_mode=10000" in captured.err
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", str(config), "--output", str(out)]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in manifest["warnings"])
    assert main(["phase", "--config", str(config), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


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
    assert lines[0] == "n,m,delta_gamma"
    assert len(lines) == 1 + 3 * 2
    code = main(["fringe", "--config", str(cfg), "--unknown-photons", "4",
                 "--phi", "0.0", "--phi", "1.5707963267948966"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "phi,p_plus,p_minus"
    p_plus, p_minus = (float(x) for x in lines[1].split(",")[1:])
    assert p_plus + p_minus == pytest.approx(1.0, rel=1e-12)


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
])
def test_cli_verify_rejects_unusable_tolerance(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, {
        "units.mode": "natural",
        "cavity.length": "1.0",
        "atom.speed": "1e-2",
        "atom.coupling_ratio": "1e-6",
        "field.mode": "2",
        "field.photons": "2",
    })
    code = main(["verify", "--config", str(cfg), "--quiet", *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "tightest rtol" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


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


def test_cli_sweep_preset(tmp_path):
    out = tmp_path / "fig4.csv"
    code = main(["sweep", "--preset", "fig4", "--output", str(out), "--quiet"])
    assert code == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["n", "m", "delta_gamma", "status"]
    assert len(rows) == 1 + 101 * 4
    assert Path(str(out) + ".manifest.json").exists()
