"""Tests of the benchmark itself: deterministic inputs, and checks that catch bad output.

Run with ``python -m pytest bench`` from the repository root (the package's
own suite under tests/ does not collect these).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import workload
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


def _run_round(name, seed, tmp_path, round_index=1):
    run = workload.Run(name, seed, tmp_path)
    ops = gen.make_round(name, seed, round_index)
    latencies = []
    run.run_round(round_index, latencies)
    assert run.attempted == len(ops) == len(latencies)
    assert run.failed == 0
    return run, ops


def _corrupt(rows, row, col, factor):
    rows = [list(r) for r in rows]
    rows[row][col] = repr(float(rows[row][col]) * factor)
    return rows


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    def snapshot(seed, round_index):
        return [(op.label, op.calls, op.configs, op.params)
                for op in gen.make_round(name, seed, round_index)]

    assert snapshot(5, 3) == snapshot(5, 3)
    assert snapshot(5, 3) != snapshot(6, 3)
    assert snapshot(5, 3) != snapshot(5, 4)


def test_reference_amplitude_matches_a_far_direct_sum():
    base = gen.make_round("param-sweep", 11, 1)[0].params["base"]
    point = checks._point(base)
    args = (point["L"], point["v"], point["c"], point["gap"], point["lam"], point["alpha"], 7)
    near = checks.reference_amplitude(*args)
    far = checks.reference_amplitude(*args, modes=2_000_000)
    assert abs(near - far) <= 1e-12 * abs(1.0 - far)


def test_pole_tail_matches_the_terms_it_replaces():
    base = gen.make_round("param-sweep", 12, 1)[0].params["base"]
    point = checks._point(base)
    L, v, c, gap = point["L"], point["v"], point["c"], point["gap"]
    T = L / v
    betas = np.arange(10_001, 1_000_001)
    a = (betas * math.pi * c / L + gap) * T
    direct = np.sum(np.conj(checks._kernel_textbook(a, betas * math.pi, betas))
                    / (betas * math.pi))
    closed = checks.pole_tail(L, v, c, gap, 10_000) - checks.pole_tail(L, v, c, gap, 1_000_000)
    assert abs(direct - closed) <= 1e-9 * abs(direct)


def test_param_sweep_checks_reject_corrupted_output(tmp_path):
    run, ops = _run_round("param-sweep", 3, tmp_path)
    op = ops[0]
    phase = checks.read_csv(run.csv(op, 0))
    manifest = checks.read_manifest(run.csv(op, 0))
    header, rows = checks.read_csv(run.csv(op, 1))
    assert checks.check_param_sweep(op.params, *phase, manifest, header, rows) == []
    assert checks.check_param_sweep(op.params, phase[0], _corrupt(phase[1], 0, 1, 1.001),
                                    manifest, header, rows)
    assert checks.check_param_sweep(op.params, *phase, manifest, header,
                                    _corrupt(rows, 5, 1, 1.001))
    assert checks.check_param_sweep(op.params, *phase, manifest, header,
                                    _corrupt(rows, 5, 2, 1.0 - 1e-4))
    status = [list(r) for r in rows]
    status[3][-1] = "error: survival amplitude left the branch"
    assert checks.check_param_sweep(op.params, *phase, manifest, header, status)


def test_n_sweep_checks_reject_corrupted_output(tmp_path):
    run, ops = _run_round("n-sweep", 4, tmp_path)
    by_label = {op.label: op for op in ops}
    phase_op = by_label["n-phase"]
    header, rows = checks.read_csv(run.csv(phase_op))
    manifest = checks.read_manifest(run.csv(phase_op))
    assert checks.check_n_phase(phase_op.params, header, rows, manifest) == []
    assert checks.check_n_phase({}, header, _corrupt(rows, 700, 1, 1.0 + 1e-9), manifest)
    assert checks.check_n_phase({}, header, _corrupt(rows, 700, 2, 1.0 + 1e-9), manifest)

    res_op = by_label["n-resolution"]
    header, rows = checks.read_csv(run.csv(res_op))
    assert checks.check_n_resolution(res_op.params, header, rows) == []
    far = next(i for i, r in enumerate(rows) if int(r[0]) == 300 and int(r[1]) == 3)
    assert checks.check_n_resolution(res_op.params, header, _corrupt(rows, far, 2, 1 + 1e-8))
    # a 2% error on every row keeps the additivity identities; the linear
    # regime, computed independently, still catches it
    scaled = [list(r) for r in rows]
    for r in scaled:
        r[2] = repr(float(r[2]) * 1.02)
    assert checks.check_n_resolution({}, header, scaled) == []
    assert any("not within 1%" in p
               for p in checks.check_n_resolution(res_op.params, header, scaled))


def test_preset_rerun_must_be_byte_identical(tmp_path):
    run, ops = _run_round("n-sweep", 4, tmp_path)
    fig3 = next(op for op in ops if op.label == "fig3")
    path = run.csv(fig3)
    path.write_text(path.read_text().replace("0.0", "0.00", 1))
    assert any("differs from its first run" in p for p in run._check_n_sweep([fig3])[0])


def test_oracle_checks_reject_corrupted_output(tmp_path):
    run, ops = _run_round("oracle", 5, tmp_path)
    mismatch = [checks.oracle_mismatch(*checks.read_csv(run.csv(op))) for op in ops]
    assert checks.check_oracle_pair(*mismatch) == []
    header, rows = checks.read_csv(run.csv(ops[1]))
    gamma = next(i for i, r in enumerate(rows) if r[0] == "gamma")
    bent = checks.oracle_mismatch(header, _corrupt(rows, gamma, 2, 1.0 + 1e-6))
    assert checks.check_oracle_pair(mismatch[0], bent)
    manifest = checks.read_manifest(run.csv(ops[0]))
    assert checks.check_oracle_point(ops[0].params["tol"], manifest) == []
    manifest["oracle"]["norm_drift"] = 11 * ops[0].params["tol"]
    assert checks.check_oracle_point(ops[0].params["tol"], manifest)


def test_quadrature_checks_reject_corrupted_output(tmp_path):
    run, ops = _run_round("quadrature", 6, tmp_path)
    op = ops[0]
    amps = checks.read_csv(run.csv(op, 0))
    kers = checks.read_csv(run.csv(op, 1))
    assert checks.check_quadrature(op.params, *amps, *kers, gen.QUAD_MODES) == []
    T = op.params["base"]["cavity.length"] / op.params["base"]["atom.speed"]

    def off_budget(rows, row, bound):
        rows = [list(r) for r in rows]
        rows[row][4] = repr(float(rows[row][2]) + 2.0 * bound)
        return rows

    closed = abs(complex(float(amps[1][2][2]), float(amps[1][2][3])))
    assert checks.check_quadrature(
        op.params, amps[0], off_budget(amps[1], 2, checks.X_BUDGET * max(closed, T)),
        *kers, gen.QUAD_MODES)
    closed = abs(complex(float(kers[1][5][2]), float(kers[1][5][3])))
    assert checks.check_quadrature(
        op.params, *amps, kers[0], off_budget(kers[1], 5, checks.C_BUDGET * closed),
        gen.QUAD_MODES)
    assert checks.check_quadrature(op.params, *amps, kers[0], kers[1][:-1], gen.QUAD_MODES)


def test_tracer_records_spans_under_every_binding_and_restores_them(tmp_path, monkeypatch):
    import fockprobe
    from fockprobe import kernels, observables, sweeps

    import tracer as tracing

    original = kernels.mode_sum_offres
    missing_row = ("kernels.merged_away.ms", "ms", "lower", "kernels.merged_away", "ms")
    monkeypatch.setattr(tracing, "PER_LAYER", (*PER_LAYER, missing_row))
    run = workload.Run("n-sweep", 4, tmp_path)
    run.tracer = tracing.Tracer()
    run.tracer.install(fockprobe)
    try:
        assert observables.mode_sum_offres is kernels.mode_sum_offres is not original
        assert sweeps.survival_amplitude is observables.survival_amplitude
        run.run_round(1, [])
    finally:
        run.tracer.uninstall()
    assert kernels.mode_sum_offres is observables.mode_sum_offres is original

    metrics = run.tracer.metrics(run.attempted)
    assert run.tracer.missing == ["kernels.merged_away"]
    assert metrics["kernels.merged_away.ms"]["value"] == 0.0
    assert metrics["kernels.mode_sum_offres.modes"]["value"] == 10_000
    assert metrics["observables.phase_components.calls_per_op"]["value"] == 2.0
    rows = gen.N_SWEEP_ROWS + gen.RESOLUTION_N * len(gen.RESOLUTION_M) + 1001 + 404 + 1001
    assert metrics["sweeps.rows_per_op"]["value"] == rows / 5
    assert 0.0 < metrics["sweeps.compute_rows.self_ms"]["value"] < metrics[
        "sweeps.compute_rows.ms"]["value"]
    run.tracer.write(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0
    assert np.all(spans["end"] >= spans["start"])


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", *workload.end_to_end("oracle", [0.1] * 40)}
    assert [m["name"] for m in spec["per_layer"]] == [
        *(row[0] for row in PER_LAYER), "trace.overhead_ms", "trace.missing_names"]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
