"""Acceptance gate: every release-blocking criterion at its pinned tolerance.

Each test prints one PASS line (visible with -v -s or in the captured output);
a failure reads as the criterion number plus the violated bound.
"""

import cmath
import time
import warnings

import numpy as np
import pytest

from conftest import random_setup
from fockprobe import (
    PRESETS,
    build_setup,
    c_closed,
    c_quadrature,
    default_truncation,
    delta_gamma_linear,
    delta_gamma_rows,
    eta_rows,
    evolve,
    phase_components,
    prepare_field,
    resolve_mapping,
    run_sweep,
    survival_amplitude,
    transition_probability,
    x_closed,
    x_quadrature,
)


def _announce(number, text):
    print(f"PASS criterion {number}: {text}")


def optical_setup():
    return build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)


def test_criterion_01_first_order_closed_vs_quadrature():
    rng = np.random.default_rng(11)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        setup = random_setup(rng)
        beta = int(rng.integers(1, 13))
        sign = int(rng.choice([-1, 1]))
        closed = x_closed(setup, beta, sign)
        quadv = x_quadrature(setup, beta, sign)
        scale = max(abs(closed), setup.crossing_time)
        worst = max(worst, abs(closed - quadv) / scale)
        assert abs(closed - quadv) <= 1e-9 * scale
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _announce(1, f"200 first-order triples, worst {worst:.2e} of 1e-9 budget, "
                 f"{elapsed:.1f}s of 10s")


def test_criterion_02_second_order_closed_vs_quadrature():
    rng = np.random.default_rng(22)
    started = time.monotonic()
    worst = 0.0
    for _ in range(100):
        setup = random_setup(rng)
        beta = int(rng.integers(1, 13))
        sign = int(rng.choice([-1, 1]))
        closed = c_closed(setup, beta, sign)
        quadv = c_quadrature(setup, beta, sign)
        rel = abs(closed - quadv) / abs(closed)
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _announce(2, f"100 second-order triples, worst rel {worst:.2e} of 1e-8, "
                 f"{elapsed:.1f}s of 60s")


def test_criterion_03_mode_invisibility_exact_zeros():
    for alpha in (2, 4, 6):
        setup = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=alpha,
                            coupling_ratio=1e-4, unit_mode="natural")
        x = x_closed(setup, alpha, -1)
        c = c_closed(setup, alpha, -1)
        assert x.real == 0.0 and x.imag == 0.0
        assert c.real == 0.0 and c.imag == 0.0
        T = setup.crossing_time
        assert abs(x_quadrature(setup, alpha, -1)) <= 1e-10 * T
        assert abs(c_quadrature(setup, alpha, -1)) <= 1e-10 * T * T
    _announce(3, "even-harmonic rotating amplitude and kernel exactly zero, "
                 "quadrature below 1e-10 * scale")


def test_criterion_04_detuning_quadratic_slope():
    omega = 2 * np.pi  # second harmonic, natural units
    fracs = np.geomspace(1e-6, 1e-4, 15)
    mods = []
    for frac in fracs:
        setup = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                            detuning=frac * omega, coupling_ratio=1e-4,
                            unit_mode="natural")
        mods.append(abs(x_closed(setup, 2, -1)) ** 2)
    slope = np.polyfit(np.log(fracs * omega), np.log(mods), 1)[0]
    assert abs(slope - 2.0) <= 0.05
    _announce(4, f"log-log detuning slope {slope:.4f} within 2.00 +/- 0.05")


def test_criterion_05_microcavity_probability_and_curve_shapes():
    setup = optical_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (0, 1, 5):
            prep = prepare_field(setup, 2, n)
            total = transition_probability(setup, prep).total
            assert total < 1e-20
        comps = phase_components(setup, 2)
    ns = np.arange(0, 1001, 10)
    eta, visses, _ = eta_rows(survival_amplitude(comps, setup, ns.astype(float)))
    gammas = eta.real
    assert np.all(np.diff(gammas) > 0) and np.all(np.diff(gammas, 2) < 1e-15)
    assert np.all(visses <= 1.0) and np.all(np.diff(visses) < 1e-15)
    d_in_n, failed_n = delta_gamma_rows(comps, setup, [0, 200, 500, 1000], 1)
    d_in_m, failed_m = delta_gamma_rows(comps, setup, 0, [1, 2, 5, 10])
    assert failed_n == failed_m == {}
    assert np.all(np.diff(d_in_n) < 0)
    assert np.all(np.diff(d_in_m) > 0)
    _announce(5, "microcavity P < 1e-20; gamma concave increasing, visibility "
                 "decaying, resolution ordered in n and m")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_06_linear_phase_difference_regime():
    setup = optical_setup()
    comps = phase_components(setup, 2)
    worst = 0.0
    for n in range(0, 11):
        for m in range(1, 6):
            exact = delta_gamma_rows(comps, setup, n, m)[0][0]
            linear = delta_gamma_linear(setup, 2, m)
            rel = abs(exact - linear) / linear
            worst = max(worst, rel)
            assert rel <= 0.01
    _announce(6, f"exact vs linear phase difference within 1% (worst {worst:.2e}) "
                 f"for n <= 10, m <= 5")


def test_criterion_07_length_invariance_of_phase():
    gammas = []
    for length in (1e-6, 1e-3):
        setup = build_setup(length, 1000.0, resonant_with_mode=2,
                            coupling_ratio=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            comps = phase_components(setup, 2)
        (eta,), _, failed = eta_rows(survival_amplitude(comps, setup, 5))
        assert failed == {}
        gammas.append(eta.real)
    rel = abs(gammas[0] - gammas[1]) / abs(gammas[0])
    assert rel < 1e-6
    _announce(7, f"gamma shifts by {rel:.2e} (< 1e-6) under L -> 1000 L")


# Scaled verification point: slight detuning (transit phase pi/2) keeps the
# first-order amplitude generic so the Dyson remainder is the lambda^4
# cross-term for both observables; exact resonance would parity-suppress the
# probability's remainder to lambda^6.
ORACLE_CASE = dict(speed=1e-3, alpha=2, photons=2, detune_frac=2.5e-4)


@pytest.fixture(scope="module")
def oracle_pair():
    alpha = ORACLE_CASE["alpha"]
    omega = alpha * np.pi
    results = {}
    for ratio in (1e-5, 5e-6):
        setup = build_setup(1.0, ORACLE_CASE["speed"], light_speed=1.0,
                            resonant_with_mode=alpha,
                            detuning=ORACLE_CASE["detune_frac"] * omega,
                            coupling_ratio=ratio, unit_mode="natural")
        prep = prepare_field(setup, alpha, ORACLE_CASE["photons"])
        trunc = default_truncation(prep)  # modes {1,2,3}, headroom 4, others 2
        kept = [b for b, _ in trunc.modes]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = evolve(setup, prep, trunc, integ_tol=1e-11)
            pert_p = transition_probability(setup, prep, modes=kept).total
            comps = phase_components(setup, prep.mode, modes=kept)
            amplitude = survival_amplitude(comps, setup, prep.photons)
        results[ratio] = {
            "oracle": oracle,
            "pert_p": pert_p,
            "pert_gamma": cmath.phase(amplitude),
        }
    return results


def test_criterion_08_oracle_agreement_fourth_order(oracle_pair):
    started = time.monotonic()
    devs = {}
    for ratio, bundle in oracle_pair.items():
        oracle = bundle["oracle"]
        devs[ratio] = (
            abs(oracle.p_excite_numeric - bundle["pert_p"]),
            abs(oracle.eta_numeric.real - bundle["pert_gamma"]),
        )
    ratio_p = devs[1e-5][0] / devs[5e-6][0]
    ratio_g = devs[1e-5][1] / devs[5e-6][1]
    for name, value in (("P", ratio_p), ("gamma", ratio_g)):
        assert 16.0 / 1.3 <= value <= 16.0 * 1.3, f"{name} halving ratio {value}"
    assert time.monotonic() - started < 300.0
    _announce(8, f"halving the coupling shrinks the oracle mismatch by "
                 f"x{ratio_p:.2f} (P) and x{ratio_g:.2f} (gamma); both within "
                 f"16 +/- 30%")


def test_criterion_09_oracle_unitarity_and_survival(oracle_pair):
    for bundle in oracle_pair.values():
        oracle = bundle["oracle"]
        assert oracle.norm_drift <= 10.0 * 1e-11
        assert abs(oracle.overlap) ** 2 >= (
            1.0 - 2.0 * oracle.p_excite_numeric - 1e-8
        )
    _announce(9, "norm drift within 10x integrator tolerance; survival "
                 "probability bound holds")


def test_criterion_10_sweep_determinism(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        out = tmp_path / f"fig3_{tag}.csv"
        pairs.append(run_sweep(resolve_mapping(PRESETS["fig3"]), out))
    (csv_a, man_a), (csv_b, man_b) = pairs
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert man_a.read_bytes() == man_b.read_bytes()
    _announce(10, "repeated fig3 preset runs are byte-identical (CSV and manifest)")
