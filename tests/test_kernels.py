import cmath
import math

import numpy as np
import pytest

from conftest import random_setup
from fockprobe import (
    ParameterError,
    ProbeWarning,
    amplitudes,
    build_setup,
    c_closed,
    c_quadrature,
    c_resonant_nonrel,
    counter_rotating_mode_sum,
    mode_sum_offres,
    prepare_field,
    x_closed,
)
from fockprobe.amplitudes import _closed_array, _mode_tail
from fockprobe.cli import main
from fockprobe.kernels import _reduced_kernel
from fockprobe.model import TruncationReport


def resonant(alpha, speed=1e-3, length=1.0):
    return build_setup(length, speed, light_speed=1.0, resonant_with_mode=alpha,
                       coupling_ratio=1e-4, unit_mode="natural")


def test_even_resonant_rotating_kernel_is_exactly_zero():
    setup = resonant(2)
    assert c_closed(setup, 2, -1) == 0j
    quadv = c_quadrature(setup, 2, -1)
    assert abs(quadv) < 1e-10 * setup.crossing_time**2


def test_odd_resonant_rotating_kernel_is_positive_real():
    setup = resonant(1)
    value = c_closed(setup, 1, -1)
    expected = 2.0 * (setup.crossing_time / math.pi) ** 2
    assert value.real == pytest.approx(expected, rel=1e-12)
    assert abs(value.imag) < 1e-12 * value.real
    quadv = c_quadrature(setup, 1, -1)
    assert abs(value - quadv) <= 1e-8 * abs(value)


def test_resonant_counter_rotating_kernel_value():
    setup = resonant(2)
    value = c_closed(setup, 2, +1)
    # dominated by i L^2 / (4 pi alpha c v) = i / (8 pi 1e-3)
    assert value.imag == pytest.approx(39.78873577297383, rel=1e-5)
    assert abs(value - 39.789j) < 1e-3
    quadv = c_quadrature(setup, 2, +1)
    assert abs(value - quadv) <= 1e-8 * abs(value)


def test_randomized_grid_against_nested_quadrature(rng):
    for _ in range(30):
        setup = random_setup(rng)
        beta = int(rng.integers(1, 13))
        sign = int(rng.choice([-1, 1]))
        closed = c_closed(setup, beta, sign)
        quadv = c_quadrature(setup, beta, sign)
        assert abs(closed - quadv) <= 1e-8 * max(abs(closed), 1e-9)


# Rotating-sign points (mode, transit phase a) at L = 1.988, v = 0.01288 where
# Re and Im each met quad_tol but their summed error estimates did not.
@pytest.mark.parametrize("beta, a", [(4, 9.21), (2, 4.42), (3, 0.81)])
def test_quadrature_requests_meet_the_summed_error_check(beta, a):
    length, speed = 1.988, 0.01288
    T = length / speed
    gap = beta * math.pi / length - a / T
    setup = build_setup(length, speed, light_speed=1.0, atom_gap=gap,
                        coupling_ratio=1e-4, unit_mode="natural")
    closed = c_closed(setup, beta, -1)
    quadv = c_quadrature(setup, beta, -1)
    assert abs(closed - quadv) <= 1e-9 * max(abs(closed), 1e-3 * T * T)


def test_nonrelativistic_limit():
    setup = resonant(2)
    limit = c_resonant_nonrel(setup, 2)
    assert limit == pytest.approx(1j / (8 * math.pi * 1e-3), rel=1e-15)
    # ratio walks to 1 linearly (or faster) in v/c
    for speed in (1e-2, 1e-3, 1e-4):
        s = resonant(2, speed=speed)
        ratio = c_closed(s, 2, +1) / c_resonant_nonrel(s, 2)
        assert abs(ratio - 1.0) <= 2.0 * speed
    with pytest.raises(ParameterError):
        c_resonant_nonrel(setup, 3)


def test_kernel_prefactor_scales_with_length_squared():
    base = c_resonant_nonrel(resonant(2, length=1.0), 2)
    doubled = c_resonant_nonrel(resonant(2, length=2.0), 2)
    assert doubled == pytest.approx(4.0 * base, rel=1e-15)


def test_counter_rotating_kernel_imaginary_part_positive():
    for alpha in (2, 4, 6):
        setup = resonant(alpha)
        assert c_closed(setup, alpha, +1).imag > 0.0


def test_scaled_kernel_is_length_invariant():
    # lambda^2 C_{+,alpha} / (k_alpha L) must not move under L -> s L at fixed
    # lambda/Omega and v, with the gap tracking resonance
    values = []
    for length in (1.0, 1000.0):
        setup = resonant(2, length=length)
        kL = 2 * math.pi
        values.append(setup.coupling**2 * c_closed(setup, 2, +1) / kL)
    assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_mode_sum_exclusion_is_consistent():
    setup = resonant(2)
    prep = prepare_field(setup, 2, 0)
    with_alpha_listed, _ = mode_sum_offres(setup, prep, modes=[1, 2, 3, 4, 5, 6])
    without_alpha, _ = mode_sum_offres(setup, prep, modes=[1, 3, 4, 5, 6])
    assert with_alpha_listed == without_alpha


def test_mode_sum_cap_warns_and_tail_estimate_brackets_remainder(monkeypatch):
    # rho = c/v = 4.9875 puts z = -exp(-i pi rho) near 1, where summation by
    # parts needs B of several hundred: a cap of 64 stops short of that
    setup = resonant(2, speed=0.2005)
    prep = prepare_field(setup, 2, 0)
    with monkeypatch.context() as patch:
        patch.setattr(amplitudes, "MAX_MODE", 64)
        with pytest.warns(ProbeWarning, match="hit max_mode=64"):
            s_short, rep_short = mode_sum_offres(setup, prep)
    s_long, rep_long = mode_sum_offres(setup, prep)
    assert not rep_short.converged and rep_short.modes_evaluated == 64
    assert rep_short.error_bound > amplitudes.TAIL_TOL * abs(s_short)
    assert rep_long.converged and 64 < rep_long.modes_evaluated <= 10_000
    assert abs(s_long - s_short) <= rep_short.error_bound + rep_long.error_bound


def test_mode_sum_converges_under_loose_tolerance(monkeypatch):
    setup = resonant(2)
    prep = prepare_field(setup, 2, 0)
    with monkeypatch.context() as patch:
        patch.setattr(amplitudes, "TAIL_TOL", 1e-6)
        value, report = mode_sum_offres(setup, prep)
        assert report.converged
        assert report.error_bound <= 1e-6 * abs(value)
        # doubling the cap leaves the converged sum as it is, and the default
        # tolerance moves it by no more than the loose sum's own bound
        patch.setattr(amplitudes, "MAX_MODE", 20_000)
        assert mode_sum_offres(setup, prep) == (value, report)
    tight, _ = mode_sum_offres(setup, prep)
    assert abs(tight - value) <= report.error_bound + 1e-15 * abs(value)


def test_unmeetable_tail_tolerance_warns_and_reports_not_converged(monkeypatch):
    setup = resonant(2)
    prep = prepare_field(setup, 2, 0)
    monkeypatch.setattr(amplitudes, "MAX_MODE", 3)
    monkeypatch.setattr(amplitudes, "TAIL_TOL", 1e-17)
    for name, call in (("off-resonant kernel sum", lambda: mode_sum_offres(setup, prep)),
                       ("transition mode sum", lambda: counter_rotating_mode_sum(setup, 2))):
        with pytest.warns(ProbeWarning, match=f"{name} hit max_mode=3"):
            value, report = call()
        assert not report.converged and report.modes_evaluated == 3
        assert report.error_bound > 1e-17 * abs(value)


@pytest.mark.filterwarnings("ignore::fockprobe.ProbeWarning")
def test_probed_mode_at_or_above_the_cap_is_refused(tmp_path, capsys, monkeypatch):
    # the tail beyond B <= MAX_MODE would hold a probed mode alpha >= MAX_MODE
    with monkeypatch.context() as patch:
        patch.setattr(amplitudes, "MAX_MODE", 8)
        setup = resonant(2)
        assert counter_rotating_mode_sum(setup, 7)[1].modes_evaluated == 8
        for alpha in (8, 9):
            with pytest.raises(ParameterError, match="MAX_MODE"):
                mode_sum_offres(setup, prepare_field(setup, alpha, 0))
            with pytest.raises(ParameterError, match="MAX_MODE"):
                counter_rotating_mode_sum(setup, alpha)
        # an explicit mode set has no tail
        assert counter_rotating_mode_sum(setup, 9, modes=[1, 2])[1].converged
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("units.mode = natural\ncavity.length = 1\n"
                   f"field.mode = {amplitudes.MAX_MODE}\nfield.photons = 0\n")
    out = tmp_path / "out.csv"
    assert main(["phase", "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "MAX_MODE" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("gap", [1e-300, 5e-324])
def test_mode_sums_survive_a_vanishing_gap(gap):
    # the poles of the tails collapse onto beta = 0 and their spread underflows
    setup = build_setup(1.0, 1e-3, light_speed=1.0, atom_gap=gap,
                        coupling_ratio=1e-4, unit_mode="natural")
    for value, report in (mode_sum_offres(setup, prepare_field(setup, 2, 0)),
                          counter_rotating_mode_sum(setup, 2)):
        assert cmath.isfinite(value) and report.converged


# arguments x = B + 1 - c of the tails' Hurwitz zeta values, from the
# domain's edge (B = 32, c = 0) to far past MAX_MODE
ZETA_ARGUMENTS = [33.0, 33.7, 40.2, 64.5, 100.0, 1000.3, 10001.9, 2e4, 1e6]
EPS = np.finfo(float).eps


@pytest.mark.parametrize("lead", [2, 3])
def test_hurwitz_zeta_matches_scipy(lead):
    from scipy.special import zeta

    orders = lead + np.arange(amplitudes.LAURENT_ORDER)
    for x in ZETA_ARGUMENTS:
        np.testing.assert_allclose(amplitudes._hurwitz_zeta(lead, x), zeta(orders, x),
                                   rtol=4 * EPS, atol=0, err_msg=f"x = {x}")


@pytest.mark.parametrize("lead", [2, 3])
def test_hurwitz_zeta_matches_high_precision(lead):
    mpmath = pytest.importorskip("mpmath")
    # at 40 digits the values near 33^-26 lose relative accuracy; 150 do not
    with mpmath.workdps(150):
        exact = [[float(mpmath.zeta(lead + k, x)) for k in range(amplitudes.LAURENT_ORDER)]
                 for x in ZETA_ARGUMENTS]
    got = [amplitudes._hurwitz_zeta(lead, x) for x in ZETA_ARGUMENTS]
    np.testing.assert_allclose(got, exact, rtol=2 * EPS, atol=0)


@pytest.mark.parametrize("x", [2.0, 6.000002, 32.99])
def test_hurwitz_zeta_below_its_domain_sums_the_first_terms(x):
    # reached only when MAX_MODE is lowered below DIRECT_MODES
    from scipy.special import zeta

    orders = 3 + np.arange(amplitudes.LAURENT_ORDER)
    np.testing.assert_allclose(amplitudes._hurwitz_zeta(3, x), zeta(orders, x),
                               rtol=8 * EPS, atol=0)


def test_c_closed_structure():
    setup = resonant(2)
    prep = prepare_field(setup, 2, 1)
    values = {(b, s): c_closed(setup, b, s) for b in (1, 2, 3) for s in (+1, -1)}
    assert all(isinstance(v, complex) and cmath.isfinite(v) for v in values.values())
    assert values[2, -1] == 0j
    assert values[2, +1].imag > 0.0
    total, report = mode_sum_offres(setup, prep, modes=[3, 2, 1])
    manual = sum(np.conj(values[b, +1]) / (b * math.pi) for b in (1, 3))
    assert total == pytest.approx(manual, rel=1e-14)
    assert report == TruncationReport(2, 0.0, True)


SETUPS = {
    "natural": resonant(2),
    "SI": build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4),
}


@pytest.mark.filterwarnings("ignore::fockprobe.ProbeWarning")
@pytest.mark.parametrize("which", ["offres", "counter_rotating"])
@pytest.mark.parametrize("units, alpha, modes, cap", [
    ("SI", 2, 3000, 256),
    ("natural", 253, 3000, 256),  # the probed mode among the direct modes, B at the cap
    ("natural", 4, 3000, 768),
    ("SI", 2, 768, None),
    ("natural", 3, 256, None),
    ("natural", 5, 6, None),      # B capped at alpha + 1
])
def test_mode_sums_match_term_by_term_loop(monkeypatch, which, units, alpha, modes, cap):
    """The direct part is a term-by-term loop over modes 1..B; the tail beyond
    B agrees with the loop's further terms up to ``modes`` plus the tail beyond."""
    setup = SETUPS[units]
    kernel = which == "offres"
    betas = range(1, modes + 1)
    if kernel:
        terms = [np.conj(c_closed(setup, b, +1)) / (b * np.pi) for b in betas]
    else:
        terms = [abs(x_closed(setup, b, +1)) ** 2 for b in betas]
    monkeypatch.setattr(amplitudes, "MAX_MODE", cap or modes)
    if kernel:
        total, report = mode_sum_offres(setup, prepare_field(setup, alpha, 0))
    else:
        total, report = counter_rotating_mode_sum(setup, alpha)
    B = report.modes_evaluated
    assert alpha < B <= amplitudes.MAX_MODE
    direct = 0.0
    for beta in range(1, B + 1):
        if beta != alpha:
            direct += terms[beta - 1]
    tail, bound = _mode_tail(setup, B + 1, kernel)
    assert total == pytest.approx(direct + tail, rel=1e-14)
    assert report.tail_estimate == abs(tail) and report.error_bound == bound
    assert report.converged == (bound <= amplitudes.TAIL_TOL * abs(total))
    further = sum(terms[B:modes]) + _mode_tail(setup, modes + 1, kernel)[0]
    # the SI transit phases a ~ 1e6 beta carry rounding of 1e-10..1e-7 rad,
    # which the loop's terms and the tail's start phase round differently
    assert abs(further - tail) <= bound + 1e-11 * abs(total)


def _reference_sums(setup, alpha, modes=20_000_000, chunk=1 << 19):
    """Both mode sums summed directly to ``modes``, plus the tails beyond.

    Modes below 65 use the closed forms.  Above, where a - b > 0 is far from
    the removable singularity, the textbook terms are, in units of T^2 and
    with p = (-1)^beta, D = b^2 - a^2, r = b / D^2:
    conj(C+)/b = r (1 - p cos a) + i (r p sin a + a / (2 b D)) and
    |X+|^2 = 2 r (1 - p cos a).
    """
    betas = np.arange(1, 65)
    betas = betas[betas != alpha]
    offres = np.sum(np.conj(_closed_array(setup, betas, +1, _reduced_kernel, 2))
                    / (betas * np.pi))
    vacuum = np.sum(np.abs(_closed_array(setup, betas, +1)) ** 2)
    T = setup.crossing_time
    parity = np.resize([-1.0, 1.0], chunk)  # chunks start at odd modes
    for start in range(65, modes + 1, chunk):
        beta = np.arange(start, min(start + chunk, modes + 1), dtype=float)
        p = parity[:beta.size]
        b = beta * np.pi
        a = (setup.mode_frequency(beta) + setup.atom_gap) * T
        d = b * b - a * a
        r = b / (d * d)
        # reduced by 2 pi first (an error of the order of a's own rounding):
        # cos and sin are several times slower at a ~ 1e11
        phase = a - 2.0 * np.pi * np.rint(a / (2.0 * np.pi))
        real = np.sum(r * (1.0 - p * np.cos(phase)))
        imag = np.sum(r * p * np.sin(phase) + 0.5 * a / (b * d))
        offres += T * T * complex(real, imag)
        vacuum += T * T * 2.0 * real
    return (offres + _mode_tail(setup, modes + 1, True)[0],
            vacuum + _mode_tail(setup, modes + 1, False)[0])


def _accuracy_cases():
    rng = np.random.default_rng(20240811)
    draws = [random_setup(rng) for _ in range(6)]
    return [
        ("SI microcavity", build_setup(1e-6, 1000.0, resonant_with_mode=2,
                                       coupling_ratio=1e-4), 2),
        # resonant with mode 3: at v = 0.2 (rho = 5, z = 1) a resonant even
        # mode would make every |X+|^2 vanish and leave rounding to compare
        *[(f"natural v={v}", resonant(3, speed=v), 3) for v in (0.1, 0.2, 0.37)],
        *[(f"random draw {i}", s, 1 + i % 4) for i, s in enumerate(draws)],
    ]


@pytest.mark.parametrize("name, setup, alpha", _accuracy_cases(),
                         ids=[case[0] for case in _accuracy_cases()])
def test_mode_sums_match_twenty_million_mode_reference(name, setup, alpha):
    offres, rep_offres = mode_sum_offres(setup, prepare_field(setup, alpha, 0))
    vacuum, rep_vacuum = counter_rotating_mode_sum(setup, alpha)
    assert rep_offres.converged and rep_vacuum.converged
    ref_offres, ref_vacuum = _reference_sums(setup, alpha)
    assert abs(offres - ref_offres) <= 1e-10 * abs(ref_offres)
    assert abs(vacuum - ref_vacuum) <= 1e-10 * abs(ref_vacuum)
