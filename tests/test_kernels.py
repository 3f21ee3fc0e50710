import cmath
import math

import numpy as np
import pytest

from conftest import random_setup
from fockprobe import (
    ParameterError,
    ProbeWarning,
    build_setup,
    c_closed,
    c_quadrature,
    c_resonant_nonrel,
    counter_rotating_mode_sum,
    mode_sum_offres,
    prepare_field,
    x_closed,
)
from fockprobe.model import CONSECUTIVE_SMALL_INCREMENTS, TruncationPolicy, TruncationReport


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


def test_fast_inner_path_matches_independent_inner():
    setup = resonant(2, speed=2e-2)
    for beta, sign in [(1, +1), (4, -1)]:
        slow = c_quadrature(setup, beta, sign, inner="quad")
        fast = c_quadrature(setup, beta, sign, inner="closed")
        assert abs(slow - fast) <= 1e-9 * max(abs(slow), 1e-12)


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


def test_mode_sum_cap_warns_and_tail_estimate_brackets_remainder():
    setup = resonant(2)
    prep = prepare_field(setup, 2, 0)
    short = TruncationPolicy(max_mode=500, tail_tol=1e-12)
    longer = TruncationPolicy(max_mode=2000, tail_tol=1e-12)
    with pytest.warns(ProbeWarning):
        s_short, rep_short = mode_sum_offres(setup, prep, short)
    with pytest.warns(ProbeWarning):
        s_long, _ = mode_sum_offres(setup, prep, longer)
    assert not rep_short.converged
    assert abs(s_long - s_short) <= 2.0 * rep_short.tail_estimate


def test_mode_sum_converges_under_loose_tolerance():
    setup = resonant(2)
    prep = prepare_field(setup, 2, 0)
    policy = TruncationPolicy(max_mode=10_000, tail_tol=1e-6)
    value, report = mode_sum_offres(setup, prep, policy)
    assert report.converged
    # doubling the cap must not move a converged sum beyond its tail estimate
    doubled = TruncationPolicy(max_mode=20_000, tail_tol=1e-6)
    value2, _ = mode_sum_offres(setup, prep, doubled)
    assert abs(value2 - value) <= max(report.tail_estimate, 1e-6 * abs(value))


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


def reference_mode_sum(terms, alpha, policy, tail_factor):
    """Term-by-term stop rule that the vectorized mode sums must reproduce.

    ``terms[beta - 1]`` is the summand of mode beta; the probed mode alpha is
    skipped.  Returns (total, TruncationReport).
    """
    total, run, last, beta_last = 0.0, 0, 0.0, 0
    for beta in range(1, policy.max_mode + 1):
        if beta == alpha:
            continue
        term = terms[beta - 1]
        total += term
        last, beta_last = abs(term), beta
        if abs(total) > 0 and last <= policy.tail_tol * abs(total):
            run += 1
            if run >= CONSECUTIVE_SMALL_INCREMENTS:
                break
        else:
            run = 0
    converged = run >= CONSECUTIVE_SMALL_INCREMENTS
    return total, TruncationReport(beta_last, float(last * beta_last * tail_factor), converged)


SETUPS = {
    "natural": resonant(2),
    "SI": build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4),
}


@pytest.mark.filterwarnings("ignore::fockprobe.ProbeWarning")
@pytest.mark.parametrize("which", ["offres", "counter_rotating"])
@pytest.mark.parametrize("units, alpha, max_mode, boundary", [
    ("SI", 2, 3000, 256),        # the ten small terms straddle modes 256 | 257
    ("natural", 253, 3000, 256),  # ... with the probed mode inside that run
    ("natural", 4, 3000, 768),   # straddle modes 768 | 769
    ("SI", 2, 768, None),        # capped at a chunk boundary
    ("natural", 3, 256, None),
    ("natural", 5, 6, None),     # capped at alpha + 1
])
def test_mode_sums_match_term_by_term_loop(which, units, alpha, max_mode, boundary):
    setup = SETUPS[units]
    betas = np.arange(1, max_mode + 1)
    if which == "offres":
        closed = np.array([c_closed(setup, int(b), +1) for b in betas])
        terms, tail_factor = np.conj(closed) / (betas * np.pi), 1.0
    else:
        closed = np.array([x_closed(setup, int(b), +1) for b in betas])
        terms, tail_factor = np.abs(closed) ** 2, 0.5
    if boundary is None:
        tail_tol = 1e-14
    else:
        # every term from mode boundary - 6 on is small relative to the running
        # total, so a run of ten small terms ends just past the boundary
        kept = betas != alpha
        ratio = np.abs(terms) / np.abs(np.cumsum(np.where(kept, terms, 0.0)))
        tail_tol = float(ratio[boundary - 7:][kept[boundary - 7:]].max())
    policy = TruncationPolicy(max_mode=max_mode, tail_tol=tail_tol)
    expected = reference_mode_sum(terms, alpha, policy, tail_factor)
    if which == "offres":
        got = mode_sum_offres(setup, prepare_field(setup, alpha, 0), policy)
    else:
        got = counter_rotating_mode_sum(setup, alpha, policy)
    assert got == expected
    if boundary is None:
        assert not got[1].converged and got[1].modes_evaluated == max_mode
    else:
        assert got[1].converged and boundary < got[1].modes_evaluated < boundary + 10
