import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_setup
from fockprobe import (
    ConvergenceError,
    ParameterError,
    build_setup,
    counter_rotating_mode_sum,
    x_closed,
    x_detuned_leading,
    x_mod_squared,
    x_quadrature,
)
from fockprobe.amplitudes import _closed_array, _reduced_amplitude, _transit_phases
from fockprobe.kernels import _reduced_kernel
from fockprobe.model import TruncationPolicy, TruncationReport


def resonant(alpha, speed=1e-3, length=1.0, detuning=0.0):
    return build_setup(length, speed, light_speed=1.0,
                       resonant_with_mode=alpha, detuning=detuning,
                       coupling_ratio=1e-4, unit_mode="natural")


def test_even_resonant_rotating_amplitude_is_exactly_zero():
    setup = resonant(2)
    value = x_closed(setup, 2, -1)
    assert value.real == 0.0 and value.imag == 0.0


def test_odd_resonant_rotating_amplitude_matches_quadrature():
    setup = resonant(1)
    closed = x_closed(setup, 1, -1)
    # elementary integral: 2 L / (pi^{3/2} v), purely real
    expected = 2.0 / (math.pi ** 1.5 * 1e-3)
    assert closed.real == pytest.approx(expected, rel=1e-12)
    assert abs(closed.imag) < 1e-12 * abs(closed.real)
    quadv = x_quadrature(setup, 1, -1)
    assert abs(closed - quadv) < 1e-10 * abs(closed)


def test_generic_mode_against_quadrature():
    setup = build_setup(1.0, 1e-3, light_speed=1.0, atom_gap=2.7,
                        coupling_ratio=1e-4, unit_mode="natural")
    for beta, sign in [(3, +1), (3, -1), (1, +1), (7, -1)]:
        closed = x_closed(setup, beta, sign)
        quadv = x_quadrature(setup, beta, sign)
        assert abs(closed - quadv) <= 1e-10 * max(abs(closed), setup.crossing_time)


def test_randomized_grid_against_quadrature(rng):
    for _ in range(60):
        setup = random_setup(rng)
        beta = int(rng.integers(1, 13))
        sign = int(rng.choice([-1, 1]))
        closed = x_closed(setup, beta, sign)
        quadv = x_quadrature(setup, beta, sign)
        assert abs(closed - quadv) <= 1e-9 * max(abs(closed), setup.crossing_time)


def test_parity_cancellation_across_harmonics():
    # on resonance with the probed harmonic: even ones decouple exactly,
    # odd ones keep the elementary real value
    for alpha in range(1, 9):
        setup = resonant(alpha)
        value = x_closed(setup, alpha, -1)
        if alpha % 2 == 0:
            assert value == 0j
        else:
            expected = 2.0 * setup.cavity_length / (
                (alpha * math.pi) ** 1.5 * setup.atom_speed
            )
            assert value.real == pytest.approx(expected, rel=1e-12)


def test_near_singular_denominator_is_finite_and_accurate():
    # a -> b coincidence: v/c = (beta - alpha)/beta for the rotating sign
    alpha, beta = 2, 4
    for eps in (1e-3, 1e-6, 1e-9, 0.0):
        setup = resonant(alpha, speed=0.5 * (1.0 + eps))
        closed = x_closed(setup, beta, -1)
        assert np.isfinite(closed.real) and np.isfinite(closed.imag)
        quadv = x_quadrature(setup, beta, -1)
        assert abs(closed - quadv) <= 1e-9 * max(abs(closed), setup.crossing_time)


def test_detuned_leading_linearity():
    setup = resonant(2)
    assert x_detuned_leading(setup, 2, 0.0) == 0j
    one = x_detuned_leading(setup, 2, 1e-6)
    two = x_detuned_leading(setup, 2, 2e-6)
    assert two == pytest.approx(2 * one, rel=1e-12)
    with pytest.raises(ParameterError):
        x_detuned_leading(setup, 3, 1e-6)


def test_detuning_quadratic_scaling_of_probability():
    # |X_{-,alpha}(delta)|^2 / delta^2 stays flat at small detuning
    omega = 2 * math.pi
    ratios = []
    for frac in np.geomspace(1e-6, 1e-4, 7):
        delta = frac * omega
        setup = resonant(2, detuning=delta)
        ratios.append(x_mod_squared(setup, 2, -1) / delta**2)
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.05


def literal_mod_squared(setup, beta, sign):
    """Trig-expanded |X|^2 kept only as an independent written-out form."""
    L, c, v = setup.cavity_length, setup.light_speed, setup.atom_speed
    Om = sign * setup.atom_gap
    kL = beta * math.pi
    kv = math.pi * beta * v / L
    wc = math.pi * beta * c / L
    denom = kL * (kv**2 - (Om + wc) ** 2) ** 2
    phase = Om * L / v + math.pi * beta * c / v
    num = (
        (Om + wc) ** 2 * math.sin(math.pi * beta) ** 2
        + kv**2 * math.cos(math.pi * beta) ** 2
        + kv**2
        - 2 * kv * (Om + wc) * math.sin(math.pi * beta) * math.sin(phase)
        - 2 * kv**2 * math.cos(math.pi * beta) * math.cos(phase)
    )
    return num / denom


def test_literal_mod_squared_form_agrees(rng):
    # moderate transit phases keep the written-out trig form well conditioned
    for _ in range(40):
        length = rng.uniform(0.5, 2.0)
        speed = 10.0 ** rng.uniform(-2.0, -1.0)
        alpha = int(rng.integers(1, 5))
        gap = alpha * math.pi / length * (1.0 + rng.uniform(-0.3, 0.3))
        setup = build_setup(length, speed, light_speed=1.0, atom_gap=gap,
                            coupling_ratio=1e-4, unit_mode="natural")
        beta = int(rng.integers(1, 13))
        sign = int(rng.choice([-1, 1]))
        ours = x_mod_squared(setup, beta, sign)
        literal = literal_mod_squared(setup, beta, sign)
        assert literal == pytest.approx(ours, rel=1e-10, abs=1e-300)


def test_speed_tuned_counter_rotating_cancellation():
    # alpha = 2j with v = 2 j c / N kills the counter-rotating amplitude too
    alpha, j = 2, 1
    for N in (3, 5, 7):
        v = 2 * j / N
        setup = resonant(alpha, speed=v)
        a = (setup.mode_frequency(alpha) + setup.atom_gap) * setup.crossing_time
        b = alpha * math.pi
        envelope = (setup.crossing_time * math.sqrt(b) / (a + b)) ** 2
        assert x_mod_squared(setup, alpha, +1) <= 1e-24 * envelope


def test_resonant_amplitude_scales_inverse_speed():
    values = []
    for v in (1e-3, 2e-3, 5e-3):
        setup = resonant(1, speed=v)
        values.append(x_closed(setup, 1, -1).real * v)
    assert max(values) == pytest.approx(min(values), rel=1e-12)


def test_quadrature_reports_convergence_failure():
    # the error estimate cannot fall below the rounding level of the
    # envelope's interpolant, ~1e-16 of it, so this tolerance cannot be met
    setup = resonant(2)
    with pytest.raises(ConvergenceError):
        x_quadrature(setup, 9, +1, quad_tol=1e-18)


def test_counter_rotating_mode_sum_explicit_vs_adaptive():
    setup = resonant(2)
    explicit, report = counter_rotating_mode_sum(setup, 2, modes=[1, 2, 3, 4, 5])
    manual = sum(x_mod_squared(setup, b, +1) for b in (1, 3, 4, 5))
    assert explicit == pytest.approx(manual, rel=1e-14)
    assert report.converged and report.tail_estimate == 0.0
    policy = TruncationPolicy(max_mode=4000, tail_tol=1e-8)
    adaptive, rep = counter_rotating_mode_sum(setup, 2, policy)
    assert adaptive > explicit
    assert rep.converged


def test_x_closed_structure():
    setup = resonant(2)
    values = {(b, s): x_closed(setup, b, s) for b in (1, 2, 3) for s in (+1, -1)}
    assert all(isinstance(v, complex) and cmath.isfinite(v) for v in values.values())
    assert values[2, -1] == 0j
    assert values[3, +1] != 0j
    # explicit modes are deduplicated, sorted, and exclude the probed mode
    total, report = counter_rotating_mode_sum(setup, 2, modes=[3, 1, 2, 1])
    manual = abs(values[1, +1]) ** 2 + abs(values[3, +1]) ** 2
    assert total == pytest.approx(manual, rel=1e-14)
    assert report == TruncationReport(2, 0.0, True)


# Rotating-sign setups at v = 0.01, L = c = 1 with a chosen transit phase
# a = (beta pi - Omega) / v; |a| <= 60 keeps Omega positive for every beta.
PROPERTY_SPEED = 0.01


def rotating_setup(beta, a):
    return build_setup(1.0, PROPERTY_SPEED, light_speed=1.0,
                       atom_gap=beta * math.pi - a * PROPERTY_SPEED,
                       coupling_ratio=1e-4, unit_mode="natural")


CLOSED_FORMS = {
    # reduced form, power of T, Lipschitz constant of the closed form in a
    # over T**order (|d/da| of T b^-1/2 int e^{iax} sin bx and of
    # T^2 int_0^1 e^{ias} K(s) ds with |K| <= 1)
    "X": (_reduced_amplitude, 1, lambda b: 1.0 / math.sqrt(b)),
    "C": (_reduced_kernel, 2, lambda b: 0.5),
}


@settings(deadline=None, max_examples=80)
@given(beta=st.integers(1, 12), a=st.floats(-60.0, 60.0), form=st.sampled_from(["X", "C"]))
def test_closed_form_conjugates_under_a_to_minus_a(beta, a, form):
    reduced, order, lipschitz = CLOSED_FORMS[form]
    plus, minus = rotating_setup(beta, a), rotating_setup(beta, -a)
    value_plus = _closed_array(plus, [beta], -1, reduced, order)[0]
    value_minus = _closed_array(minus, [beta], -1, reduced, order)[0]
    # the two transit phases are rounded separately: allow their mismatch
    mismatch = abs(_transit_phases(plus, beta, -1)[0] + _transit_phases(minus, beta, -1)[0])
    scale = plus.crossing_time ** order
    assert abs(value_minus - np.conj(value_plus)) <= scale * (
        1e-12 + mismatch * lipschitz(beta * math.pi))


@settings(deadline=None, max_examples=80)
@given(
    beta=st.integers(1, 12),
    side=st.sampled_from([-1.0, 1.0]),
    offset=st.one_of(st.floats(-1e-3, 1e-3), st.sampled_from([0.0, 1e-300, -1e-12])),
    form=st.sampled_from(["X", "C"]),
)
def test_closed_form_is_continuous_through_a_equal_plus_minus_b(beta, side, offset, form):
    reduced, order, lipschitz = CLOSED_FORMS[form]
    b = beta * math.pi
    setup = rotating_setup(beta, side * b + offset)
    a = _transit_phases(setup, beta, -1)[0]
    value = _closed_array(setup, [beta], -1, reduced, order)[0]
    # the limit itself, from the reduced form at |a| = b exactly
    limit = reduced(b, b)
    limit = limit if side > 0 else np.conj(limit)
    scale = setup.crossing_time ** order
    assert abs(value - scale * limit) <= scale * (1e-12 + abs(a - side * b) * lipschitz(b))
