import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_setup
from fockprobe import (
    BranchError,
    ParameterError,
    ProbeWarning,
    build_setup,
    classify_validity,
    delta_gamma_linear,
    delta_gamma_rows,
    eta_rows,
    fringe,
    phase_components,
    prepare_field,
    resolution_threshold,
    resolve_mapping,
    survival_amplitude,
    transition_probability,
    validity,
)
from fockprobe.cli import _eta_row
from fockprobe.sweeps import compute_rows


def natural(alpha=2, ratio=1e-4, speed=1e-3):
    return build_setup(1.0, speed, light_speed=1.0, resonant_with_mode=alpha,
                       coupling_ratio=ratio, unit_mode="natural")


def optical(ratio=1e-4):
    return build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=ratio)


def optical_line():
    """(components, setup) of the optical microcavity's second harmonic."""
    setup = optical()
    return phase_components(setup, 2), setup


def delta_gamma(setup, n, m, modes=None):
    """One row of delta_gamma_rows for the second harmonic."""
    return delta_gamma_rows(phase_components(setup, 2, modes), setup, n, m)[0][0]


def test_zero_coupling_is_inert():
    setup = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                        coupling_ratio=0.0, unit_mode="natural")
    prep = prepare_field(setup, 2, 5)
    assert transition_probability(setup, prep).total == 0.0
    (eta,), (visibility,), failed = eta_rows(
        survival_amplitude(phase_components(setup, 2), setup, prep.photons))
    assert failed == {}
    assert eta == 0j
    assert visibility == 1.0
    assert validity(setup, prep.photons) == 0.0


def test_transition_breakdown_even_resonance():
    setup = natural()
    prep = prepare_field(setup, 2, 7)
    breakdown = transition_probability(setup, prep)
    assert breakdown.rotating == 0.0
    assert breakdown.total == breakdown.counter_rotating + breakdown.vacuum
    assert breakdown.total >= 0.0


def test_transition_probability_microcavity_is_tiny():
    setup = optical()
    prep = prepare_field(setup, 2, 1)
    assert transition_probability(setup, prep).total < 1e-20


def test_perturbative_guard_warning():
    import warnings

    setup = natural(alpha=1, ratio=1e-4, speed=1e-4)  # odd harmonic: huge rotating term
    prep = prepare_field(setup, 1, 50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transition_probability(setup, prep)
    assert any("perturbative guard" in str(w.message) for w in caught)


def test_eta_small_coupling_linearization():
    setup = optical()
    comps = phase_components(setup, 2)
    # pick n so that |eta| is below 1e-2 and compare against the first-order
    # expansion gamma ~ -Im(lambda^2 K)
    n = 6
    amplitude = survival_amplitude(comps, setup, n)
    (eta,), _, _ = eta_rows([amplitude])
    gamma = eta.real
    assert abs(eta) < 1e-2
    gamma_linear = float(np.imag(amplitude))  # -Im(lambda^2 K) = Im(A)
    assert gamma == pytest.approx(gamma_linear, rel=1e-4)
    # and the generic quadratic bound holds in the moderate regime
    n_big = 200
    amplitude = survival_amplitude(comps, setup, n_big)
    (eta,), _, _ = eta_rows([amplitude])
    gamma = eta.real
    assert abs(eta) < 0.5
    assert abs(gamma - float(np.imag(amplitude))) <= abs(eta) ** 2


def test_delta_gamma_rows_identities():
    setup = optical()
    comps = phase_components(setup, 2)
    assert delta_gamma_rows(comps, setup, 17, 0)[0][0] == 0.0
    (d12, d5, d7), failed = delta_gamma_rows(comps, setup, [3, 3, 8], [12, 5, 7])
    assert failed == {}
    assert abs(d12 - (d5 + d7)) < 1e-12
    with pytest.raises(ParameterError):
        delta_gamma_rows(comps, setup, -1, 1)


@pytest.fixture(scope="module")
def optical_components():
    setup = optical()
    return setup, phase_components(setup, 2)


@settings(deadline=None)
@given(n=st.integers(0, 5000), m1=st.integers(0, 3000), m2=st.integers(0, 3000))
def test_delta_gamma_is_additive(optical_components, n, m1, m2):
    setup, comps = optical_components
    (whole, first, second), failed = delta_gamma_rows(comps, setup, [n, n, n + m1],
                                                      [m1 + m2, m1, m2])
    assert failed == {}
    assert abs(whole - (first + second)) <= 1e-12 * abs(whole)


EPS = np.finfo(float).eps


def _assert_delta_gamma_matches_mpmath(comps, setup, n, m):
    """delta_gamma_rows within 4 eps relative of 50-digit arg(A(n+m) / A(n)),
    A(n) = 1 - lambda^2 (intercept + n slope) on the same double components,
    on the rows that pass the branch guard; returns how many those are."""
    mpmath = pytest.importorskip("mpmath")
    n, m = (np.array(x, dtype=float) for x in np.broadcast_arrays(n, m))
    delta_gamma, failed = delta_gamma_rows(comps, setup, n, m)
    rows = [row for row in range(n.size) if row not in failed]
    with mpmath.workdps(50):
        lam2 = mpmath.mpf(setup.coupling) ** 2
        intercept, slope = mpmath.mpc(comps.intercept), mpmath.mpc(comps.slope)

        def amplitude(photons):
            return 1 - lam2 * (intercept + mpmath.mpf(photons) * slope)

        for row in rows:
            exact = mpmath.arg(amplitude(n[row] + m[row]) / amplitude(n[row]))
            assert abs(delta_gamma[row] - exact) <= 4 * EPS * abs(exact), (n[row], m[row])
    return len(rows)


def test_delta_gamma_matches_high_precision_on_random_setups():
    # n log-uniform up to 2**52: where A(n) stays near 1, a ratio of two
    # rounded amplitudes would lose up to 5e-7 relative; most large n fail
    # the branch guard
    compared = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        setup = random_setup(rng)
        photons = [0, 2**52, *np.floor(2.0 ** rng.uniform(0, 52, 6))]
        for alpha in (2, 4):
            compared += _assert_delta_gamma_matches_mpmath(
                phase_components(setup, alpha), setup, np.repeat(photons, 2),
                np.tile([1, 7], len(photons)))
    assert compared > 500


def test_delta_gamma_matches_high_precision_on_the_microcavity(optical_components):
    setup, comps = optical_components
    photons = [0, 1, 10**6, 365_274_737, 3_652_747_428, 2**40, 2**52]
    assert _assert_delta_gamma_matches_mpmath(comps, setup, np.repeat(photons, 2),
                                              np.tile([1, 7], len(photons))) == 14


def test_delta_gamma_matches_linear_estimate():
    setup = optical()
    for n in range(0, 11):
        for m in range(1, 6):
            exact = delta_gamma(setup, n, m)
            linear = delta_gamma_linear(setup, 2, m)
            assert exact == pytest.approx(linear, rel=1e-2)


def test_delta_gamma_linear_values():
    setup = build_setup(1e-6, 1000.0, light_speed=3e8, resonant_with_mode=2,
                        coupling_ratio=1e-4)
    # lambda^2 L^2 / (4 pi^2 alpha^2 c v) with the ratio pinned: 1e-8 c / (alpha^2 v)
    assert delta_gamma_linear(setup, 2, 1) == pytest.approx(7.5e-4, rel=1e-12)
    assert delta_gamma_linear(setup, 2, 4) == pytest.approx(
        2 * delta_gamma_linear(setup, 2, 2), rel=1e-15
    )
    with pytest.raises(ParameterError):
        delta_gamma_linear(setup, 3, 1)


def test_delta_gamma_linear_length_invariance():
    small = build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)
    large = build_setup(1e-3, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)
    assert delta_gamma_linear(small, 2, 3) == pytest.approx(
        delta_gamma_linear(large, 2, 3), rel=1e-12
    )


def test_delta_gamma_insensitive_to_mode_sum_truncation(monkeypatch):
    from fockprobe import amplitudes
    from fockprobe.kernels import mode_sum_offres

    setup = optical()
    prep = prepare_field(setup, 2, 5)

    def capped(max_mode):
        with monkeypatch.context() as patch:
            patch.setattr(amplitudes, "MAX_MODE", max_mode)
            return mode_sum_offres(setup, prep), delta_gamma(setup, 5, 3)

    # both caps lie beyond the B the tail bound needs: the same sum
    (sum_a, rep_a), dg_loose = capped(2000)
    (sum_b, rep_b), dg_tight = capped(20_000)
    assert (sum_a, rep_a) == (sum_b, rep_b) and rep_a.converged
    assert dg_loose == dg_tight
    # an explicit mode set leaves out the tail beyond mode 2000: the
    # common-arm sum moves by that tail, the phase difference far less (it
    # cancels at linear order)
    kept = range(1, 2001)
    truncated, _ = mode_sum_offres(setup, prep, modes=kept)
    dg_kept = delta_gamma(setup, 5, 3, modes=kept)
    sum_shift = abs(truncated - sum_b) / abs(sum_b)
    dg_shift = abs(dg_kept - dg_tight) / abs(dg_tight)
    assert sum_shift > 1e-5
    assert dg_shift < 1e-3 * sum_shift
    assert dg_shift < 1e-6


@settings(deadline=None, max_examples=60)
@given(
    length=st.floats(5e-7, 2e-6),
    speed=st.floats(500.0, 3000.0),
    ratio=st.floats(1e-5, 1e-4),
    alpha=st.sampled_from([2, 4]),
    photons=st.integers(0, 100),
)
def test_gamma_is_unit_invariant(length, speed, ratio, alpha, photons):
    # the same physics in SI and rescaled to natural units (L = c = 1): with
    # the mode sums summed to infinity neither side carries a truncation bias
    si = build_setup(length, speed, resonant_with_mode=alpha, coupling_ratio=ratio)
    scaled = build_setup(1.0, speed / si.light_speed, light_speed=1.0,
                         resonant_with_mode=alpha, coupling_ratio=ratio,
                         unit_mode="natural")
    gammas = [eta_rows(survival_amplitude(phase_components(s, alpha), s, photons))[0].real
              for s in (si, scaled)]
    assert gammas[0] == pytest.approx(gammas[1], rel=1e-12)


def test_phase_curve_shape_and_visibility():
    setup = optical()
    comps = phase_components(setup, 2)
    ns = np.arange(0, 1001, 10)
    eta, visses, _ = eta_rows(survival_amplitude(comps, setup, ns.astype(float)))
    gammas = eta.real
    assert np.all(np.diff(gammas) > 0)          # monotone increasing
    assert np.all(np.diff(gammas, 2) < 1e-15)   # concave
    assert np.all(visses <= 1.0)
    assert np.all(np.diff(visses) < 1e-15)      # visibility decays with n
    assert visses[0] == pytest.approx(1.0, abs=1e-4)


def test_resolution_rows_and_threshold():
    setup = optical()
    resolved = resolve_mapping({
        "cavity.length": 1e-6, "atom.speed": 1000.0, "atom.coupling_ratio": 1e-4,
        "field.mode": 2, "field.photons": 0, "sweep.variable": "n",
        "sweep.values": "0, 10, 20", "sweep.observable": "resolution",
        "sweep.m_values": "1, 2, 4",
    })
    assert resolved.setup == setup
    _, rows, _ = compute_rows(resolved)
    by_key = {(n, m): dg for n, m, dg, _ in rows}
    assert by_key[(0, 2)] == pytest.approx(2 * by_key[(0, 1)], rel=1e-2)
    assert by_key[(0, 4)] == pytest.approx(4 * by_key[(0, 1)], rel=1e-2)
    # single-photon resolvability threshold against a direct scan
    threshold = resolution_threshold(phase_components(setup, 2), setup, 1e-4)
    assert threshold is not None
    assert delta_gamma(setup, threshold, 1) >= 1e-4
    assert delta_gamma(setup, threshold + 1, 1) < 1e-4


def test_resolution_threshold_at_nine_million():
    # the floor at n = 9e6 puts the threshold in the millions
    setup = optical()
    floor = delta_gamma(setup, 9_000_000, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ProbeWarning)
        threshold = resolution_threshold(phase_components(setup, 2), setup, floor)
    assert 2**23 < threshold < 10**7
    assert delta_gamma(setup, threshold, 1) >= floor
    assert delta_gamma(setup, threshold + 1, 1) < floor


SCAN_ROWS = 4000


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([2, 4]),
       k=st.integers(1, SCAN_ROWS // 4), t=st.floats(0.0, 1.0))
def test_resolution_threshold_matches_a_brute_force_scan(seed, alpha, k, t):
    # floors between |delta_1 gamma(0)| and |delta_1 gamma(k)|; a negative
    # step never resolves, whatever n
    setup = random_setup(np.random.default_rng(seed))
    comps = phase_components(setup, alpha)
    delta_gamma, _ = delta_gamma_rows(comps, setup, np.arange(SCAN_ROWS + 1.0), 1)
    floor = abs(delta_gamma[0] + t * (delta_gamma[k] - delta_gamma[0]))
    assume(floor > 0.0)
    passing = np.flatnonzero(delta_gamma >= floor)
    threshold = resolution_threshold(comps, setup, floor)
    if passing.size == 0:
        assert threshold is None
    elif passing[-1] < SCAN_ROWS:
        assert threshold == passing[-1]
    else:
        # the step peaks beyond k, so the resolving n run past the scan
        assert threshold >= SCAN_ROWS
        edge, _ = delta_gamma_rows(comps, setup, [threshold, threshold + 1], 1)
        assert edge[0] >= floor and not edge[1] >= floor  # NaN: past the branch guard


def test_resolution_threshold_past_a_hump():
    # delta_1 gamma(0) = 1.12e-8 is below the floor, but the line A(n) passes
    # closest to the origin near n = 4.6e6, where one step turns the phase by
    # 4.19e-6.  A vector scan of delta_gamma_rows over 0..5e6 finds 438,474
    # resolving n; the largest, 4,609,800, is the last before Re A(n + 1) <= 0
    setup = build_setup(1.66488, 0.0527073, light_speed=1.0, atom_gap=7.17708,
                        coupling_ratio=2.05162e-5, unit_mode="natural")
    comps = phase_components(setup, 4)
    threshold = resolution_threshold(comps, setup, 1e-6)
    assert threshold == 4_609_800
    edge, _ = delta_gamma_rows(comps, setup, [0, threshold, threshold + 1], 1)
    assert edge[0] < 1e-6 <= edge[1]
    assert math.isnan(edge[2])  # past the branch guard


@pytest.mark.parametrize("floor, expected", [
    (1e-12, 36_527_467), (1e-14, 365_274_736), (1e-16, 3_652_747_426),
])
def test_resolution_threshold_is_the_last_passing_row_near_rounding(floor, expected):
    # one photon turns the phase by 1e-16 rad there, a few eps of it rounding;
    # the rows within 2000 of the threshold pass up to it and none above
    comps, setup = optical_line()
    threshold = resolution_threshold(comps, setup, floor)
    assert threshold == expected
    ns = np.arange(threshold - 2000, threshold + 2001)
    delta_gamma, failed = delta_gamma_rows(comps, setup, ns, 1)
    assert failed == {}
    np.testing.assert_array_equal(delta_gamma >= floor, ns <= threshold)


def test_resolution_threshold_without_coupling_is_none():
    setup = natural(ratio=0.0)
    assert resolution_threshold(phase_components(setup, 2), setup, 1e-300) is None


def test_resolution_threshold_beyond_2_pow_53_is_refused():
    # n and n + 1 round to the same double there, so no row confirms a root
    with pytest.raises(ParameterError, match=r"beyond 2\*\*53"):
        resolution_threshold(*optical_line(), 1e-300)


@pytest.mark.parametrize("floor", [math.nan, -1.0, 0.0, math.inf])
def test_resolution_threshold_rejects_unusable_floor(floor):
    # nan returned 0, -1 and 0 the scan cap, inf None, all without a word
    with pytest.raises(ParameterError, match="resolution_floor"):
        resolution_threshold(*optical_line(), floor)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
def test_fringe_rejects_non_finite_reference_phase(phi):
    setup = natural()
    with pytest.raises(ParameterError, match="reference_phase"):
        fringe(phase_components(setup, 2), setup, 1, 9, phi)


def test_branch_guard_raises_and_warns():
    # detuned microcavity whose A(2000) has real part -0.29
    detuned = build_setup(1e-6, 1000.0, resonant_with_mode=2, detuning=3e6,
                          coupling_ratio=1e-4)
    amplitude = survival_amplitude(phase_components(detuned, 2), detuned, 2000)
    eta, visibility, failed = eta_rows(amplitude)
    assert list(failed) == [0] and math.isnan(eta[0].real) and math.isnan(visibility[0])
    with pytest.raises(BranchError, match="non-positive real part"):
        _eta_row(detuned, prepare_field(detuned, 2, 2000))
    with pytest.warns(ProbeWarning):
        # arg 1.2 with log-modulus 1.2: |eta| = 1.7 > pi/2 but Re > 0
        eta_rows([cmath.rect(math.exp(1.2), 1.2)])


@pytest.mark.filterwarnings("ignore:validity estimator:fockprobe.ProbeWarning")
def test_fringe_identities():
    setup = natural()
    comps = phase_components(setup, 2)
    zero_coupling = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                                coupling_ratio=0.0, unit_mode="natural")
    inert = phase_components(zero_coupling, 2)
    # with no coupling both arms are inert: perfect contrast, zero phase
    assert fringe(inert, zero_coupling, 1, 4, 0.0) == (1.0, 0.0)
    p_plus, p_minus = fringe(inert, zero_coupling, 1, 4, math.pi / 2)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert p_minus == pytest.approx(0.5, abs=1e-12)
    # equal preparations: no phase difference regardless of n
    p_plus, p_minus = fringe(comps, setup, 3, 3, 0.0)
    assert p_plus + p_minus == pytest.approx(1.0, rel=1e-15)
    assert p_plus > 0.99
    # generic pair still sums to one
    for phi in (0.0, 0.3, 2.0, -1.2):
        p_plus, p_minus = fringe(comps, setup, 1, 9, phi)
        assert p_plus + p_minus == pytest.approx(1.0, rel=1e-15)
        assert 0.0 <= p_plus <= 1.0


def test_fringe_with_the_smaller_unknown_arm_negates_the_phase_difference():
    setup = natural()
    comps = phase_components(setup, 2)
    # cos(-dgamma + phi) = cos(dgamma - phi): the reversed pair at -phi, which
    # at phi != 0 tells -dgamma from dgamma
    for phi in (0.0, 0.3, 2.0, -1.2):
        p_plus, p_minus = fringe(comps, setup, 9, 1, phi)
        assert (p_plus, p_minus) == fringe(comps, setup, 1, 9, -phi)
        assert p_plus + p_minus == pytest.approx(1.0, rel=1e-15)


def test_fringe_refuses_a_negative_arm_and_a_branch_crossing():
    setup = natural()
    comps = phase_components(setup, 2)
    with pytest.raises(ParameterError, match="photon numbers must be non-negative"):
        fringe(comps, setup, 1, -1)
    # detuned microcavity whose A(2000) has real part -0.29
    detuned = build_setup(1e-6, 1000.0, resonant_with_mode=2, detuning=3e6,
                          coupling_ratio=1e-4)
    with pytest.raises(BranchError, match="principal-branch phase extraction is ambiguous"):
        fringe(phase_components(detuned, 2), detuned, 0, 2000)


def test_validity_estimator():
    setup = natural()
    assert validity(setup, 0) == 0.0
    # microwave-scale numbers: 1 cm cavity, 1000 m/s: 1e-9 per photon
    microwave = build_setup(1e-2, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)
    per_photon = validity(microwave, 1)
    assert per_photon == pytest.approx(1e-9, rel=1e-12)
    assert validity(microwave, 7) == pytest.approx(7 * per_photon, rel=1e-12)
    # an array of photon numbers gives the same numbers, element by element
    photons = np.array([0.0, 1.0, 7.0])
    assert validity(microwave, photons).tolist() == [0.0, per_photon, validity(microwave, 7)]
    assert classify_validity(1e-3) == "ok"
    assert classify_validity(0.5) == "marginal"
    assert classify_validity(2.0) == "invalid"

