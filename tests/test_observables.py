import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockprobe import (
    BranchError,
    ParameterError,
    ProbeWarning,
    build_setup,
    classify_validity,
    delta_gamma_exact,
    delta_gamma_linear,
    eta_phase,
    fringe,
    phase_components,
    prepare_field,
    probe_outcome,
    resolution_threshold,
    resolve_mapping,
    survival_amplitude,
    transition_probability,
    validity,
)
from fockprobe.observables import RESOLUTION_N_CAP, delta_gamma_rows, eta_rows
from fockprobe.sweeps import compute_rows


def natural(alpha=2, ratio=1e-4, speed=1e-3):
    return build_setup(1.0, speed, light_speed=1.0, resonant_with_mode=alpha,
                       coupling_ratio=ratio, unit_mode="natural")


def optical(ratio=1e-4):
    return build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=ratio)


def test_zero_coupling_is_inert():
    setup = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                        coupling_ratio=0.0, unit_mode="natural")
    prep = prepare_field(setup, 2, 5)
    assert transition_probability(setup, prep).total == 0.0
    phase = eta_phase(setup, prep)
    assert phase.eta == 0j
    assert phase.gamma == 0.0
    assert phase.visibility == 1.0
    assert validity(setup, prep) == 0.0


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


def test_delta_gamma_exact_identities():
    setup = optical()
    assert delta_gamma_exact(setup, 2, 17, 0) == 0.0
    d12 = delta_gamma_exact(setup, 2, 3, 12)
    split = delta_gamma_exact(setup, 2, 3, 5) + delta_gamma_exact(setup, 2, 8, 7)
    assert abs(d12 - split) < 1e-12
    with pytest.raises(ParameterError):
        delta_gamma_exact(setup, 2, -1, 1)


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


def test_delta_gamma_matches_linear_estimate():
    setup = optical()
    for n in range(0, 11):
        for m in range(1, 6):
            exact = delta_gamma_exact(setup, 2, n, m)
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
            return mode_sum_offres(setup, prep), delta_gamma_exact(setup, 2, 5, 3)

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
    dg_kept = delta_gamma_exact(setup, 2, 5, 3, modes=kept)
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
    gammas = [eta_phase(s, prepare_field(s, alpha, photons)).gamma for s in (si, scaled)]
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
    threshold = resolution_threshold(setup, 2, resolution_floor=1e-4)
    assert threshold is not None
    assert delta_gamma_exact(setup, 2, threshold, 1) >= 1e-4
    assert delta_gamma_exact(setup, 2, threshold + 1, 1) < 1e-4


def test_resolution_threshold_between_the_last_doubling_and_the_cap():
    # the doubling passes 2**23 and stops at the cap; a threshold between
    # the two used to be reported as the cap
    setup = optical()
    floor = delta_gamma_exact(setup, 2, 9_000_000, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ProbeWarning)
        threshold = resolution_threshold(setup, 2, resolution_floor=floor)
    assert 2**23 < threshold < RESOLUTION_N_CAP
    assert delta_gamma_exact(setup, 2, threshold, 1) >= floor
    assert delta_gamma_exact(setup, 2, threshold + 1, 1) < floor


@pytest.mark.parametrize("floor", [math.nan, -1.0, 0.0, math.inf])
def test_resolution_threshold_rejects_unusable_floor(floor):
    # nan returned 0, -1 and 0 the scan cap, inf None, all without a word
    with pytest.raises(ParameterError, match="resolution_floor"):
        resolution_threshold(optical(), 2, resolution_floor=floor)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, [0.0, math.nan]])
def test_fringe_rejects_non_finite_reference_phase(phi):
    setup = natural()
    known, unknown = prepare_field(setup, 2, 1), prepare_field(setup, 2, 9)
    with pytest.raises(ParameterError, match="reference_phase"):
        fringe(setup, known, unknown, phi)


def test_branch_guard_raises_and_warns():
    # detuned microcavity whose A(2000) has real part -0.29
    detuned = build_setup(1e-6, 1000.0, resonant_with_mode=2, detuning=3e6,
                          coupling_ratio=1e-4)
    with pytest.raises(BranchError):
        eta_phase(detuned, prepare_field(detuned, 2, 2000))
    with pytest.warns(ProbeWarning):
        # arg 1.2 with log-modulus 1.2: |eta| = 1.7 > pi/2 but Re > 0
        eta_rows([cmath.rect(math.exp(1.2), 1.2)])


@pytest.mark.filterwarnings("ignore:validity estimator:fockprobe.ProbeWarning")
def test_fringe_identities():
    setup = natural()
    zero_coupling = build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=2,
                                coupling_ratio=0.0, unit_mode="natural")
    known = prepare_field(zero_coupling, 2, 1)
    unknown = prepare_field(zero_coupling, 2, 4)
    # with no coupling both arms are inert: perfect contrast, zero phase
    assert fringe(zero_coupling, known, unknown, 0.0) == (1.0, 0.0)
    p_plus, p_minus = fringe(zero_coupling, known, unknown, math.pi / 2)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert p_minus == pytest.approx(0.5, abs=1e-12)
    # equal preparations: no phase difference regardless of n
    same = prepare_field(setup, 2, 3)
    p_plus, p_minus = fringe(setup, same, same, 0.0)
    assert p_plus + p_minus == pytest.approx(1.0, rel=1e-15)
    assert p_plus > 0.99
    # generic pair still sums to one
    a = prepare_field(setup, 2, 1)
    b = prepare_field(setup, 2, 9)
    for phi in (0.0, 0.3, 2.0, -1.2):
        p_plus, p_minus = fringe(setup, a, b, phi)
        assert p_plus + p_minus == pytest.approx(1.0, rel=1e-15)
        assert 0.0 <= p_plus <= 1.0


def test_validity_estimator():
    setup = natural()
    assert validity(setup, prepare_field(setup, 2, 0)) == 0.0
    # microwave-scale numbers: 1 cm cavity, 1000 m/s: 1e-9 per photon
    microwave = build_setup(1e-2, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)
    per_photon = validity(microwave, prepare_field(microwave, 2, 1))
    assert per_photon == pytest.approx(1e-9, rel=1e-12)
    assert validity(microwave, prepare_field(microwave, 2, 7)) == pytest.approx(
        7 * per_photon, rel=1e-12
    )
    assert classify_validity(1e-3) == "ok"
    assert classify_validity(0.5) == "marginal"
    assert classify_validity(2.0) == "invalid"


def test_probe_outcome_bundle_and_validity_warning():
    import warnings

    setup = natural()
    prep = prepare_field(setup, 2, 5)  # estimator 0.5: marginal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = probe_outcome(setup, prep)
    assert any("marginal" in str(w.message) for w in caught)
    assert outcome.gamma == outcome.phase.gamma
    assert outcome.p_excite == outcome.transition.total
    assert outcome.validity == pytest.approx(0.5, rel=1e-12)
    assert 0.0 < outcome.visibility <= 1.0
