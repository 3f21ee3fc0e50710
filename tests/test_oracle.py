import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fockprobe import (
    ParameterError,
    build_hamiltonian,
    build_setup,
    convergence_scan,
    default_truncation,
    evolve,
    phase_components,
    prepare_field,
    survival_amplitude,
    transition_probability,
)
from fockprobe import oracle
from fockprobe.amplitudes import ConvergenceError
from fockprobe.oracle import INTEG_TOL_FLOOR, DimensionCapError, HilbertTruncation


def fast(ratio=1e-6):
    # T = 100: an order of magnitude quicker than the acceptance-scale runs
    return build_setup(1.0, 1e-2, light_speed=1.0, resonant_with_mode=2,
                       coupling_ratio=ratio, unit_mode="natural")


@pytest.fixture(scope="module")
def fast_run():
    setup = fast()
    prep = prepare_field(setup, 2, 2)
    trunc = default_truncation(prep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = evolve(setup, prep, trunc, integ_tol=1e-11)
    return setup, prep, trunc, result


def test_hamiltonian_hermitian_and_linear_in_coupling():
    setup = fast(ratio=1e-4)
    prep = prepare_field(setup, 2, 1)
    trunc = default_truncation(prep)
    for t in (0.3, 17.0, 99.0):
        H = build_hamiltonian(setup, trunc, t).toarray()
        assert np.max(np.abs(H - H.conj().T)) < 1e-14 * max(np.max(np.abs(H)), 1e-300)
    free = build_setup(1.0, 1e-2, light_speed=1.0, resonant_with_mode=2,
                       coupling_ratio=0.0, unit_mode="natural")
    H0 = build_hamiltonian(free, trunc, 5.0)
    assert H0.nnz == 0 or np.max(np.abs(H0.toarray())) == 0.0


def test_hamiltonian_single_mode_ladder_entries():
    setup = fast(ratio=1e-4)
    trunc = HilbertTruncation(modes=((2, 1),))
    t = 7.3
    H = build_hamiltonian(setup, trunc, t).toarray()
    assert H.shape == (4, 4)
    lam = setup.coupling
    omega = setup.mode_frequency(2)
    gap = setup.atom_gap
    s = math.sin(setup.wavenumber(2) * setup.atom_speed * t) / math.sqrt(2 * math.pi)
    # basis: |g,0>, |g,1>, |e,0>, |e,1>
    assert H[3, 0] == pytest.approx(lam * s * cmath.exp(1j * (gap + omega) * t), rel=1e-12)
    assert H[2, 1] == pytest.approx(lam * s * cmath.exp(1j * (gap - omega) * t), rel=1e-12)
    assert H[0, 3] == pytest.approx(np.conj(H[3, 0]), rel=1e-12)
    assert H[1, 2] == pytest.approx(np.conj(H[2, 1]), rel=1e-12)
    assert H[0, 1] == H[2, 3] == H[0, 2] == H[1, 3] == 0.0


# unequal mode caps; with odd level counts only, the two parity sectors differ in size
SECTOR_TRUNCATIONS = (((3, 2), (1, 1), (2, 4), (5, 1)), ((1, 2), (2, 4), (3, 2)))


def test_evolved_rhs_is_minus_i_hamiltonian():
    # the batched sector products the propagator sweeps give -i H(t) psi with
    # the same H(t) that build_hamiltonian returns, from |g, n> of either parity
    setup = fast(ratio=1e-4)
    times = np.array([0.0, 0.3, 17.0, 61.7, 99.0])
    rng = np.random.default_rng(5)
    sizes = []
    for modes in SECTOR_TRUNCATIONS:
        trunc = HilbertTruncation(modes=modes)
        space = oracle._OracleSpace(trunc)
        fd = space.field_dim
        sizes.append(tuple(map(len, space.sectors)))
        weights = space.hop_weights(
            np.ascontiguousarray(oracle._coefficients(setup, space.betas, times).T))
        work = np.empty(len(times) * max(stack.shape[1] for stack in space.hops), dtype=complex)
        for photons in (2, 3):
            parity = space.parity[space.initial_index(prepare_field(setup, 2, photons))]
            assert parity == photons % 2
            ground, excited = space.sectors[parity], fd + space.sectors[1 - parity]
            shape = (len(times), space.dim)
            psi = np.zeros(shape, dtype=complex)
            reached = np.concatenate((ground, excited))
            psi[:, reached] = (rng.normal(size=shape) + 1j * rng.normal(size=shape))[:, reached]
            got = np.zeros_like(psi)
            # F psi_g fills the excited half, F^dag psi_e the ground half
            for stack, w, source, target in ((space.hops[parity], weights[0], ground, excited),
                                             (space.hops[1 - parity], weights[1], excited, ground)):
                out = np.empty((len(times), len(target)), dtype=complex)
                oracle._hop(stack, w, psi[:, source], out, work)
                got[:, target] = out
            for row, t in enumerate(times):
                expected = -1j * (build_hamiltonian(setup, trunc, t) @ psi[row])
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(got[row] - expected)) <= 1e-14 * scale + 1e-300
    assert sizes == [(30, 30), (23, 22)]


@pytest.mark.parametrize("modes", SECTOR_TRUNCATIONS)
def test_hamiltonian_maps_each_parity_sector_to_the_other(modes):
    # every term of H(t) flips the atom and moves one photon: H psi for psi
    # inside one sector is exactly zero outside the opposite sector
    setup = fast(ratio=1e-4)
    trunc = HilbertTruncation(modes=modes)
    space = oracle._OracleSpace(trunc)
    fd = space.field_dim
    digits = np.unravel_index(np.arange(fd), space.dims)
    assert np.array_equal(space.parity, np.sum(digits, axis=0) % 2)
    rng = np.random.default_rng(11)
    for t in (0.3, 61.7):
        H = build_hamiltonian(setup, trunc, t)
        for atom in (0, 1):
            for parity in (0, 1):
                sector = atom * fd + space.sectors[parity]
                psi = np.zeros(space.dim, dtype=complex)
                psi[sector] = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
                outside = np.ones(space.dim, dtype=bool)
                outside[(1 - atom) * fd + space.sectors[1 - parity]] = False
                result = H @ psi
                assert np.all(result[outside] == 0.0)
                assert np.count_nonzero(result) > 0


def test_zero_coupling_evolution_is_identity():
    setup = build_setup(1.0, 1e-2, light_speed=1.0, resonant_with_mode=2,
                        coupling_ratio=0.0, unit_mode="natural")
    prep = prepare_field(setup, 2, 1)
    result = evolve(setup, prep, integ_tol=1e-10)
    assert result.overlap == pytest.approx(1.0 + 0j, abs=1e-12)
    assert result.eta_numeric == pytest.approx(0j, abs=1e-12)
    assert result.p_excite_numeric < 1e-24
    assert result.norm_drift < 1e-12


def test_truncation_validation():
    setup = fast()
    prep = prepare_field(setup, 2, 3)
    missing = HilbertTruncation(modes=((1, 2), (3, 2)))
    with pytest.raises(ParameterError):
        missing.check(prep)
    shallow = HilbertTruncation(modes=((2, 4),))
    with pytest.raises(ParameterError):
        shallow.check(prep)
    with pytest.raises(DimensionCapError):
        HilbertTruncation(modes=((1, 99), (2, 99), (3, 99))).check(prepare_field(setup, 2, 1))
    with pytest.raises(ParameterError):
        HilbertTruncation(modes=((1, 2), (1, 3)))


def test_unitarity_and_survival_hypothesis(fast_run):
    _, _, _, result = fast_run
    assert result.norm_drift <= 10.0 * 1e-11
    assert abs(result.overlap) ** 2 >= 1.0 - 2.0 * result.p_excite_numeric - 1e-8


def test_mode_invisibility_survives_nonperturbatively(fast_run):
    # even probed harmonic on resonance: the exact excitation probability is
    # the lambda^2 prediction of the surviving (counter-rotating + vacuum) terms
    setup, prep, trunc, result = fast_run
    kept = [b for b, _ in trunc.modes]
    pert = transition_probability(setup, prep, modes=kept).total
    assert result.p_excite_numeric == pytest.approx(pert, rel=0.05)


def test_phase_matches_second_order_prediction(fast_run):
    setup, prep, trunc, result = fast_run
    kept = [b for b, _ in trunc.modes]
    comps = phase_components(setup, prep.mode, modes=kept)
    amplitude = survival_amplitude(comps, setup, prep.photons)
    gamma = cmath.phase(amplitude)
    assert result.eta_numeric.real == pytest.approx(gamma, rel=1e-4)


def test_norm_drift_bound_enforced():
    from fockprobe.amplitudes import ConvergenceError

    setup = fast(ratio=1e-4)
    prep = prepare_field(setup, 2, 1)
    with pytest.raises(ConvergenceError):
        # demands drift <= 10^-15 at rtol 1e-16, below the 100 * eps floor
        # the integrator honours: rejected before integrating
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(setup, prep, integ_tol=1e-16)


def _forbid(monkeypatch, name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} ran for an unusable tolerance")
    monkeypatch.setattr(oracle, name, called)


# below the floor, or at and above the ceiling of 0.1, where the unitarity
# bound lets the norm be off by 100% (1e300 used to stop every block after
# one sweep and pass)
UNUSABLE_TOLERANCES = [float("nan"), float("inf"), 0.0, -1.0, INTEG_TOL_FLOOR / 2,
                       0.1, 1.0, 1e300]


@pytest.mark.parametrize("tol", UNUSABLE_TOLERANCES)
def test_unusable_tolerance_rejected_before_integration(tol, monkeypatch):
    _forbid(monkeypatch, "_PicardPropagator")
    setup = fast(ratio=1e-4)
    prep = prepare_field(setup, 2, 1)
    with pytest.raises(ConvergenceError, match="tightest rtol"):
        evolve(setup, prep, integ_tol=tol)


@pytest.mark.parametrize("tol", [INTEG_TOL_FLOOR, 1e-10])
def test_step_report_records_tolerances_actually_used(tol):
    setup = build_setup(1.0, 1e-2, light_speed=1.0, resonant_with_mode=2,
                        coupling_ratio=0.0, unit_mode="natural")
    prep = prepare_field(setup, 2, 1)
    with warnings.catch_warnings():
        # the floor itself runs without any warning
        warnings.simplefilter("error", UserWarning)
        report = evolve(setup, prep, integ_tol=tol).step_report
    assert set(report) == {"steps", "rhs_evaluations", "integ_tol", "rtol", "atol",
                           "dimension"}
    assert report["integ_tol"] == tol
    assert report["rtol"] == tol
    assert report["atol"] == tol * 1e-2
    assert min(report["steps"], report["rhs_evaluations"], report["dimension"]) > 0


# The benchmark's oracle point: v = 0.1, T = 10, transit phase delta T = pi/2.
def _evolve_at_bench_point(photons):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lambda / Omega above the typical range
        setup = build_setup(1.0, 0.1, light_speed=1.0, resonant_with_mode=2,
                            detuning=math.pi / 20.0, coupling_ratio=3e-4,
                            unit_mode="natural")
        prep = prepare_field(setup, 2, photons)
        result = evolve(setup, prep, integ_tol=1e-11)
    return setup, prep, result


@pytest.fixture(scope="module")
def bench_point():
    return _evolve_at_bench_point(2)


def _dop853_reference(setup, prep, integ_tol):
    # the same weights and stacked ladders, integrated by scipy's DOP853 one
    # time at a time: the cross-check for the block Chebyshev-Picard propagator
    space = oracle._OracleSpace(default_truncation(prep))
    betas, ladders, fd = space.betas, space.ladders, space.field_dim
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.initial_index(prep)] = 1.0

    def rhs(t, psi):
        w = oracle._coefficients(setup, betas, t)
        w_dagger = np.conj(w.reshape(2, -1)[::-1]).ravel()  # of a^dag, a in F^dag
        excited = w @ (ladders @ psi[:fd]).reshape(-1, fd)          # F psi_g
        ground = w_dagger @ (ladders @ psi[fd:]).reshape(-1, fd)    # F^dag psi_e
        return -1j * np.concatenate((ground, excited))

    sol = solve_ivp(rhs, (0.0, setup.crossing_time), psi0, method="DOP853",
                    rtol=integ_tol, atol=integ_tol * 1e-2)
    assert sol.success
    psi_T = sol.y[:, -1]
    return complex(np.vdot(psi0, psi_T)), float(np.sum(np.abs(psi_T[fd:]) ** 2))


@pytest.mark.parametrize("photons", [2, 3])
def test_propagator_matches_dop853_at_benchmark_point(photons):
    # the full-space reference checks the parity restriction for either parity
    setup, prep, result = _evolve_at_bench_point(photons)
    overlap, p_excite = _dop853_reference(setup, prep, 1e-11)
    assert abs(result.overlap - overlap) <= 1e-13
    assert result.p_excite_numeric == pytest.approx(p_excite, rel=1e-12, abs=0.0)
    assert result.norm_drift <= 10.0 * 1e-11


def test_block_seams_do_not_move_the_overlap(bench_point, monkeypatch):
    setup, prep, result = bench_point
    monkeypatch.setattr(oracle, "BLOCK_BYTES", 1)  # one panel per block
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seamed = evolve(setup, prep, integ_tol=1e-11)
    assert seamed.step_report["steps"] == result.step_report["steps"]
    assert abs(seamed.overlap - result.overlap) <= 1e-14


def test_panel_halving_recovers_long_panels(bench_point, monkeypatch):
    # panels twice as long as the carriers allow fail the Chebyshev tail test
    # and are redone halved; with no halving allowed the block is refused
    setup, prep, result = bench_point
    monkeypatch.setattr(oracle, "PANEL_PHASE", 2.0 * oracle.PANEL_PHASE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        halved = evolve(setup, prep, integ_tol=1e-11)
        assert abs(halved.overlap - result.overlap) <= 1e-14
        monkeypatch.setattr(oracle, "HALVING_CAP", 0)
        with pytest.raises(ConvergenceError, match="Chebyshev tail"):
            evolve(setup, prep, integ_tol=1e-11)


def test_picard_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(oracle, "SWEEP_CAP", 1)
    setup = fast(ratio=1e-4)
    prep = prepare_field(setup, 2, 1)
    with pytest.raises(ConvergenceError, match="Picard sweeps"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(setup, prep, integ_tol=1e-10)


def test_convergence_scan_rejects_unusable_level_before_evolving(monkeypatch):
    _forbid(monkeypatch, "evolve")
    setup = fast()
    prep = prepare_field(setup, 2, 1)
    # levels 1e-12, 1e-13 are reachable; the third, 1e-14, is not
    with pytest.raises(ConvergenceError, match="tightest rtol"):
        convergence_scan(setup, prep, "integ_tol", levels=3, integ_tol=1e-12)
    # on the integ_tol axis the first level is the loosest
    for axis in ("integ_tol", "headroom"):
        for tol in UNUSABLE_TOLERANCES:
            with pytest.raises(ConvergenceError, match="tightest rtol"):
                convergence_scan(setup, prep, axis, levels=3, integ_tol=tol)


def test_convergence_scan_headroom_axis_converges():
    setup = fast()
    prep = prepare_field(setup, 2, 1)
    # tolerance tight enough that integrator noise on p_excite (~1e-20) stays
    # far below the 1e-3 convergence threshold
    rows, converged = convergence_scan(setup, prep, "headroom", levels=2,
                                       integ_tol=1e-11)
    assert converged
    assert [row["value"] for row in rows] == [4, 6]


def test_convergence_scan_modes_axis_flags_nonconvergence():
    # at low photon number each added vacuum mode still shifts gamma by a few
    # percent; the scan must say so rather than accept silently
    setup = fast()
    prep = prepare_field(setup, 2, 2)
    with pytest.warns(Warning):
        rows, converged = convergence_scan(setup, prep, "modes", levels=2,
                                           integ_tol=1e-9)
    assert not converged
    assert len(rows) == 2


def test_convergence_scan_rejects_unknown_axis():
    setup = fast()
    prep = prepare_field(setup, 2, 1)
    with pytest.raises(ParameterError):
        convergence_scan(setup, prep, "teleportation")
