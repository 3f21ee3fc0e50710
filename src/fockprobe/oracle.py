"""Nonperturbative ground truth: exact evolution in a truncated Fock space.

Integrates i dpsi/dt = H(t) psi for the joint atom-field state with the full
interaction-picture coupling

    H(t) = lambda (sigma+ e^{i Omega t} + sigma- e^{-i Omega t})
           * Sum_beta (a_beta^dag e^{i omega_beta t} + a_beta e^{-i omega_beta t})
           * sin(k_beta v t) / sqrt(k_beta L),

no rotating-wave or single-mode approximation, over the transit [0, T].  On
the basis (ground, excited) x field it is the block matrix

    H(t) = [[0, F(t)^dag], [F(t), 0]],
    F(t) = Sum_beta (w+_beta(t) a_beta^dag + w-_beta(t) a_beta),
    w+/-_beta(t) = lambda sin(k_beta v t) / sqrt(beta pi) e^{i (Omega +/- omega_beta) t},

where F(t) raises the atom.  The weights come from one function and the
field ladders from one stacked operator, shared by :func:`build_hamiltonian`
and the right-hand side that :func:`evolve` integrates.

The overlap with the initial state yields a numerically exact eta to compare
with the second-order closed forms; the mismatch must shrink like lambda^4.

Run this at scaled parameters (c = 1, L = 1, moderate gap): the phase physics
is invariant under rescaling the cavity at fixed lambda/Omega and v, while SI
optical frequencies would demand ~1e6 oscillations per transit for no gain.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .amplitudes import ConvergenceError
from .model import (
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    ProbeWarning,
)
from .observables import _warn_validity, validity

DIMENSION_CAP = 200_000

# Tightest rtol solve_ivp honours: it raises any smaller rtol to this value
# with only a UserWarning, so a tighter integ_tol cannot be met.
INTEG_TOL_FLOOR = 100.0 * np.finfo(float).eps


class DimensionCapError(ParameterError):
    """Requested truncated space exceeds the amplitude budget."""


@dataclass(frozen=True)
class HilbertTruncation:
    """Per-mode photon caps defining the truncated joint space.

    ``modes`` is a tuple of (mode index, max photons).  The probed mode needs
    max photons >= n + 2: two-quanta shifts of the probed mode are populated
    already at second order.
    """

    modes: tuple

    def __post_init__(self):
        betas = [b for b, _ in self.modes]
        if len(betas) != len(set(betas)):
            raise ParameterError("duplicate mode indices in truncation")
        if any(b < 1 or nm < 1 for b, nm in self.modes):
            raise ParameterError("mode indices and photon caps must be positive")

    @property
    def dimension(self) -> int:
        d = 2
        for _, nmax in self.modes:
            d *= nmax + 1
        return d

    def check(self, prep: FieldPreparation, cap: int = DIMENSION_CAP) -> None:
        caps = dict(self.modes)
        if prep.mode not in caps:
            raise ParameterError(f"probed mode {prep.mode} missing from truncation")
        if caps[prep.mode] < prep.photons + 2:
            raise ParameterError(
                f"probed-mode cap {caps[prep.mode]} must be at least n + 2 = "
                f"{prep.photons + 2}"
            )
        if self.dimension > cap:
            raise DimensionCapError(
                f"truncated dimension {self.dimension} exceeds cap {cap}"
            )


def default_truncation(
    prep: FieldPreparation,
    max_mode: int | None = None,
    headroom: int = 4,
    others_max: int = 2,
) -> HilbertTruncation:
    """Modes 1..alpha+1 with n + headroom photons on the probed mode, others_max elsewhere."""
    top = max_mode if max_mode is not None else prep.mode + 1
    if top < prep.mode:
        raise ParameterError("truncation must include the probed mode")
    modes = tuple(
        (beta, prep.photons + headroom if beta == prep.mode else others_max)
        for beta in range(1, top + 1)
    )
    return HilbertTruncation(modes=modes)


class _OracleSpace:
    """Basis layout and stacked field ladders for one truncation.

    Basis index = atom * field_dim + field index, atom 0 ground and 1
    excited; the field index encodes the occupation digits of the modes in
    listed order, last mode fastest.  ``ladders`` is the real
    (2K field_dim, field_dim) stack of a_1^dag..a_K^dag, a_1..a_K on the field
    space, each a kron of identities with one single-mode ladder.
    """

    def __init__(self, truncation: HilbertTruncation):
        modes = sorted(truncation.modes)
        self.betas = np.array([b for b, _ in modes])
        self.dims = [nmax + 1 for _, nmax in modes]
        self.field_dim = int(np.prod(self.dims))
        self.dim = 2 * self.field_dim
        raising = [
            sparse.kron(
                sparse.kron(sparse.identity(int(np.prod(self.dims[:i]))),
                            sparse.diags(np.sqrt(np.arange(1.0, d)), -1)),
                sparse.identity(int(np.prod(self.dims[i + 1:]))),
            )
            for i, d in enumerate(self.dims)
        ]
        self.ladders = sparse.vstack(raising + [op.T for op in raising], format="csr")

    def initial_index(self, prep: FieldPreparation) -> int:
        mi = list(self.betas).index(prep.mode)
        return prep.photons * int(np.prod(self.dims[mi + 1:]))


def _coefficients(setup: ProbeSetup, betas, t: float):
    """Weights w of F(t) = w . (a_1^dag..a_K^dag, a_1..a_K) at time t.

    w^(+/-)_beta = lambda sin(k_beta v t) / sqrt(beta pi) e^{i (Omega +/- omega_beta) t}.
    """
    envelopes = setup.coupling / np.sqrt(betas * np.pi) * np.sin(
        setup.wavenumber(betas) * setup.atom_speed * t)
    omegas = setup.mode_frequency(betas)
    return np.concatenate((envelopes, envelopes)) * np.exp(
        1j * (setup.atom_gap + np.concatenate((omegas, -omegas))) * t)


def build_hamiltonian(setup: ProbeSetup, truncation: HilbertTruncation, t: float):
    """Sparse Hermitian H(t) = [[0, F(t)^dag], [F(t), 0]] on the truncated space."""
    space = _OracleSpace(truncation)
    w = _coefficients(setup, space.betas, t)
    F = sparse.kron(w[None, :], sparse.identity(space.field_dim)) @ space.ladders
    return sparse.bmat([[None, F.conj().T], [F, None]], format="csr")


def _check_integ_tol(integ_tol: float, label: str = "integ_tol") -> None:
    # written as "not (...)" so that NaN is rejected too
    if not INTEG_TOL_FLOOR <= integ_tol < np.inf:
        raise ConvergenceError(
            f"{label} {integ_tol:.3g} is unusable: it must be finite and at "
            f"least {INTEG_TOL_FLOOR:.3g}, the tightest rtol the integrator "
            f"honours (100 x machine epsilon)"
        )


@dataclass(frozen=True)
class OracleResult:
    """Exactly evolved transit outcome."""

    overlap: complex          # <psi(0)|psi(T)>
    eta_numeric: complex      # -i Ln(overlap)
    p_excite_numeric: float   # total weight on the excited atom
    norm_drift: float         # | ||psi(T)|| - 1 |
    step_report: dict


def evolve(
    setup: ProbeSetup,
    prep: FieldPreparation,
    truncation: HilbertTruncation | None = None,
    integ_tol: float = 1e-10,
    dimension_cap: int = DIMENSION_CAP,
) -> OracleResult:
    """Adaptive high-order integration of the transit, 0 to T = L/v.

    Uses DOP853 with rtol = ``integ_tol`` and atol = ``integ_tol`` / 100;
    both are recorded in ``step_report``.  Raises :class:`ConvergenceError`
    before integrating if ``integ_tol`` is below :data:`INTEG_TOL_FLOOR`
    (100 * machine epsilon, ~2.2e-14, the tightest rtol the integrator
    honours) or is NaN or infinite, and after integrating if the final norm
    drifts by more than 10 * integ_tol (unitarity bound); warns when the
    validity estimator is outside the trusted range.
    """
    _check_integ_tol(integ_tol)
    if truncation is None:
        truncation = default_truncation(prep)
    truncation.check(prep, cap=dimension_cap)
    _warn_validity(validity(setup, prep))

    space = _OracleSpace(truncation)
    T = setup.crossing_time
    betas, ladders, fd = space.betas, space.ladders, space.field_dim
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.initial_index(prep)] = 1.0

    def rhs(t, psi):
        w = _coefficients(setup, betas, t)
        w_dagger = np.conj(w.reshape(2, -1)[::-1]).ravel()  # of a^dag, a in F^dag
        excited = w @ (ladders @ psi[:fd]).reshape(-1, fd)          # F psi_g
        ground = w_dagger @ (ladders @ psi[fd:]).reshape(-1, fd)    # F^dag psi_e
        return -1j * np.concatenate((ground, excited))

    rtol = integ_tol
    atol = integ_tol * 1e-2
    sol = solve_ivp(
        rhs,
        (0.0, T),
        psi0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"evolution failed: {sol.message}")
    psi_T = sol.y[:, -1]
    overlap = complex(np.vdot(psi0, psi_T))
    norm_drift = abs(float(np.linalg.norm(psi_T)) - 1.0)
    if norm_drift > 10.0 * integ_tol:
        raise ConvergenceError(
            f"norm drift {norm_drift:.3g} exceeds unitarity bound "
            f"{10.0 * integ_tol:.3g}; tighten integ_tol"
        )
    p_excite = float(np.sum(np.abs(psi_T[space.field_dim:]) ** 2))
    return OracleResult(
        overlap=overlap,
        eta_numeric=-1j * cmath.log(overlap),
        p_excite_numeric=p_excite,
        norm_drift=norm_drift,
        step_report={
            "steps": int(len(sol.t) - 1),
            "rhs_evaluations": int(sol.nfev),
            "integ_tol": integ_tol,
            "rtol": rtol,
            "atol": atol,
            "dimension": space.dim,
        },
    )


SCAN_AXES = ("modes", "headroom", "integ_tol")
SCAN_RELATIVE_TOL = 1e-3


def convergence_scan(
    setup: ProbeSetup,
    prep: FieldPreparation,
    axis: str,
    levels: int = 3,
    headroom: int = 4,
    others_max: int = 2,
    integ_tol: float = 1e-10,
):
    """Observables versus one truncation axis; flags non-convergence.

    axis "modes" grows the retained mode set, "headroom" the probed-mode cap,
    "integ_tol" tightens the integrator.  Convergence is declared when the
    last two gamma and p_excite values agree to 1e-3 relative.  The tightest
    tolerance the scan will use is checked against :data:`INTEG_TOL_FLOOR`
    before any level runs.  Returns (rows, converged); each row is a dict
    suitable for CSV emission.
    """
    if axis not in SCAN_AXES:
        raise ParameterError(f"axis must be one of {SCAN_AXES}, got {axis!r}")
    if axis == "integ_tol":
        last = max(levels - 1, 0)
        _check_integ_tol(integ_tol * 10.0 ** (-last),
                           f"scan tolerance integ_tol * 1e-{last} =")
    else:
        _check_integ_tol(integ_tol)
    rows = []
    values = []
    for level in range(levels):
        if axis == "modes":
            param = prep.mode + 1 + level
            trunc = default_truncation(prep, max_mode=param, headroom=headroom,
                                       others_max=others_max)
            tol = integ_tol
        elif axis == "headroom":
            param = headroom + 2 * level
            trunc = default_truncation(prep, headroom=param, others_max=others_max)
            tol = integ_tol
        else:
            param = integ_tol * 10.0 ** (-level)
            trunc = default_truncation(prep, headroom=headroom, others_max=others_max)
            tol = param
        result = evolve(setup, prep, trunc, integ_tol=tol)
        gamma = result.eta_numeric.real
        values.append((gamma, result.p_excite_numeric))
        rows.append(
            {
                "axis": axis,
                "value": param,
                "gamma": gamma,
                "p_excite": result.p_excite_numeric,
                "norm_drift": result.norm_drift,
                "dimension": result.step_report["dimension"],
            }
        )
    converged = False
    if len(values) >= 2:
        (g0, p0), (g1, p1) = values[-2], values[-1]
        dg = abs(g1 - g0) / max(abs(g1), 1e-300)
        dp = abs(p1 - p0) / max(abs(p1), 1e-300)
        converged = dg < SCAN_RELATIVE_TOL and dp < SCAN_RELATIVE_TOL
    if not converged:
        warnings.warn(
            f"convergence scan along {axis!r} not converged at "
            f"{levels} levels (relative tolerance {SCAN_RELATIVE_TOL:g})",
            ProbeWarning,
            stacklevel=2,
        )
    return rows, converged
