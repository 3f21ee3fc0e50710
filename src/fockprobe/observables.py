"""Physical predictions: transition probability, phase, visibility, resolution.

The survival amplitude after one transit is, to second order in the coupling,

    A(n) = 1 - lambda^2 [ n C_{-,alpha} / (k_alpha L)
                          + Sum_{beta != alpha} conj(C_{+,beta}) / (k_beta L)
                          + (n+1) conj(C_{+,alpha}) / (k_alpha L) ],

and eta = -i Ln A(n) on the principal branch.  The measurable interferometric
phase is gamma = Re(eta) = arg A(n); the fringe visibility factor is
exp(-|Im eta|).  Phase differences between photon numbers are evaluated from
the single Ln of the amplitude ratio, never by subtracting two rounded phases.
Every observable is a row of an array: :func:`phase_components` once per
mode, :func:`survival_amplitude` over photon numbers, then :func:`eta_rows`
or :func:`delta_gamma_rows`; one point is one row, and tables over (n, m)
grids are resolution sweeps (``sweeps.compute_rows``).
A(n) is affine in n, so the largest n at which one photon still turns the
phase by a given floor has a closed form (:func:`resolution_threshold`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import counter_rotating_mode_sum, x_closed
from .kernels import c_closed, mode_sum_offres
from .model import (
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    ProbeWarning,
    TruncationReport,
)

# Perturbative-regime guard on the transition probability.
P_EXCITE_GUARD = 1e-4

# |eta| beyond this is inside the principal-branch ambiguity zone.
BRANCH_WARN = math.pi / 2

VALIDITY_OK = 0.1
VALIDITY_MARGINAL = 1.0

class BranchError(RuntimeError):
    """Survival amplitude left the principal-branch safe half-plane."""


def validity(setup: ProbeSetup, photons):
    """Perturbation-validity estimator (lambda/Omega) * n * (L/v) at n = ``photons``.

    Quoted with the transit time in the setup's own units; classification via
    :func:`classify_validity`.  ``photons`` may be a number or an array, with
    one operation order for both.  Zero coupling or zero photons give 0.
    """
    return setup.coupling_ratio * photons * setup.crossing_time


def classify_validity(value: float) -> str:
    if value < VALIDITY_OK:
        return "ok"
    if value < VALIDITY_MARGINAL:
        return "marginal"
    return "invalid"


def _warn_validity(value: float) -> None:
    label = classify_validity(value)
    if label != "ok":
        warnings.warn(
            f"validity estimator {value:.3g} is {label} (perturbative trust "
            f"requires < {VALIDITY_MARGINAL:g}, comfortable below {VALIDITY_OK:g})",
            ProbeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class TransitionBreakdown:
    """Transition probability and its three physical contributions."""

    total: float
    rotating: float          # photon absorption from the probed mode
    counter_rotating: float  # emission into the probed mode
    vacuum: float            # fluctuations of all other modes
    report: TruncationReport


def transition_probability(
    setup: ProbeSetup,
    prep: FieldPreparation,
    modes=None,
) -> TransitionBreakdown:
    """Excitation probability lambda^2 [ |X-|^2 n + |X+|^2 (n+1) + vacuum sum ].

    ``modes`` restricts the vacuum sum to an explicit mode set (used when
    comparing against a truncated evolution); otherwise the sum runs to
    infinity (:func:`.amplitudes.counter_rotating_mode_sum`).  Warns when the
    result exceeds the perturbative guard.
    """
    lam2 = setup.coupling**2
    xm2 = abs(x_closed(setup, prep.mode, -1)) ** 2
    xp2 = abs(x_closed(setup, prep.mode, +1)) ** 2
    vac, report = counter_rotating_mode_sum(setup, prep.mode, modes=modes)
    rotating = float(lam2 * xm2 * prep.photons)
    counter = float(lam2 * xp2 * (prep.photons + 1))
    vacuum = float(lam2 * vac)
    total = rotating + counter + vacuum
    if total > P_EXCITE_GUARD:
        warnings.warn(
            f"transition probability {total:.3g} above perturbative guard "
            f"{P_EXCITE_GUARD:g}",
            ProbeWarning,
            stacklevel=2,
        )
    return TransitionBreakdown(total, rotating, counter, vacuum, report)


@dataclass(frozen=True)
class PhaseComponents:
    """Second-order survival-amplitude ingredients for a probed mode.

    All pieces already divided by the corresponding k L; multiply by
    lambda^2 and the photon-number weights to get the amplitude deficit.
    """

    rotating_kernel: complex         # C_{-,alpha} / (k_alpha L)
    counter_rotating_kernel: complex  # conj(C_{+,alpha}) / (k_alpha L)
    offres_sum: complex              # Sum_{beta != alpha} conj(C_{+,beta}) / (k_beta L)
    report: TruncationReport


def phase_components(setup: ProbeSetup, alpha: int, modes=None) -> PhaseComponents:
    """Evaluate the kernel combinations once; reuse across photon numbers."""
    kL = alpha * math.pi
    cm = c_closed(setup, alpha, -1) / kL
    cp = np.conj(c_closed(setup, alpha, +1)) / kL
    prep = FieldPreparation(mode=alpha, photons=0)
    total, report = mode_sum_offres(setup, prep, modes=modes)
    return PhaseComponents(complex(cm), complex(cp), complex(total), report)


def survival_amplitude(components: PhaseComponents, setup: ProbeSetup, n: int) -> complex:
    """A(n) = 1 - lambda^2 [ n C_- + offres + (n+1) conj(C_+) ] (all over kL)."""
    lam2 = setup.coupling**2
    bracket = (
        n * components.rotating_kernel
        + components.offres_sum
        + (n + 1) * components.counter_rotating_kernel
    )
    return 1.0 - lam2 * bracket


def _branch_failures(consequence: str, *amplitudes, where=True) -> dict:
    """Row -> message, in row order, for the rows in ``where`` with Re A <= 0.

    A row fails if any of ``amplitudes`` does; its message names the first.
    """
    failed = {}
    for amps in amplitudes:
        for row in np.flatnonzero((amps.real <= 0.0) & where):
            failed.setdefault(int(row), f"survival amplitude {complex(amps[row]):.6g} has "
                                        f"non-positive real part; {consequence}")
    return dict(sorted(failed.items()))


def eta_rows(amplitudes):
    """Principal-branch eta = -i Ln A for each row of an array of amplitudes.

    Returns ``(eta, visibility, failed)`` with visibility = exp(-|Im eta|).
    ``failed`` maps each row with Re A <= 0 to its message, in row order;
    eta and visibility are NaN there.  Warns once per row, in row order,
    where |eta| > pi/2.  A single amplitude counts as one row.
    """
    amplitudes = np.array(amplitudes, dtype=complex, ndmin=1)
    failed = _branch_failures("principal-branch phase extraction is ambiguous", amplitudes)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = -1j * np.log(amplitudes)
    eta[list(failed)] = complex(math.nan, math.nan)
    size = np.abs(eta)
    for row in np.flatnonzero(size > BRANCH_WARN):
        warnings.warn(f"|eta| = {size[row]:.3g} inside principal-branch ambiguity zone "
                      "(> pi/2)", ProbeWarning, stacklevel=2)
    return eta, np.exp(-np.abs(eta.imag)), failed


def delta_gamma_rows(components: PhaseComponents, setup: ProbeSetup, n, m):
    """arg(A(n+m) / A(n)) for each row of the photon-number arrays ``n`` and ``m``.

    Returns ``(delta_gamma, failed)``.  A row with m = 0 is 0.0 and never
    fails.  ``failed`` maps each other row where A(n+m) or A(n), tested in
    that order, has Re A <= 0 to its message, in row order; delta_gamma is
    NaN there.  A number counts as one row.  Raises :class:`ParameterError`
    if any n or m is negative.
    """
    n, m = np.broadcast_arrays(*(np.array(x, dtype=float, ndmin=1) for x in (n, m)))
    if np.any(n < 0) or np.any(m < 0):
        raise ParameterError("photon numbers must be non-negative")
    a_hi = survival_amplitude(components, setup, n + m)
    a_lo = survival_amplitude(components, setup, n)
    moved = m != 0
    failed = _branch_failures("phase difference is branch-ambiguous", a_hi, a_lo,
                              where=moved)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_gamma = np.where(moved, np.angle(a_hi / a_lo), 0.0)
    delta_gamma[list(failed)] = math.nan
    return delta_gamma, failed


def delta_gamma_linear(setup: ProbeSetup, alpha: int, m: int) -> float:
    """Few-photon phase-difference estimate lambda^2 L^2 m / (4 pi^2 alpha^2 c v).

    Follows from the non-relativistic resonant kernel; independent of n and
    invariant under rescaling L at fixed lambda/Omega and v with the gap
    tracking resonance.
    """
    if alpha != int(alpha) or alpha < 1 or alpha % 2 != 0:
        raise ParameterError(f"linear estimate holds for even modes, got {alpha}")
    lam = setup.coupling
    L, c, v = setup.cavity_length, setup.light_speed, setup.atom_speed
    return lam * lam * L * L * m / (4.0 * math.pi**2 * alpha**2 * c * v)


def resolution_threshold(setup: ProbeSetup, alpha: int, resolution_floor: float = 1e-4):
    """Largest n >= 0 with delta_gamma_rows(n, 1) >= resolution_floor, or None.

    A(n) is affine in n, so A(n) = d (w + n) with d = A(1) - A(0) and
    w = A(0) / d, and one photon turns the phase by arg(1 + 1/(w + n)).  For
    0 < f < pi that is >= f exactly when y = Im w < 0 and
    (Re w + n + 1/2)^2 <= 1/4 - y (y + cot f): the resolving n form one
    interval.  Its top end, capped by the branch guard Re A(n + 1) > 0 when
    Re d < 0, is floored and confirmed by one delta_gamma_rows call on
    top - 2 ... top + 2, clipped at 0; the last n that passes is returned, a
    branch-failed (NaN) row counting as below the floor.  None when d = 0 (no
    coupling), y >= 0, resolution_floor >= pi or no n passes.  Raises
    :class:`ParameterError` unless resolution_floor is finite and positive,
    and when the top end is not finite or not below 2**53, where n and n + 1
    round to the same double.
    """
    # written as "not (...)" so that NaN is rejected too
    if not 0.0 < resolution_floor < math.inf:
        raise ParameterError(f"resolution_floor must be finite and positive, got {resolution_floor}")
    comps = phase_components(setup, alpha)
    z0, z1 = survival_amplitude(comps, setup, np.array([0.0, 1.0])).tolist()
    d = z1 - z0
    if d == 0 or resolution_floor >= math.pi:
        return None
    w = z0 / d
    y = w.imag
    bound = 0.25 - y * (y + 1.0 / math.tan(resolution_floor))
    if y >= 0 or bound < 0:
        return None
    top = -w.real - 0.5 + math.sqrt(bound)
    if d.real < 0:
        top = min(top, -z0.real / d.real - 1.0)
    if not -math.inf < top < 2.0**53:
        raise ParameterError(f"resolution floor {resolution_floor:g} rad puts the threshold "
                             "beyond 2**53, where n and n + 1 round to the same double")
    ns = np.arange(max(math.floor(top) - 2, 0), math.floor(top) + 3)
    delta_gamma, _ = delta_gamma_rows(comps, setup, ns, 1)
    passing = np.flatnonzero(delta_gamma >= resolution_floor)
    return int(ns[passing[-1]]) if passing.size else None


def fringe(
    setup: ProbeSetup,
    prep_known: FieldPreparation,
    prep_unknown: FieldPreparation,
    reference_phase=0.0,
):
    """Balanced two-port interferometer outputs for the two cavity arms.

    P+- = (1 +- V cos(dgamma + phi)) / 2 with V the product of the arm
    visibilities and dgamma = gamma(unknown) - gamma(known), taken as
    arg(A_unknown / A_known): exact, since the branch guard keeps both phases
    in (-pi/2, pi/2).  The pair always sums to 1.  A sequence of reference
    phases gives arrays, from one evaluation of the two amplitudes.  Raises
    :class:`ParameterError` for a reference phase that is not finite.
    """
    if not np.isfinite(reference_phase).all():
        raise ParameterError(f"reference_phase must be finite, got {reference_phase}")
    preps = (prep_known, prep_unknown)
    for prep in preps:
        _warn_validity(validity(setup, prep.photons))
    comps = {mode: phase_components(setup, mode)
             for mode in dict.fromkeys(prep.mode for prep in preps)}
    a_known, a_unknown = (survival_amplitude(comps[prep.mode], setup, prep.photons)
                          for prep in preps)
    _, visibility, failed = eta_rows([a_known, a_unknown])
    if failed:
        raise BranchError(next(iter(failed.values())))
    dgamma = float(np.angle(a_unknown / a_known))
    vis_known, vis_unknown = visibility.tolist()
    contrast = vis_known * vis_unknown
    p_plus = 0.5 * (1.0 + contrast * np.cos(np.add(dgamma, reference_phase)))
    p_minus = 1.0 - p_plus
    return p_plus, p_minus
