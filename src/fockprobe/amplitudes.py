"""First-order transit amplitudes for a ground-state atom crossing the cavity.

For mode ``beta`` and rotating/counter-rotating sign ``s`` the amplitude is the
transit integral

    X_{s,beta} = (k_beta L)^{-1/2} * Integral_0^T exp(i (s Omega + omega_beta) t)
                 * sin(k_beta v t) dt,

with x(t) = v t and T = L / v.  In the dimensionless transit phases
``a = (omega_beta + s Omega) T`` and ``b = beta pi`` it evaluates exactly to

    X = T sqrt(b) * h(a - b) / (a + b),      h(u) = -(u/2) S(u/2)^2 + i S(u),

where S(x) = sin(x)/x.  This rearrangement is algebraically identical to the
textbook ratio ``(1 - (-1)^beta e^{ia}) L v sqrt(b) / ((b v)^2 - L^2 (...)^2)``
but stays numerically stable through the removable singularities a -> +/- b,
so no separate limit branch is required.

Conventions: time dependence exp(+i omega t) exactly as in the defining
integral; no rotating-wave approximation anywhere.  Amplitudes for a < 0
follow from X(-a) = conj(X(a)).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import quad

from .model import (
    CONSECUTIVE_SMALL_INCREMENTS,
    DEFAULT_POLICY,
    ParameterError,
    ProbeSetup,
    ProbeWarning,
    TruncationPolicy,
    TruncationReport,
)


class ConvergenceError(RuntimeError):
    """Numerical integration or summation failed to reach its tolerance."""


def _check_mode_sign(beta, sign):
    if beta != int(beta) or beta < 1:
        raise ParameterError(f"mode index must be a positive integer, got {beta}")
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign!r}")


def _transit_phases(setup: ProbeSetup, beta, sign):
    """Dimensionless phases accumulated over one transit.

    Returns (a, b): a = (omega_beta + sign*Omega) * T for the driving
    exponential, b = beta*pi for the mode envelope.
    """
    T = setup.crossing_time
    omega = setup.mode_frequency(beta)
    return (omega + sign * setup.atom_gap) * T, beta * np.pi


def _sinc(x):
    # sin(x)/x with the removable zero filled in.
    return np.sinc(np.asarray(x) / np.pi)


def _reduced_amplitude(a, b):
    """sqrt(b) * h(a - b) / (a + b) for a >= 0 elementwise; X = T * this."""
    u = a - b
    h = -(u / 2.0) * _sinc(u / 2.0) ** 2 + 1j * _sinc(u)
    return np.sqrt(b) * h / (a + b)


def _closed_array(setup: ProbeSetup, betas, sign, reduced=_reduced_amplitude, order=1):
    """Closed form T**order * reduced(|a|, b) over an integer mode array.

    Serves the first-order amplitude (``order=1``) and, with the reduced
    kernel, the second-order kernel (``order=2``); a < 0 follows by
    conjugation.
    """
    betas = np.asarray(betas, dtype=float)
    a, b = _transit_phases(setup, betas, sign)
    T = setup.crossing_time
    out = (T if order == 1 else T * T) * reduced(np.abs(a), b)
    out = np.where(a < 0, np.conj(out), out)
    # Parity cancellation is exact, not a rounding-level residue: a == 0 only
    # happens on resonance, where even modes decouple identically.
    exact_zero = (a == 0.0) & (betas.astype(int) % 2 == 0)
    return np.where(exact_zero, 0.0 + 0.0j, out)


def x_closed(setup: ProbeSetup, beta: int, sign: int) -> complex:
    """Closed-form transit amplitude X_{sign,beta} (units of time).

    Exact for all parameters, including the removable denominator zeros and
    the even-mode resonance where it returns exactly 0.
    """
    _check_mode_sign(beta, sign)
    return complex(_closed_array(setup, np.array([beta]), sign)[0])


def x_quadrature(
    setup: ProbeSetup,
    beta: int,
    sign: int,
    quad_tol: float = 1e-10,
    max_intervals: int = 800,
) -> complex:
    """Transit amplitude by adaptive numerical integration (oracle path).

    Integrates the defining oscillatory integral with QUADPACK's sin/cos
    weighted scheme, independent of :func:`x_closed`.  Raises
    :class:`ConvergenceError` when the estimated error exceeds
    ``quad_tol * max(|X|, T)``.
    """
    _check_mode_sign(beta, sign)
    if quad_tol <= 0:
        raise ParameterError(f"quad_tol must be positive, got {quad_tol}")
    a, b = _transit_phases(setup, beta, sign)
    T = setup.crossing_time

    envelope = lambda x: np.sin(b * x)
    if abs(a) < 1e-6:
        # full_output suppresses QUADPACK chatter; the error check below is ours
        re_res = quad(lambda x: np.cos(a * x) * envelope(x), 0.0, 1.0,
                      epsabs=1e-14, epsrel=quad_tol, limit=max_intervals,
                      full_output=1)
        im_res = quad(lambda x: np.sin(a * x) * envelope(x), 0.0, 1.0,
                      epsabs=1e-14, epsrel=quad_tol, limit=max_intervals,
                      full_output=1)
        re, ere = re_res[0], re_res[1]
        im, eim = im_res[0], im_res[1]
    else:
        re_res = quad(envelope, 0.0, 1.0, weight="cos", wvar=abs(a),
                      epsabs=1e-16, epsrel=quad_tol, limit=max_intervals,
                      maxp1=100, full_output=1)
        im_res = quad(envelope, 0.0, 1.0, weight="sin", wvar=abs(a),
                      epsabs=1e-16, epsrel=quad_tol, limit=max_intervals,
                      maxp1=100, full_output=1)
        re, ere = re_res[0], re_res[1]
        im, eim = im_res[0], im_res[1]
        if a < 0:
            im = -im
    value = T * (re + 1j * im) / np.sqrt(b)
    err = T * (ere + eim) / np.sqrt(b)
    if err > quad_tol * max(abs(value), T):
        raise ConvergenceError(
            f"transit-amplitude quadrature (beta={beta}, sign={sign:+d}) "
            f"error estimate {err:.3g} exceeds tolerance"
        )
    return complex(value)


def x_mod_squared(setup: ProbeSetup, beta: int, sign: int) -> float:
    """|X_{sign,beta}|^2, computed from the complex closed form."""
    return abs(x_closed(setup, beta, sign)) ** 2


def x_detuned_leading(setup: ProbeSetup, alpha: int, delta: float) -> complex:
    """Leading-order rotating amplitude of an even mode at small detuning.

    For alpha = 2j and delta = omega_alpha - Omega small, the otherwise
    cancelled amplitude grows linearly: X ~ -i delta L^2 / (v^2 (2 pi j)^{3/2}).
    Intended only for scaling checks against :func:`x_closed`.
    """
    if alpha != int(alpha) or alpha < 1 or alpha % 2 != 0:
        raise ParameterError(f"detuned leading form needs an even mode, got {alpha}")
    j = alpha // 2
    L, v = setup.cavity_length, setup.atom_speed
    return -1j * delta * L * L / (v * v * (2.0 * np.pi * j) ** 1.5)


def _mode_sum(terms_of, alpha, policy, modes, tail_factor, what):
    """Sum ``terms_of(betas)`` over the modes beta != alpha in ascending order.

    With ``modes`` given, sums exactly those modes.  Otherwise sums chunks of
    1..policy.max_mode and stops after CONSECUTIVE_SMALL_INCREMENTS
    consecutive terms with |t| <= tail_tol * |running total|; alpha is left
    out, so it neither counts toward that run nor breaks it.  Each chunk's
    running totals are a cumsum seeded with the carried total: the additions
    happen in the same order as a term-by-term loop.  Returns (total, report),
    the tail estimate being tail_factor * |t_B| * B for the last summed t_B.
    """
    if modes is not None:
        betas = np.array(sorted({int(b) for b in modes} - {alpha}), dtype=int)
        return np.sum(terms_of(betas)), TruncationReport(len(betas), 0.0, True)
    total, run, last, beta_last = 0.0, 0, 0.0, 0
    converged = False
    chunk = 256
    start = 1
    while start <= policy.max_mode and not converged:
        stop = min(start + chunk - 1, policy.max_mode)
        betas = np.arange(start, stop + 1)
        keep = betas != alpha
        betas, terms = betas[keep], terms_of(betas)[keep]
        start = stop + 1
        chunk = min(chunk * 2, 8192)
        if betas.size == 0:
            continue
        running = np.cumsum(np.concatenate(([total], terms)))[1:]
        size = np.abs(running)
        small = (size > 0) & (np.abs(terms) <= policy.tail_tol * size)
        # run length ending at each term: distance to the last large term, or
        # the carried run plus the position when the chunk has none before it
        pos = np.arange(betas.size)
        large = np.maximum.accumulate(np.where(small, -1, pos))
        runs = np.where(large < 0, run + pos + 1, pos - large)
        hits = np.flatnonzero(runs >= CONSECUTIVE_SMALL_INCREMENTS)
        converged = hits.size > 0
        i = hits[0] if converged else -1
        total, run = running[i], runs[i]
        # abs of the scalar, which np.abs may differ from in the last bit
        last, beta_last = abs(terms[i]), int(betas[i])
    tail = float(last * beta_last * tail_factor)
    if not converged:
        warnings.warn(
            f"{what} hit max_mode={policy.max_mode} before "
            f"tail_tol={policy.tail_tol:g}; tail estimate {tail:.3g}",
            ProbeWarning,
            stacklevel=3,
        )
    return total, TruncationReport(beta_last, tail, converged)


def counter_rotating_mode_sum(
    setup: ProbeSetup,
    alpha: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
    modes=None,
):
    """Vacuum-fluctuation sum over modes beta != alpha of |X_{+,beta}|^2.

    With ``modes`` given, sums exactly those modes (no adaptivity); otherwise
    iterates up to the policy cap.  Returns (value, TruncationReport).
    """
    # |X|^2 falls off like 1/beta^3, so the integral tail is ~ t_B * B / 2.
    total, report = _mode_sum(
        lambda betas: np.abs(_closed_array(setup, betas, +1)) ** 2,
        alpha, policy, modes, 0.5, "transition mode sum",
    )
    return float(total), report
