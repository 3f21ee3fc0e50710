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

import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta

from .model import (
    DEFAULT_POLICY,
    FieldPreparation,
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


def _fourier_quad(envelope, a, quad_tol, limit, maxp1):
    """Integral_0^1 exp(i a x) envelope(x) dx by QUADPACK; returns (value, error).

    Re and Im are each asked for ``quad_tol / 2`` and ``error`` is the sum of
    their estimates.  Below |a| = 1e-6 the cos/sin factor is integrated with
    the envelope, above it QUADPACK's weighted rule takes it; a < 0 follows
    by conjugation.
    """
    aa = abs(a)
    # full_output suppresses QUADPACK chatter; the callers check the error
    if aa < 1e-6:
        parts = [quad(lambda x, trig=trig: trig(aa * x) * envelope(x), 0.0, 1.0,
                      epsabs=1e-14, epsrel=quad_tol / 2, limit=limit, full_output=1)
                 for trig in (np.cos, np.sin)]
    else:
        parts = [quad(envelope, 0.0, 1.0, weight=weight, wvar=aa, epsabs=1e-16,
                      epsrel=quad_tol / 2, limit=limit, maxp1=maxp1, full_output=1)
                 for weight in ("cos", "sin")]
    (re, ere), (im, eim) = (part[:2] for part in parts)
    return complex(re, -im if a < 0 else im), ere + eim


def x_quadrature(
    setup: ProbeSetup,
    beta: int,
    sign: int,
    quad_tol: float = 1e-10,
    max_intervals: int = 800,
) -> complex:
    """Transit amplitude by adaptive numerical integration (oracle path).

    Integrates the defining oscillatory integral with QUADPACK's sin/cos
    weighted scheme, independent of :func:`x_closed`.  Each of Re and Im is
    asked for ``quad_tol / 2``; raises :class:`ConvergenceError` when their
    summed error estimates exceed ``quad_tol * max(|X|, T)``.
    """
    _check_mode_sign(beta, sign)
    if quad_tol <= 0:
        raise ParameterError(f"quad_tol must be positive, got {quad_tol}")
    a, b = _transit_phases(setup, beta, sign)
    T = setup.crossing_time
    integral, err = _fourier_quad(lambda x: np.sin(b * x), a, quad_tol, max_intervals, 100)
    value = T * integral / np.sqrt(b)
    err = T * err / np.sqrt(b)
    bound = quad_tol * max(abs(value), T)
    if err > bound:
        raise ConvergenceError(
            f"transit-amplitude quadrature (beta={beta}, sign={sign:+d}) "
            f"error estimate {err:.3g} exceeds tolerance {bound:.3g}"
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


# Modes summed directly before the tails take over (at least alpha + 1 and
# PARTS_ORDER pole distances), the most modes evaluated in one array, the
# Laurent order of the rational tails and the largest summation-by-parts
# order of the oscillating tail.
DIRECT_MODES = 32
DIRECT_CHUNK = 1 << 15
LAURENT_ORDER = 24
PARTS_ORDER = 12
_POWERS = np.arange(LAURENT_ORDER)
# row k: the signed binomials of the k-th forward difference
_DIFFERENCES = np.array([[(-1) ** (k - j) * math.comb(k, j) for j in range(PARTS_ORDER + 1)]
                         for k in range(PARTS_ORDER + 1)], dtype=float)


def _rational_tail(kappa, zeros, poles, first):
    """Sum over beta >= first of kappa * prod(beta - zeros) / prod(beta - poles).

    The poles are real and lie below ``first``.  The function is expanded in
    powers of 1/t, t = beta - c, about the centre c of its poles; the series
    converges for |t| > R, the half-spread of the poles, and each power sums
    to a Hurwitz zeta value.  Expanding about the centre never forms the
    separate residues, which cancel when poles crowd together.  Returns
    (value, bound), the bound being the Cauchy estimate on |t| = 2R of the
    powers past LAURENT_ORDER (infinite when 2R >= first - c).
    """
    lo, hi = min(poles), max(poles)
    c, R = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # kappa * prod over zeros / prod over poles of (1 - (. - c) s), a power
    # series in s = 1/t
    series = np.zeros(LAURENT_ORDER, dtype=type(kappa))
    series[0] = kappa
    for zero in zeros:
        series[1:] -= (zero - c) * series[:-1]
    for geometric in np.power.outer(np.subtract(poles, c), _POWERS):
        series = np.convolve(series, geometric)[:LAURENT_ORDER]
    lead = len(poles) - len(zeros)
    x = first - c
    value = complex(series @ zeta(lead + _POWERS, x))
    q = 2.0 * R / x
    if q >= 1.0:
        return value, math.inf
    # |f| <= peak = |kappa| prod(2R + |zero - c|) / R^len(poles) on |t| = 2R,
    # so the power t^-k has a coefficient of at most peak (2R)^k and the
    # powers past ``top`` sum to at most peak q^(top+1) (1 + x/top) / (1 - q);
    # written without dividing by R, which may underflow
    top = lead + LAURENT_ORDER - 1
    peak_q = (abs(kappa) * math.prod(2.0 * R + abs(zero - c) for zero in zeros)
              * (2.0 / x) ** len(poles) * q ** (top + 1 - len(poles)))
    return value, peak_q * (1.0 + x / top) / (1.0 - q)


def _oscillating_tail(theta, kappa, beta1, beta2, first, rational):
    """Sum over beta >= first of z^(beta - first) g(beta), z = e^{i theta}.

    g(beta) = kappa beta / ((beta - beta1)^2 (beta - beta2)^2) with
    beta1 <= beta2 < 0, so beta^3 g <= kappa; ``rational`` is (value, bound)
    of the sum of g itself.  Three estimates compete, the one with the
    smallest bound wins:

    * none: 0, bounded by sum g <= kappa / (2 (first - 1)^2);
    * z = 1 folded into the rational part: sum g, off by at most
      |theta| sum beta g <= |theta| kappa / (first - 1);
    * summation by parts to order K, with w = z / (1 - z):
      1 / (1 - z) sum_{k<K} w^k D^k g(first), D the forward
      difference.  (-1)^K D^K g keeps one sign beyond K |beta1|, so the
      remainder w^K sum_{beta>=first} z^(beta - first) D^K g(beta) is at most
      |w|^K |D^{K-1} g(first)|; rounding in the differences adds
      eps g(first) sum_{k<K} (2|w|)^k / |1 - z|.
    """
    candidates = [(0.0, kappa / (2.0 * (first - 1) ** 2)),
                  (rational[0], abs(theta) * kappa / (first - 1) + rational[1])]
    # the largest K with K |beta1| <= first - 1
    order = (PARTS_ORDER if PARTS_ORDER * abs(beta1) <= first - 1
             else int((first - 1) / abs(beta1)))
    if theta != 0.0 and order >= 1:
        k = _POWERS[:order + 1]
        beta = first + k
        g = kappa * beta / ((beta - beta1) ** 2 * (beta - beta2) ** 2)
        diffs = _DIFFERENCES[:order + 1, :order + 1] @ g
        gap = 1.0 - complex(math.cos(theta), math.sin(theta))
        w = (1.0 - gap) / gap
        partial = np.cumsum(w**k * diffs) / gap
        rounding = np.cumsum((2.0 * abs(w)) ** k) * (np.finfo(float).eps * g[0] / abs(gap))
        bounds = abs(w) ** k[1:] * np.abs(diffs[:-1]) + rounding[:-1]
        best = int(np.argmin(bounds))
        candidates.append((complex(partial[best]), float(bounds[best])))
    return min(candidates, key=lambda c: c[1])


def _pole_positions(setup: ProbeSetup):
    """Zeros (as functions of beta) of a = rho b + phi, b - a and b + a.

    beta_a = -Omega L / (pi c) and beta1,2 = -Omega L / (pi (c -/+ v)), with
    beta1 < beta_a < beta2 < 0.
    """
    c, v = setup.light_speed, setup.atom_speed
    beta_a = -setup.atom_gap * setup.cavity_length / (np.pi * c)
    return beta_a, beta_a * c / (c - v), beta_a * c / (c + v)


def _mode_tail(setup: ProbeSetup, first, kernel):
    """Exact tail beyond mode first - 1 of a counter-rotating mode sum.

    With rho = c/v, phi = Omega T, b = beta pi, a = rho b + phi and
    D = b^2 - a^2 = -pi^2 (rho^2 - 1)(beta - beta1)(beta - beta2), the terms
    are, in units of T^2 and with z = -e^{-i pi rho},

        conj(C_{+,beta}) / b = b/D^2 + i a/(2 b D) - e^{-i phi} z^beta b/D^2,
        |X_{+,beta}|^2       = 2 b/D^2 - 2 Re(e^{-i phi} z^beta b/D^2).

    Sums the first when ``kernel``, else the second.  Returns (tail, bound).
    """
    c, v = setup.light_speed, setup.atom_speed
    T = setup.crossing_time
    rho = c / v
    beta_a, beta1, beta2 = _pole_positions(setup)
    rho2m1 = (c - v) * (c + v) / (v * v)
    # b/D^2 = kappa beta / ((beta - beta1)^2 (beta - beta2)^2)
    kappa = 1.0 / (np.pi**3 * rho2m1**2)
    rational = _rational_tail(kappa, [0.0], [beta1, beta1, beta2, beta2], first)
    # z = e^{i theta}, theta = pi (1 - rho) reduced to [-pi, pi) before scaling
    turns = (1.0 - rho) % 2.0
    theta = np.pi * (turns - 2.0 if turns >= 1.0 else turns)
    osc = _oscillating_tail(theta, kappa, beta1, beta2, first, rational)
    # z^first e^{-i phi} = (-1)^first e^{-i a_first}, with the transit phase
    # rounded as the directly summed terms round it
    spin = (-1.0) ** first * np.exp(-1j * _transit_phases(setup, first, +1)[0])
    if kernel:
        # i a/(2 b D) = kappa2 (beta - beta_a) / (beta (beta - beta1) (beta - beta2))
        pole = _rational_tail(-0.5j * rho / (np.pi**2 * rho2m1), [beta_a],
                              [0.0, beta1, beta2], first)
        tail = rational[0] + pole[0] - spin * osc[0]
        bound = rational[1] + pole[1] + osc[1]
    else:
        tail = 2.0 * (rational[0].real - (spin * osc[0]).real)
        bound = 2.0 * (rational[1] + osc[1])
    return T * T * tail, T * T * bound


def _mode_sum(setup, terms_of, alpha, policy, modes, kernel, what):
    """Sum ``terms_of(betas)`` over the modes beta != alpha to infinity.

    With ``modes`` given, sums exactly those modes.  Otherwise sums modes
    1..B directly and adds the exact tail beyond B (:func:`_mode_tail`).
    B starts at the largest of DIRECT_MODES, alpha + 1 and PARTS_ORDER pole
    distances and doubles, up to policy.max_mode, until the tail's error
    bound is at most tail_tol * |total|; a sum that reaches the cap without
    that warns.  Returns (total, report).
    """
    if modes is not None:
        betas = np.array(sorted({int(b) for b in modes} - {alpha}), dtype=int)
        return np.sum(terms_of(betas)), TruncationReport(len(betas), 0.0, True)
    policy.check_covers(FieldPreparation(mode=alpha, photons=0))
    reach = math.ceil(-PARTS_ORDER * _pole_positions(setup)[1])
    stop = min(max(DIRECT_MODES, alpha + 1, reach), policy.max_mode)
    direct, start = 0.0, 1
    while True:
        for low in range(start, stop + 1, DIRECT_CHUNK):
            betas = np.arange(low, min(low + DIRECT_CHUNK, stop + 1))
            direct = direct + np.sum(terms_of(betas[betas != alpha]))
        tail, bound = _mode_tail(setup, stop + 1, kernel)
        total = direct + tail
        converged = bool(bound <= policy.tail_tol * abs(total))
        if converged or stop == policy.max_mode:
            break
        start, stop = stop + 1, min(2 * stop, policy.max_mode)
    if not converged:
        warnings.warn(
            f"{what} hit max_mode={policy.max_mode} before its tail bound "
            f"{bound:.3g} met tail_tol={policy.tail_tol:g} relative "
            f"(tail added {abs(tail):.3g})",
            ProbeWarning,
            stacklevel=3,
        )
    return total, TruncationReport(stop, float(abs(tail)), converged, float(bound))


def counter_rotating_mode_sum(
    setup: ProbeSetup,
    alpha: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
    modes=None,
):
    """Vacuum-fluctuation sum over modes beta != alpha of |X_{+,beta}|^2.

    Summed to infinity: modes 1..B directly, the rest as an exact tail (see
    :func:`_mode_sum`); warns when B reaches ``policy.max_mode`` before the
    tail's error bound meets ``policy.tail_tol`` relative.  With ``modes``
    given, sums exactly those modes.  Returns (value, TruncationReport).
    """
    total, report = _mode_sum(
        setup, lambda betas: np.abs(_closed_array(setup, betas, +1)) ** 2,
        alpha, policy, modes, False, "transition mode sum",
    )
    return float(total), report
