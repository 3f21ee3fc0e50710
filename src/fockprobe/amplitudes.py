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

The counter-rotating mode sums run to infinity: modes 1..B are summed
directly and the tail beyond B in closed form, its rational parts as Hurwitz
zeta series evaluated here by Euler-Maclaurin summation (:func:`_hurwitz_zeta`).
The module imports numpy and nothing of scipy.
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import cache

import numpy as np

from .model import ParameterError, ProbeSetup, ProbeWarning, TruncationReport


class ConvergenceError(RuntimeError):
    """Numerical integration or summation failed to reach its tolerance."""


def _check_mode_sign(beta, sign):
    if beta != int(beta) or beta < 1:
        raise ParameterError(f"mode index must be a positive integer, got {beta}")
    if beta > 2 ** 53:
        raise ParameterError(f"mode index {beta} exceeds 2**53, above which "
                             "neighbouring modes round to the same double")
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign!r}")


# quad_tol lies below this: an estimate of a tenth of the value certifies no digit
QUAD_TOL_CEILING = 0.1


def _check_quad_tol(quad_tol):
    # written as "not (...)" so that NaN is rejected too
    if not 0.0 < quad_tol < QUAD_TOL_CEILING:
        raise ParameterError(f"quad_tol must be positive and below {QUAD_TOL_CEILING:g}, "
                             f"got {quad_tol}")


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


# Chebyshev interpolation on the Lobatto nodes, shared by the quadrature oracle
# below and the exact-evolution propagator of :mod:`.oracle`.


def _lobatto_nodes(degree: int):
    """The degree + 1 Chebyshev-Lobatto nodes on [-1, 1], ascending and exactly symmetric."""
    return np.sin(np.pi * np.arange(-degree, degree + 1, 2) / (2 * degree))


def _cosine_transform(x):
    """y_k = x_0 + (-1)^k x_N + 2 Sum_{0<j<N} x_j cos(pi j k / N) along axis 0 (a DCT-I)."""
    spectrum = np.fft.fft(np.concatenate((x, x[-2:0:-1])), axis=0)[:len(x)]
    return spectrum.real if np.isrealobj(x) else spectrum


def _chebyshev_coefficients(values):
    """Chebyshev coefficients (along axis 0) of the interpolant through
    ``values`` at the ascending Lobatto nodes of degree len(values) - 1."""
    coefs = _cosine_transform(values[::-1]) / (len(values) - 1)
    coefs[[0, -1]] /= 2.0
    return coefs


# Interpolant degree past the envelope's phase (floor(b) for sin(b x),
# floor(2 b) for the overlap K), the rounding floor of the moment rule in
# units of eps Sum_k |c_k mu_k| (QUADPACK's floor is 50 eps), the rows of the
# moments' boundary-value solve past the degree, fixed and in turning-point
# widths |w|^(1/3) (see :func:`_chebyshev_moments`), and the most samples one
# quadrature evaluates in one array.
INTERPOLANT_MARGIN = 40
ROUNDING = 50.0
MOMENT_MARGIN = 40
TURNING_WIDTHS = 12.0
SAMPLE_CAP = 1 << 20
_I_CYCLE = np.array((1.0, 1j, -1.0, -1j))


def _check_samples(count):
    if count > SAMPLE_CAP:
        raise ConvergenceError(
            f"quadrature would need {count} samples in one array, above the "
            f"cap of {SAMPLE_CAP}"
        )


def _chebyshev_moments(w, degree):
    """mu_k = Integral_{-1}^{1} T_k(t) e^{iwt} dt for k = 0..degree.

    With nu_k = mu_k / i^k, which is real, integrating T_k = T'_{k+1} / (2(k+1))
    - T'_{k-1} / (2(k-1)) by parts gives the three-term rows

        nu_1 - (w/4) nu_2 = sin(w) / 2,
        nu_k - w/(2(k-1)) nu_{k-1} - w/(2(k+1)) nu_{k+1} = sigma_k / (k^2 - 1),

    sigma_k = -2 cos w, -2 sin w, 2 cos w, 2 sin w for k = 0, 1, 2, 3 mod 4,
    and nu_0 = 2 sin(w) / w (2 at w = 0).  k J_k(w) and k Y_k(w) solve the
    homogeneous rows.  Both oscillate while k <= |w|, where the recurrence
    runs forward; past |w| J decays and Y grows, so the rest is a
    boundary-value problem (Olver, J. Res. NBS 71B, 111 (1967)): the rows up
    to K with nu_{K+1} = 0, eliminated downward, every pivot at least 1/2.
    The cut adds the Y solution scaled to cancel nu_{K+1} ~ 1/K^2, weighing
    nu_k, k <= D, by Y_k / Y_{K+1}.  Through the turning point Y grows like
    Airy's Bi(2^(1/3) tau), tau = (k - |w|) / |w|^(1/3): by
    exp((2/3) (2^(1/3) 12)^(3/2)) > 1e17 over TURNING_WIDTHS = 12, and past
    it by ~2k/|w| a row, over MOMENT_MARGIN rows that cover where the Airy
    form is loose (small |w|, or D well past |w|).  So K = D +
    MOMENT_MARGIN + ceil(TURNING_WIDTHS |w|^(1/3)), D the degree: at D = 2000
    and |w| = 1990 it gives the moments of K = D + 8000 bit for bit, where
    K = D + 40 errs by 3e-8.
    """
    w = float(w)
    sin, cos = math.sin(w), math.cos(w)
    sigma = (-2.0 * cos, -2.0 * sin, 2.0 * cos, 2.0 * sin)
    nu = [2.0 if w == 0.0 else 2.0 * sin / w]
    last = min(degree, math.floor(abs(w)))
    if last >= 1:
        nu.append((nu[0] - 2.0 * cos) / w)
    if last >= 2:
        nu.append(4.0 / w * (nu[1] - 0.5 * sin))
    for k in range(2, last):
        nu.append(2.0 * (k + 1) / w * (nu[k] - sigma[k & 3] / (k * k - 1))
                  - (k + 1) / (k - 1) * nu[k - 1])
    if last < degree:
        h = 0.5 * w
        top = degree + MOMENT_MARGIN + math.ceil(TURNING_WIDTHS * abs(w) ** (1.0 / 3.0))
        # nu_k = a nu_{k-1} + b, row by row from nu_{top+1} = 0 down to row last + 1
        a = b = 0.0
        rows = []
        for k in range(top, max(last, 1), -1):
            pivot = 1.0 - h / (k + 1) * a
            a, b = h / ((k - 1) * pivot), (sigma[k & 3] / (k * k - 1) + h / (k + 1) * b) / pivot
            rows.append((a, b))
        if last == 0:
            # row 1 holds no nu_0
            rows.append((0.0, (0.5 * sin + 0.5 * h * b) / (1.0 - 0.5 * h * a)))
        for a, b in rows[::-1][:degree - last]:
            nu.append(a * nu[-1] + b)
    return np.array(nu) * _I_CYCLE[np.arange(degree + 1) & 3]


def _fourier_chebyshev(coefs, a):
    """Integral_0^1 p(s) exp(i a s) ds for p(s) = Sum_k coefs[k] T_k(2 s - 1).

    With t = 2 s - 1 and w = a/2 the integral is e^{iw}/2 Sum_k coefs[k]
    mu_k(w), exact for the polynomial, with the Chebyshev moments mu_k of
    :func:`_chebyshev_moments` (the Filon-Clenshaw-Curtis rule).  Returns
    (value, error_estimate).  The estimate is the interpolant's last two
    coefficients (how far p may be from the function it samples) plus the
    rounding floor ROUNDING eps Sum_k |coefs[k] mu_k|; the moments are exact,
    so the rule adds no truncation term.  Raises :class:`ConvergenceError`
    when a is not finite.
    """
    if not math.isfinite(a):
        raise ConvergenceError(f"transit phase {a} is not finite")
    w = 0.5 * a
    moments = _chebyshev_moments(w, len(coefs) - 1)
    value = 0.5 * cmath.exp(1j * w) * (coefs @ moments)
    rounding = ROUNDING * np.finfo(float).eps * (np.abs(coefs) @ np.abs(moments))
    return complex(value), float(abs(coefs[-2]) + abs(coefs[-1]) + rounding)


@cache
def _envelope_coefficients(beta, degree):
    """Chebyshev coefficients of sin(b x), x in [0, 1], on degree + 1 Lobatto nodes.

    The envelope depends on the mode alone (b = beta pi), so both signs and
    every setup share one evaluation per (beta, degree)."""
    nodes = _lobatto_nodes(degree)
    coefficients = _chebyshev_coefficients(np.sin(0.5 * (beta * np.pi) * (1.0 + nodes)))
    coefficients.flags.writeable = False
    return coefficients


def x_quadrature(setup: ProbeSetup, beta: int, sign: int, quad_tol: float = 1e-10) -> complex:
    """Transit amplitude by numerical integration (oracle path).

    Interpolates the envelope sin(b x) on floor(b) + INTERPOLANT_MARGIN + 1
    Chebyshev-Lobatto nodes (once per mode, :func:`_envelope_coefficients`)
    and integrates it against exp(i a x) with :func:`_fourier_chebyshev`,
    independent of :func:`x_closed`.  Raises
    :class:`ConvergenceError` when the error estimate exceeds
    ``quad_tol * max(|X|, T)``.
    """
    _check_mode_sign(beta, sign)
    _check_quad_tol(quad_tol)
    a, b = _transit_phases(setup, beta, sign)
    T = setup.crossing_time
    degree = int(b) + INTERPOLANT_MARGIN
    _check_samples(degree + 1)
    integral, err = _fourier_chebyshev(_envelope_coefficients(beta, degree), a)
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
# PARTS_ORDER pole distances), the cap on them, the bound on the tail's
# error relative to the sum, the Laurent order of the rational tails and the
# largest summation-by-parts order of the oscillating tail.
DIRECT_MODES = 32
MAX_MODE = 10_000
TAIL_TOL = 1e-10
LAURENT_ORDER = 24
PARTS_ORDER = 12
_POWERS = np.arange(LAURENT_ORDER)
# row k: the signed binomials of the k-th forward difference
_DIFFERENCES = np.array([[(-1) ** (k - j) * math.comb(k, j) for j in range(PARTS_ORDER + 1)]
                         for k in range(PARTS_ORDER + 1)], dtype=float)
# B_2, B_4, ..., B_24 as (numerator, denominator): the Bernoulli numbers of the
# Euler-Maclaurin corrections
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730))
_ODD = 2 * np.arange(len(_BERNOULLI)) + 1
# the smallest argument at which _hurwitz_zeta meets double precision
ZETA_MIN_X = 33.0


def _zeta_weights(lead):
    """Row k, column j - 1: B_2j / (2j)! * s (s + 1) ... (s + 2j - 2), s = lead + k,
    rounded once from exact integers."""
    rows = []
    for s in range(lead, lead + LAURENT_ORDER):
        rising, row = s, []
        for j, (num, den) in enumerate(_BERNOULLI, start=1):
            row.append(num * rising / (den * math.factorial(2 * j)))
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        rows.append(row)
    return np.array(rows)


# the tails' leads: 3 for b/D^2, 2 for the pole part i a/(2 b D)
_ZETA_WEIGHTS = {lead: _zeta_weights(lead) for lead in (2, 3)}


def _hurwitz_zeta(lead, x):
    """Hurwitz zeta(lead + k, x) for k < LAURENT_ORDER, lead 2 or 3 and x > 0.

    Euler-Maclaurin summation of sum_{m>=0} (m + x)^-s with no direct terms
    (DLMF 25.11 and 2.10):

        zeta(s, x) = x^-s (x / (s - 1) + 1/2 + sum_{j=1}^{12} B_2j / (2j)!
                     s (s + 1) ... (s + 2j - 2) x^(1 - 2j)).

    The terms' derivatives keep one sign, so the remainder is at most the
    first omitted term (j = 13), below 1e-19 relative for s <= 26 at x >= 33;
    rounding leaves the result within 2 eps relative of the exact value.
    The domain is x >= ZETA_MIN_X = 33, which the mode-sum tails always
    meet: they call it with x = first - c, where first >= DIRECT_MODES + 1
    and every pole centre c <= 0.  A smaller x (a lowered MAX_MODE) is
    shifted into the domain by summing its first terms directly.
    """
    x = float(x)
    s = lead + _POWERS
    direct = 0.0
    if x < ZETA_MIN_X:
        terms = x + np.arange(math.ceil(ZETA_MIN_X - x))
        direct = np.sum(terms[:, None] ** -s, axis=0)
        x += len(terms)
    return direct + x ** -s * (x / (s - 1) + 0.5 + _ZETA_WEIGHTS[lead] @ x ** -_ODD)


def _rational_tail(kappa, zeros, poles, first):
    """Sum over beta >= first of kappa * prod(beta - zeros) / prod(beta - poles).

    The poles are real and lie below ``first``.  The function is expanded in
    powers of 1/t, t = beta - c, about the centre c of its poles; the series
    converges for |t| > R, the half-spread of the poles, and each power sums
    to a Hurwitz zeta value, evaluated by Euler-Maclaurin summation
    (:func:`_hurwitz_zeta`).  Expanding about the centre never forms the
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
    value = complex(series @ _hurwitz_zeta(lead, x))
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


def _mode_sum(setup, terms_of, alpha, modes, kernel, what):
    """Sum ``terms_of(betas)`` over the modes beta != alpha to infinity.

    With ``modes`` given, sums exactly those modes.  Otherwise sums modes
    1..B directly and adds the exact tail beyond B (:func:`_mode_tail`).
    B starts at the largest of DIRECT_MODES, alpha + 1 and PARTS_ORDER pole
    distances and doubles, up to MAX_MODE, until the tail's error bound is
    at most TAIL_TOL * |total|; a sum that reaches the cap without that
    warns.  Raises :class:`ParameterError` when alpha >= MAX_MODE (the tail
    beyond B would hold mode alpha), and :class:`ConvergenceError` when the
    direct sum, the tail or its bound is not finite.  Returns (total, report).
    """
    if modes is not None:
        betas = np.array(sorted({int(b) for b in modes} - {alpha}), dtype=int)
        return np.sum(terms_of(betas)), TruncationReport(len(betas), 0.0, True)
    if alpha >= MAX_MODE:
        raise ParameterError(f"probed mode {alpha} must lie below MAX_MODE = {MAX_MODE}")
    reach = math.ceil(-PARTS_ORDER * _pole_positions(setup)[1])
    stop = min(max(DIRECT_MODES, alpha + 1, reach), MAX_MODE)
    direct, start = 0.0, 1
    while True:
        betas = np.arange(start, stop + 1)
        direct = direct + np.sum(terms_of(betas[betas != alpha]))
        tail, bound = _mode_tail(setup, stop + 1, kernel)
        if not np.isfinite([direct, tail, bound]).all():
            raise ConvergenceError(
                f"{what} is not finite: direct sum {direct:.3g} over modes 1..{stop}, "
                f"tail {tail:.3g}, bound {bound:.3g}"
            )
        total = direct + tail
        converged = bool(bound <= TAIL_TOL * abs(total))
        if converged or stop == MAX_MODE:
            break
        start, stop = stop + 1, min(2 * stop, MAX_MODE)
    if not converged:
        warnings.warn(
            f"{what} hit max_mode={MAX_MODE} before its tail bound "
            f"{bound:.3g} met tail_tol={TAIL_TOL:g} relative "
            f"(tail added {abs(tail):.3g})",
            ProbeWarning,
            stacklevel=3,
        )
    return total, TruncationReport(stop, float(abs(tail)), converged, float(bound))


def counter_rotating_mode_sum(setup: ProbeSetup, alpha: int, modes=None):
    """Vacuum-fluctuation sum over modes beta != alpha of |X_{+,beta}|^2.

    Summed to infinity: modes 1..B directly, the rest as an exact tail (see
    :func:`_mode_sum`); warns when B reaches MAX_MODE before the tail's
    error bound meets TAIL_TOL relative.  With ``modes`` given, sums exactly
    those modes.  Returns (value, TruncationReport).
    """
    total, report = _mode_sum(
        setup, lambda betas: np.abs(_closed_array(setup, betas, +1)) ** 2,
        alpha, modes, False, "transition mode sum",
    )
    return float(total), report
