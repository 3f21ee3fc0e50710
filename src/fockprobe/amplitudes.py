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

import cmath
import math
import warnings

import numpy as np
from scipy.special import zeta

from .model import ParameterError, ProbeSetup, ProbeWarning, TruncationReport


class ConvergenceError(RuntimeError):
    """Numerical integration or summation failed to reach its tolerance."""


def _check_mode_sign(beta, sign):
    if beta != int(beta) or beta < 1:
        raise ParameterError(f"mode index must be a positive integer, got {beta}")
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign!r}")


def _check_quad_tol(quad_tol):
    # written as "not (...)" so that NaN is rejected too
    if not 0.0 < quad_tol < math.inf:
        raise ParameterError(f"quad_tol must be finite and positive, got {quad_tol}")


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


def _chebyshev_values(coefs, degree):
    """Values of the Chebyshev series ``coefs`` at the ascending Lobatto nodes
    of ``degree`` >= len(coefs) - 1."""
    padded = np.zeros(degree + 1, dtype=coefs.dtype)
    padded[:len(coefs)] = coefs
    ends = padded[0] + padded[-1] * (-1.0) ** np.arange(degree + 1)
    return ((_cosine_transform(padded) + ends) / 2.0)[::-1]


# Interpolant degree past the envelope's phase (floor(b) for sin(b x),
# floor(2 b) for the overlap K), the least |a| at which the by-parts series
# may replace the Clenshaw-Curtis product rule, the Clenshaw-Curtis margin
# past the product's degree, the rounding floor of either rule in units of
# its rounding scale (the product rule was measured at up to 20 eps Sum |c_k|
# against the by-parts series for N <= 2^15; QUADPACK's floor is 50 eps),
# and the most samples one quadrature evaluates in one array.
INTERPOLANT_MARGIN = 40
BYPARTS_PHASE = 2000.0
PRODUCT_MARGIN = 40
ROUNDING = 50.0
SAMPLE_CAP = 1 << 20
_I_POWERS = (1.0, 1j, -1.0, -1j)


def _check_samples(count):
    if count > SAMPLE_CAP:
        raise ConvergenceError(
            f"quadrature would need {count} samples in one array, above the "
            f"cap of {SAMPLE_CAP}"
        )


def _amplification(degree, a):
    """Bound on max_k 2^k T_n^(k)(1) / |a|^k over n <= degree: the most a
    by-parts term weighs a coefficient, prod_j max(1, 2 D^2 / ((2j + 1) |a|)).
    Stops once it reaches |a|, where the product rule rounds better."""
    amplification, j = 1.0, 0
    while amplification < abs(a):
        factor = 2.0 * degree * degree / ((2 * j + 1) * abs(a))
        if factor <= 1.0:
            break
        amplification *= factor
        j += 1
    return amplification


def _fourier_chebyshev(coefs, a):
    """Integral_0^1 p(s) exp(i a s) ds for p(s) = Sum_k coefs[k] T_k(2 s - 1).

    Returns (value, error_estimate).  The estimate has three parts: the
    interpolant's last two coefficients (how far p may be from the function
    it samples), the outer rule's truncation estimate and its rounding
    floor.  With D = len(coefs) - 1 and c = Sum_k |coefs[k]| >= max |p|:

    * Clenshaw-Curtis on the product.  With w = a/2 the integral is e^{iw}/2
      times the integral of p(t) e^{iwt} over [-1, 1]; the product is
      resampled by FFT on N + 1 Lobatto nodes, N >= D + 1.5|w| +
      PRODUCT_MARGIN a power of two, and integrated term by term,
      2 c_k / (1 - k^2) over even k.  Truncation: the product's last two
      coefficients.  Rounding: ROUNDING eps c, since a sum over oscillating
      samples rounds relative to max |p|, not to the (small) integral.
      Raises :class:`ConvergenceError` past SAMPLE_CAP nodes.
    * Integration by parts, Sum_k (-1)^k [p^(k) e^{ias}]_0^1 / (ia)^(k+1),
      finite for a polynomial, where |a| > BYPARTS_PHASE and its rounding
      floor ROUNDING A eps c / |a| is the lower one, A being the most a
      term weighs a coefficient (:func:`_amplification`; A <= 2 once
      |a| >= D^2).  Summing stops once two consecutive terms fall below that
      floor, and their sum is the truncation estimate: one small term is not
      enough, since a term can vanish on its own (for integer beta,
      K'(0) = K'(1) = 0).
    """
    degree = len(coefs) - 1
    scale = np.finfo(float).eps * np.sum(np.abs(coefs))
    interpolant = abs(coefs[-2]) + abs(coefs[-1])
    amplification = _amplification(degree, a)
    if abs(a) > BYPARTS_PHASE and amplification < abs(a):
        rounding = ROUNDING * amplification * scale / abs(a)
        value, truncation = _by_parts(coefs, a, rounding)
    else:
        w = 0.5 * a
        size = 1 << math.ceil(math.log2(degree + 1.5 * abs(w) + PRODUCT_MARGIN))
        _check_samples(size + 1)
        nodes = _lobatto_nodes(size)
        product = _chebyshev_coefficients(_chebyshev_values(coefs, size) * np.exp(1j * w * nodes))
        even = np.arange(0, size + 1, 2)
        value = cmath.exp(1j * w) * (product[::2] @ (1.0 / (1.0 - even * even)))
        truncation = abs(product[-2]) + abs(product[-1])
        rounding = ROUNDING * scale
    return complex(value), float(interpolant + truncation + rounding)


def _by_parts(coefs, a, floor):
    """Integration-by-parts series of :func:`_fourier_chebyshev`, summed until
    two consecutive terms add up to at most ``floor``; returns (value, their sum).

    Term k is -i^(k+1) [e^{ia} p^(k)(1) - p^(k)(0)] / a^(k+1), and the
    scaled derivatives come from T_n^(k)(1) = prod_{j<k} (n^2 - j^2) /
    (2j + 1), T_n^(k)(-1) = (-1)^(n+k) T_n^(k)(1), and d/ds = 2 d/dt.
    """
    n = np.arange(len(coefs))
    alternating = coefs * (-1.0) ** n
    weights = np.ones(len(coefs))  # 2^k T_n^(k)(1) / a^k
    end = cmath.exp(1j * a)
    total, last, previous = 0j, math.inf, math.inf
    for k in range(len(coefs)):
        right, left = coefs @ weights, alternating @ weights
        term = -1j * _I_POWERS[k % 4] / a * (end * right - (-1.0) ** k * left)
        total += term
        previous, last = last, abs(term)
        if previous + last <= floor:
            break
        weights *= 2.0 * (n * n - k * k) / ((2 * k + 1) * a)
    return total, previous + last


def x_quadrature(setup: ProbeSetup, beta: int, sign: int, quad_tol: float = 1e-10) -> complex:
    """Transit amplitude by numerical integration (oracle path).

    Interpolates the envelope sin(b x) on floor(b) + INTERPOLANT_MARGIN + 1
    Chebyshev-Lobatto nodes and integrates it against exp(i a x) with
    :func:`_fourier_chebyshev`, independent of :func:`x_closed`.  Raises
    :class:`ConvergenceError` when the error estimate exceeds
    ``quad_tol * max(|X|, T)``.
    """
    _check_mode_sign(beta, sign)
    _check_quad_tol(quad_tol)
    a, b = _transit_phases(setup, beta, sign)
    T = setup.crossing_time
    degree = int(b) + INTERPOLANT_MARGIN
    _check_samples(degree + 1)
    nodes = _lobatto_nodes(degree)
    integral, err = _fourier_chebyshev(_chebyshev_coefficients(np.sin(0.5 * b * (1.0 + nodes))), a)
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
