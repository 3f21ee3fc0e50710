"""Second-order transit kernels: the nested double-time integrals.

For mode ``beta`` and sign ``s`` the kernel is

    C_{s,beta} = Integral_0^T dt Integral_0^t dt' exp(i (omega_beta + s Omega)(t-t'))
                 * sin(k_beta v t) sin(k_beta v t'),

the object whose diagonal combination fixes the survival amplitude (and hence
the acquired phase) at second order.  In the transit phases a, b of
:mod:`.amplitudes` it evaluates exactly, for a >= 0, to

    C = T^2 * [ b^2 S(u/2)^2 + i (2 b^2 r(u) + 3 b + u) ] / (2 (a + b)^2),

with u = a - b, S(x) = sin(x)/x and r(u) = (u - sin u)/u^2.  As with the
first-order amplitude this form is algebraically identical to the textbook
two-term expression (oscillatory ratio plus imaginary pole term) but remains
stable through the removable singularities a -> +/- b; C(-a) = conj(C(a)).

The oracle :func:`c_quadrature` shares nothing with the closed form: it
evaluates the overlap K(s) of the two envelopes by Gauss-Legendre at the
Chebyshev-Lobatto nodes of s and integrates the interpolant against
exp(i a s) with the Fourier-Chebyshev rule of :mod:`.amplitudes`
(Clenshaw-Curtis on the product, or the by-parts series at large |a|).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .amplitudes import (
    INTERPOLANT_MARGIN,
    ConvergenceError,
    _check_mode_sign,
    _check_quad_tol,
    _check_samples,
    _chebyshev_coefficients,
    _closed_array,
    _fourier_chebyshev,
    _lobatto_nodes,
    _mode_sum,
    _sinc,
    _transit_phases,
)
from .model import FieldPreparation, ParameterError, ProbeSetup


def _sin_deficit(u):
    """(u - sin u) / u^2, series-stabilized near zero."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 0.1
    us = np.where(small, u, 1.0)
    u2 = us * us
    series = us / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0 * (1.0 - u2 / 72.0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (u - np.sin(u)) / (u * u)
    return np.where(small, series, direct)


def _reduced_kernel(a, b):
    """C / T^2 for a >= 0 elementwise."""
    u = a - b
    bracket = b * b * _sinc(u / 2.0) ** 2 + 1j * (2.0 * b * b * _sin_deficit(u) + 3.0 * b + u)
    return bracket / (2.0 * (a + b) ** 2)


def c_closed(setup: ProbeSetup, beta: int, sign: int) -> complex:
    """Closed-form kernel C_{sign,beta} (units of time squared).

    Valid on and off resonance (the atom gap enters only through the transit
    phase a); exactly zero for the rotating sign on an even resonant mode.
    """
    _check_mode_sign(beta, sign)
    return complex(_closed_array(setup, np.array([beta]), sign, _reduced_kernel, 2)[0])


# Gauss-Legendre nodes of the inner overlap rule, and the most phase b (1 - s)
# one application of it spans; longer overlaps are split into equal panels.
INNER_NODES = 96
INNER_PHASE = 64.0


@cache
def _inner_rule():
    return np.polynomial.legendre.leggauss(INNER_NODES)


def _overlap(b, s):
    """K(s) = Integral_0^{1-s} sin(b(r+s)) sin(br) dr at every s, by Gauss-Legendre.

    ceil(b / INNER_PHASE) equal panels of INNER_NODES nodes each: on a panel
    the integrand's fastest phase in the panel variable, b (1 - s) / panels,
    stays within INNER_PHASE radians, where a rule exact to degree 191 errs
    far below rounding.
    """
    tau, weights = _inner_rule()
    panels = math.ceil(b / INNER_PHASE)
    length = (1.0 - s)[:, None] / panels
    total = np.zeros(len(s))
    for panel in range(panels):
        r = length * (panel + 0.5 * (1.0 + tau))
        total += (np.sin(b * (r + s[:, None])) * np.sin(b * r)) @ weights
    return 0.5 * length[:, 0] * total


def c_quadrature(setup: ProbeSetup, beta: int, sign: int, quad_tol: float = 1e-9) -> complex:
    """Kernel by nested numerical integration (oracle path).

    Reduces the ordered double integral with the substitution s = t - t' to

        C = T^2 * Integral_0^1 ds exp(i a s) K(s),
        K(s) = Integral_0^{1-s} sin(b(r+s)) sin(br) dr,

    evaluates the overlap K by Gauss-Legendre (:func:`_overlap`) on the
    floor(2b) + INTERPOLANT_MARGIN + 1 Chebyshev-Lobatto nodes, and
    integrates its interpolant against exp(i a s) with
    ``amplitudes._fourier_chebyshev``, independent of the closed form.
    Raises :class:`ConvergenceError` when the error estimate exceeds
    ``quad_tol * max(|C|, 1e-3 T^2)``.
    """
    _check_mode_sign(beta, sign)
    _check_quad_tol(quad_tol)
    T = setup.crossing_time
    a, b = _transit_phases(setup, beta, sign)
    degree = int(2.0 * b) + INTERPOLANT_MARGIN
    _check_samples((degree + 1) * INNER_NODES)
    s = 0.5 * (1.0 + _lobatto_nodes(degree))
    integral, err = _fourier_chebyshev(_chebyshev_coefficients(_overlap(b, s)), a)
    value = T * T * integral
    err = T * T * err
    bound = quad_tol * max(abs(value), T * T * 1e-3)
    if err > bound:
        raise ConvergenceError(
            f"kernel quadrature (beta={beta}, sign={sign:+d}) error estimate "
            f"{err:.3g} exceeds tolerance {bound:.3g}"
        )
    return complex(value)


def c_resonant_nonrel(setup: ProbeSetup, alpha: int) -> complex:
    """Non-relativistic limit of the counter-rotating resonant kernel.

    For even alpha at resonance and v/c << 1:  C_{+,alpha} ~ i L^2 / (4 pi alpha c v).
    Feeds the linear phase-difference estimate.
    """
    if alpha != int(alpha) or alpha < 1 or alpha % 2 != 0:
        raise ParameterError(f"resonant non-relativistic form needs an even mode, got {alpha}")
    L, c, v = setup.cavity_length, setup.light_speed, setup.atom_speed
    return 1j * L * L / (4.0 * np.pi * alpha * c * v)


def mode_sum_offres(setup: ProbeSetup, prep: FieldPreparation, modes=None):
    """Off-resonant kernel sum  Sum_{beta != alpha} conj(C_{+,beta}) / (k_beta L).

    The n-independent second-order contribution to the survival amplitude,
    summed to infinity: modes 1..B directly, the rest as an exact tail (its
    rational part by Hurwitz zeta values, its oscillating part by summation
    by parts; see ``amplitudes._mode_sum``).  Warns when B reaches
    ``amplitudes.MAX_MODE`` before the tail's error bound meets
    ``amplitudes.TAIL_TOL`` relative.  With ``modes`` given, sums exactly
    those modes.  Returns (value, TruncationReport).
    """
    total, report = _mode_sum(
        setup, lambda betas: np.conj(_closed_array(setup, betas, +1, _reduced_kernel, 2))
        / (betas * np.pi),
        prep.mode, modes, True, "off-resonant kernel sum",
    )
    return complex(total), report
