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
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .amplitudes import (
    ConvergenceError,
    _check_mode_sign,
    _closed_array,
    _fourier_quad,
    _mode_sum,
    _sinc,
    _transit_phases,
)
from .model import (
    DEFAULT_POLICY,
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    TruncationPolicy,
)


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


def c_quadrature(
    setup: ProbeSetup,
    beta: int,
    sign: int,
    quad_tol: float = 1e-9,
    max_intervals: int = 3000,
) -> complex:
    """Kernel by nested numerical integration (oracle path).

    Reduces the ordered double integral with the substitution s = t - t' to

        C = T^2 * Integral_0^1 ds exp(i a s) K(s),
        K(s) = Integral_0^{1-s} sin(b(r+s)) sin(br) dr,

    then integrates the outer oscillation with QUADPACK's weighted scheme and
    the slow inner overlap numerically, independent of the closed form.  Each
    of Re and Im is asked for ``quad_tol / 2``, so that their summed error
    estimates meet the check: :class:`ConvergenceError` when they exceed
    ``quad_tol * max(|C|, 1e-3 T^2)``.
    """
    _check_mode_sign(beta, sign)
    if quad_tol <= 0:
        raise ParameterError(f"quad_tol must be positive, got {quad_tol}")
    T = setup.crossing_time
    a, b = _transit_phases(setup, beta, sign)
    inner_limit = 60 + 10 * beta

    def K(s):
        val, _ = quad(
            lambda r: np.sin(b * (r + s)) * np.sin(b * r),
            0.0,
            1.0 - s,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=inner_limit,
        )
        return val

    integral, err = _fourier_quad(K, a, quad_tol, max_intervals, 120)
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


def mode_sum_offres(
    setup: ProbeSetup,
    prep: FieldPreparation,
    policy: TruncationPolicy = DEFAULT_POLICY,
    modes=None,
):
    """Off-resonant kernel sum  Sum_{beta != alpha} conj(C_{+,beta}) / (k_beta L).

    The n-independent second-order contribution to the survival amplitude,
    summed to infinity: modes 1..B directly, the rest as an exact tail (its
    rational part by Hurwitz zeta values, its oscillating part by summation
    by parts; see ``amplitudes._mode_sum``).  Warns when B reaches
    ``policy.max_mode`` before the tail's error bound meets
    ``policy.tail_tol`` relative.  With ``modes`` given, sums exactly those
    modes.  Returns (value, TruncationReport).
    """
    total, report = _mode_sum(
        setup, lambda betas: np.conj(_closed_array(setup, betas, +1, _reduced_kernel, 2))
        / (betas * np.pi),
        prep.mode, policy, modes, True, "off-resonant kernel sum",
    )
    return complex(total), report
