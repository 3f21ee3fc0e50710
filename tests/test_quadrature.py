"""The Fourier-Chebyshev quadrature oracle against QUADPACK, and its error estimate.

``x_quadrature`` and ``c_quadrature`` integrate a Chebyshev interpolant of
the envelope against exp(i a s) (``amplitudes._fourier_chebyshev``) as a sum
of its coefficients against exact Chebyshev moments of exp(i a s)
(``amplitudes._chebyshev_moments``).  Three references check it: the
QUADPACK path it replaced (weighted QAWO rules for the outer oscillation
and, for the kernel, a nested adaptive quadrature of the overlap K(s));
composite Gauss-Legendre for the moments; and, for the rule on a given
polynomial, its integration-by-parts sum in extended precision (mpmath).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import fockprobe
from fockprobe import (
    ConvergenceError,
    ParameterError,
    build_setup,
    c_closed,
    c_quadrature,
    x_closed,
    x_quadrature,
)
from fockprobe import amplitudes, kernels
from fockprobe.amplitudes import (
    INTERPOLANT_MARGIN,
    MOMENT_MARGIN,
    TURNING_WIDTHS,
    _chebyshev_coefficients,
    _chebyshev_moments,
    _fourier_chebyshev,
    _lobatto_nodes,
    _transit_phases,
)


def quadpack_fourier(envelope, a, quad_tol, limit, maxp1):
    """Integral_0^1 exp(i a x) envelope(x) dx by QUADPACK; returns (value, error).

    Re and Im are each asked for ``quad_tol / 2``.  Below |a| = 1e-6 the
    cos/sin factor is integrated with the envelope, above it QUADPACK's
    weighted rule takes it; a < 0 follows by conjugation.
    """
    aa = abs(a)
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


def quadpack_x(setup, beta, sign, quad_tol=1e-10):
    a, b = _transit_phases(setup, beta, sign)
    T = setup.crossing_time
    integral, err = quadpack_fourier(lambda x: np.sin(b * x), a, quad_tol, 800, 100)
    assert err <= quad_tol * max(abs(integral), math.sqrt(b))
    return T * integral / np.sqrt(b)


def quadpack_c(setup, beta, sign, quad_tol=1e-9):
    a, b = _transit_phases(setup, beta, sign)
    T = setup.crossing_time

    def overlap(s):
        return quad(lambda r: np.sin(b * (r + s)) * np.sin(b * r), 0.0, 1.0 - s,
                    epsabs=1e-14, epsrel=1e-12, limit=60 + 10 * beta)[0]

    integral, err = quadpack_fourier(overlap, a, quad_tol, 3000, 120)
    assert err <= quad_tol * max(abs(integral), 1e-3)
    return T * T * integral


def natural_at(beta, a, length=1.0, speed=1e-4):
    """Natural-units setup whose rotating-sign transit phase for mode beta is a."""
    T = length / speed
    gap = beta * math.pi / length - a / T
    return build_setup(length, speed, light_speed=1.0, atom_gap=gap,
                       coupling_ratio=1e-4, unit_mode="natural")


def summed_check_point(beta, a):
    # the three rotating-sign points of test_kernels' summed-error check
    return natural_at(beta, a, length=1.988, speed=0.01288)


def resonant(alpha):
    return build_setup(1.0, 1e-3, light_speed=1.0, resonant_with_mode=alpha,
                       coupling_ratio=1e-4, unit_mode="natural")


MICROCAVITY = build_setup(1e-6, 1000.0, resonant_with_mode=2, coupling_ratio=1e-4)


def degrees(beta):
    """Interpolant degrees D of X (sin(b x)) and of C (the overlap K) for mode beta."""
    return int(beta * math.pi) + INTERPOLANT_MARGIN, int(2 * beta * math.pi) + INTERPOLANT_MARGIN


# (setup, beta, sign): the small-|a| points, criterion 3's exact zeros, the SI
# microcavity where |a| ~ 1e6 and every moment comes from the forward
# recurrence, |a| up to 2500, and |a| = 2D -/+ 3 for either interpolant's
# degree D, where the moment w = a/2 crosses the degree and the forward
# recurrence hands the moments above |w| to the boundary-value solve
GRID = [
    *[(summed_check_point(beta, a), beta, -1) for beta, a in [(4, 9.21), (2, 4.42), (3, 0.81)]],
    *[(resonant(alpha), alpha, -1) for alpha in (2, 4, 6)],
    *[(MICROCAVITY, beta, sign) for beta in (2, 3) for sign in (+1, -1)],
    *[(natural_at(1, a), 1, -1) for a in (1900.0, -1990.0, 2100.0, 2200.0, -2500.0)],
    *[(natural_at(beta, sign * (2 * degree + offset)), beta, -1)
      for beta in (1, 4) for degree in sorted(set(degrees(beta)))
      for sign, offset in ((+1, -3), (-1, +3))],
]


@pytest.mark.parametrize("setup, beta, sign", GRID)
def test_fourier_chebyshev_matches_quadpack(setup, beta, sign):
    T = setup.crossing_time
    x_ref, c_ref = quadpack_x(setup, beta, sign), quadpack_c(setup, beta, sign)
    assert abs(x_quadrature(setup, beta, sign) - x_ref) <= 1e-10 * max(abs(x_ref), T)
    assert abs(c_quadrature(setup, beta, sign) - c_ref) <= 1e-9 * max(abs(c_ref), 1e-3 * T * T)


def leggauss_moments(w, degree, nodes=48):
    """Integral_{-1}^{1} T_k(t) e^{iwt} dt, k <= degree, by composite Gauss-Legendre.

    2^m equal panels, each spanning at most 8 radians of w t; the panel
    centres are dyadic, so w times a centre is exact and the phase of every
    node rounds only in its offset from the centre."""
    panels = 1 << math.ceil(math.log2(1.0 + abs(w) / 8.0 + degree / 8.0))
    t, weights = np.polynomial.legendre.leggauss(nodes)
    half = 1.0 / panels
    local = np.exp(1j * w * half * t) * weights * half
    moments = np.zeros(degree + 1, dtype=complex)
    for first in range(0, panels, 256):
        centres = -1.0 + (2.0 * np.arange(first, min(first + 256, panels)) + 1.0) * half
        x = (centres[:, None] + half * t).ravel()
        phases = (np.exp(1j * w * centres)[:, None] * local).ravel()
        values = np.polynomial.chebyshev.chebvander(x, degree)
        moments += phases.real @ values + 1j * (phases.imag @ values)
    return moments


@pytest.mark.parametrize("degree, w", [
    (degree, w) for degree in (41, 65, 291)
    for w in (0.0, 1e-12, -1e-12, 0.5, -0.5, degree - 0.5, degree + 0.5, 300.0, -2500.0, 3.0e4)
])
def test_moments_match_gauss_legendre(degree, w):
    moments = _chebyshev_moments(w, degree)
    assert moments.shape == (degree + 1,)
    # the reference rounds at ~eps of the integrand's scale, 2
    np.testing.assert_allclose(moments, leggauss_moments(w, degree), rtol=0, atol=1e-14)


def test_moments_are_exact_at_zero_phase():
    # mu_k(0) = 2 / (1 - k^2) for even k and 0 for odd k: Clenshaw-Curtis
    even = np.arange(0, 66, 2)
    exact = np.zeros(66)
    exact[even] = 2.0 / (1.0 - even * even)
    np.testing.assert_allclose(_chebyshev_moments(0.0, 65), exact, rtol=4e-16, atol=0)


@pytest.mark.parametrize("w", [1990.0, 1999.5, -1990.0])
def test_terminal_margin_is_converged(monkeypatch, w):
    # the boundary-value solve cut at K = D + MOMENT_MARGIN + ceil(TURNING_WIDTHS
    # |w|^(1/3)): doubling K leaves every moment bit for bit, while the fixed
    # margin alone, K = D + 40, is visibly short at the turning point
    degree = 2000
    top = degree + MOMENT_MARGIN + math.ceil(TURNING_WIDTHS * abs(w) ** (1.0 / 3.0))
    moments = _chebyshev_moments(w, degree)
    monkeypatch.setattr(amplitudes, "MOMENT_MARGIN", MOMENT_MARGIN + top)
    np.testing.assert_array_equal(_chebyshev_moments(w, degree), moments)
    monkeypatch.setattr(amplitudes, "MOMENT_MARGIN", MOMENT_MARGIN)
    monkeypatch.setattr(amplitudes, "TURNING_WIDTHS", 0.0)
    assert np.max(np.abs(_chebyshev_moments(w, degree) - moments)) > 1e-9


def extended_fourier(coefs, a):
    """Integral_0^1 p(s) e^{ias} ds of p = Sum_n coefs[n] T_n(2s - 1), in mpmath.

    The integration-by-parts sum Sum_j (-1)^j [p^(j)(t) e^{iwt}]_{-1}^{1} /
    (iw)^(j+1), w = a/2, finite for a polynomial and summed to the end, with
    T_n^(j)(1) = prod_{i<j} (n^2 - i^2) / (2i + 1) and T_n^(j)(-1) =
    (-1)^(n+j) T_n^(j)(1); 30 digits beyond its largest term.
    """
    mpmath = pytest.importorskip("mpmath")
    w = 0.5 * a
    degree = len(coefs) - 1
    growth, largest = 0.0, 0.0
    for j in range(degree):
        growth += math.log10((degree * degree - j * j) / ((2 * j + 1) * abs(w)))
        largest = max(largest, growth)
    with mpmath.workdps(30 + math.ceil(largest)):
        c = [mpmath.mpf(float(x)) for x in coefs]
        derivative = [mpmath.mpf(1)] * len(c)  # T_n^(j)(1)
        iw = mpmath.mpc(0, w)
        ends = (mpmath.expj(w), mpmath.expj(-w))
        total = mpmath.mpc(0)
        for j in range(len(c)):
            right = mpmath.fsum(x * d for x, d in zip(c, derivative))
            left = mpmath.fsum((-1) ** (n + j) * x * d
                               for n, (x, d) in enumerate(zip(c, derivative)))
            total += (-1) ** j * (right * ends[0] - left * ends[1]) / iw ** (j + 1)
            derivative = [d * (n * n - j * j) / (2 * j + 1) for n, d in enumerate(derivative)]
        return complex(total * ends[0] / 2)


@pytest.mark.parametrize("a", [2500.0, -3000.0, 6000.0, 2.0e4])
def test_moment_rule_matches_an_extended_precision_integral(a):
    # a degree-52 interpolant, as for the overlap of mode 2; the estimate is
    # mostly the rounding floor, since this p's last coefficients are tiny
    nodes = _lobatto_nodes(52)
    coefs = _chebyshev_coefficients(np.sin(math.pi * (1.0 + nodes)) * (1.0 - nodes))
    value, err = _fourier_chebyshev(coefs, a)
    assert abs(value - extended_fourier(coefs, a)) <= err <= 1e-15


# Integer beta: sin(b s) vanishes at both ends, so every even term of X's
# expansion in 1/a is zero, and K'(0) = K'(1) = 0, so the second term of C's
# is.  A large-|a| rule that stopped on one small term would drop the next
# one, (b/a)^2 of the value.
@pytest.mark.parametrize("beta, a", [(2, 5000.0), (3, -8000.0), (1, 2.5e4), (4, 1.0e5)])
def test_by_parts_series_does_not_stop_on_a_vanishing_term(beta, a):
    setup = natural_at(beta, a)
    T = setup.crossing_time
    x = x_closed(setup, beta, -1)
    c = c_closed(setup, beta, -1)
    assert abs(x_quadrature(setup, beta, -1) - x) <= 1e-10 * abs(x)
    assert abs(c_quadrature(setup, beta, -1) - c) <= 1e-10 * abs(c)
    assert abs(c) < 1e-3 * T * T  # the relative bound, not the 1e-3 T^2 floor, is binding


@pytest.mark.parametrize("a", [0.0, 300.0, 4000.0, -1.0e6])
def test_estimate_carries_the_interpolant_tail(a):
    # an interpolant that does not resolve its envelope: the moment rule
    # integrates the polynomial itself accurately, only its last
    # coefficients reveal the gap
    b = 9 * math.pi
    nodes = _lobatto_nodes(18)
    coefs = _chebyshev_coefficients(np.sin(0.5 * b * (1.0 + nodes)))
    _, err = _fourier_chebyshev(coefs, a)
    assert err >= abs(coefs[-2]) + abs(coefs[-1]) > 1e-3


@pytest.mark.parametrize("module, quadrature, margin", [
    (amplitudes, x_quadrature, -10),
    (kernels, c_quadrature, -30),
])
@pytest.mark.parametrize("sign", [+1, -1])
def test_unresolved_interpolant_raises(monkeypatch, module, quadrature, margin, sign):
    monkeypatch.setattr(module, "INTERPOLANT_MARGIN", margin)
    with pytest.raises(ConvergenceError):
        quadrature(resonant(2), 9, sign)


# Both interpolants depend on the mode alone: sin(b x) for X, the overlap K(s)
# for C, each on floor(b) or floor(2 b) + INTERPOLANT_MARGIN + 1 nodes.
@pytest.mark.parametrize("quadrature, cached, phase_multiple", [
    (x_quadrature, amplitudes._envelope_coefficients, 1),
    (c_quadrature, kernels._overlap_coefficients, 2),
], ids=["envelope", "overlap"])
def test_interpolant_is_built_once_per_mode(quadrature, cached, phase_multiple):
    beta = 3
    degree = int(phase_multiple * beta * math.pi) + INTERPOLANT_MARGIN
    cached.cache_clear()
    setups = [natural_at(beta, 20.0), natural_at(beta, 300.0, speed=1e-2), MICROCAVITY]
    for setup in setups:
        for sign in (+1, -1):
            quadrature(setup, beta, sign)
    info = cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 5, 1)
    coefficients = cached(beta, degree)
    assert not coefficients.flags.writeable
    with pytest.raises(ValueError):
        coefficients[0] = 0.0
    np.testing.assert_array_equal(coefficients, cached.__wrapped__(beta, degree))


@pytest.mark.parametrize("quadrature", [x_quadrature, c_quadrature])
@pytest.mark.parametrize("quad_tol", [0.1, 1.0, 1e300, math.inf, math.nan, 0.0, -1e-10])
def test_unusable_quad_tol_is_refused(quadrature, quad_tol):
    # at 0.1 and above an estimate of a tenth of the value would certify it
    with pytest.raises(ParameterError, match="quad_tol must be positive and below 0.1"):
        quadrature(MICROCAVITY, 2, +1, quad_tol=quad_tol)


@pytest.mark.parametrize("quadrature", [x_quadrature, c_quadrature])
@pytest.mark.parametrize("sign", [+1, -1])
def test_non_finite_phase_is_a_convergence_error(quadrature, sign):
    # omega T overflows: a = +/-inf, where no moment exists
    setup = build_setup(1.0, 1e-3, light_speed=1.0, atom_gap=1e308,
                        coupling_ratio=0.0, unit_mode="natural")
    assert math.isinf(_transit_phases(setup, 1, sign)[0])
    with pytest.raises(ConvergenceError, match="transit phase -?inf is not finite"):
        quadrature(setup, 1, sign)


def test_wide_overlap_is_split_into_panels():
    # b = 60 pi spans three inner panels of INNER_PHASE = 64
    setup = natural_at(60, 150.0)
    c = c_closed(setup, 60, -1)
    assert abs(c_quadrature(setup, 60, -1) - c) <= 1e-9 * abs(c)


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate pulls in scipy.optimize and scipy.linalg: ~0.15 s of
    # start-up and ~24 MB of resident memory that no subcommand needs
    src = str(Path(fockprobe.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = "import sys, fockprobe.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_package_import_leaves_scipy_out():
    # scipy.special (zeta) and scipy.sparse (the oracle) cost ~0.2 s of start-up
    src = str(Path(fockprobe.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, fockprobe, fockprobe.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("quadrature, beta, a", [
    (c_quadrature, 5000, 100.0),       # 31457 overlap nodes x 96 inner nodes
    (x_quadrature, 340_000, 1.0e6),    # 1068182 envelope nodes
])
def test_oversized_quadrature_is_refused_before_allocating(quadrature, beta, a):
    with pytest.raises(ConvergenceError, match="samples in one array"):
        quadrature(natural_at(beta, a), beta, -1)


def test_high_mode_at_large_phase_matches_closed_form():
    # a degree-19832 envelope at |w| = 5e5, every moment from the forward
    # recurrence.  |X| ~ 5e-11 T: the integrand's scale is T, and the closed
    # form's own rounding in the phase a ~ 1e6 is ~1e-10 of |X|, so the two
    # agree on the scale of x_quadrature's tolerance, max(|X|, T) = T
    setup = natural_at(6300, 1.0e6)
    T = setup.crossing_time
    x = x_closed(setup, 6300, -1)
    assert abs(x_quadrature(setup, 6300, -1) - x) <= 1e-17 * T
