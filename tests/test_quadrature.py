"""The Fourier-Chebyshev quadrature oracle against QUADPACK, and its error estimate.

``x_quadrature`` and ``c_quadrature`` integrate a Chebyshev interpolant of
the envelope against exp(i a s) (``amplitudes._fourier_chebyshev``).  The
QUADPACK path they replaced lives on here as an independent reference:
weighted QAWO rules for the outer oscillation and, for the kernel, a nested
adaptive quadrature of the overlap K(s).
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
    build_setup,
    c_closed,
    c_quadrature,
    x_closed,
    x_quadrature,
)
from fockprobe import amplitudes, kernels
from fockprobe.amplitudes import (
    INTERPOLANT_MARGIN,
    _chebyshev_coefficients,
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

# (setup, beta, sign): the small-|a| points, criterion 3's exact zeros, the SI
# microcavity where |a| ~ 1e6, and |a| on both sides of the switch at 2000
# between the Clenshaw-Curtis rule and the by-parts series
GRID = [
    *[(summed_check_point(beta, a), beta, -1) for beta, a in [(4, 9.21), (2, 4.42), (3, 0.81)]],
    *[(resonant(alpha), alpha, -1) for alpha in (2, 4, 6)],
    *[(MICROCAVITY, beta, sign) for beta in (2, 3) for sign in (+1, -1)],
    *[(natural_at(1, a), 1, -1) for a in (1900.0, -1990.0, 2100.0, 2200.0, -2500.0)],
]


@pytest.mark.parametrize("setup, beta, sign", GRID)
def test_fourier_chebyshev_matches_quadpack(setup, beta, sign):
    T = setup.crossing_time
    x_ref, c_ref = quadpack_x(setup, beta, sign), quadpack_c(setup, beta, sign)
    assert abs(x_quadrature(setup, beta, sign) - x_ref) <= 1e-10 * max(abs(x_ref), T)
    assert abs(c_quadrature(setup, beta, sign) - c_ref) <= 1e-9 * max(abs(c_ref), 1e-3 * T * T)


@pytest.mark.parametrize("a", [2500.0, -3000.0, 6000.0, 2.0e4])
def test_both_outer_rules_agree_where_either_applies(monkeypatch, a):
    # a degree-52 interpolant, as for the overlap of mode 2: the by-parts
    # series against the Clenshaw-Curtis rule on the same p
    nodes = _lobatto_nodes(52)
    coefs = _chebyshev_coefficients(np.sin(math.pi * (1.0 + nodes)) * (1.0 - nodes))
    series, series_err = _fourier_chebyshev(coefs, a)
    monkeypatch.setattr(amplitudes, "BYPARTS_PHASE", math.inf)
    product, product_err = _fourier_chebyshev(coefs, a)
    # the product rule rounds at ~eps of max |p| ~ 1, not of the small
    # integral, and its estimate says so; the series rounds relative to p / |a|
    assert abs(series - product) <= product_err <= 1e-13
    assert series_err < 1e-2 * product_err


# Integer beta: sin(b s) vanishes at both ends, so every even by-parts term of
# X is zero, and K'(0) = K'(1) = 0, so the k = 1 term of C is.  A series that
# stopped on one small term would drop the next one, (b/a)^2 of the value.
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
    # an interpolant that does not resolve its envelope: the outer rules
    # integrate the polynomial itself accurately, only its last
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
    (c_quadrature, 5000, 100.0),   # 31457 overlap nodes x 96 inner nodes
    (x_quadrature, 6300, 1.0e6),   # by parts would round badly; 2^20 + 1 product nodes
])
def test_oversized_quadrature_is_refused_before_allocating(quadrature, beta, a):
    with pytest.raises(ConvergenceError, match="samples in one array"):
        quadrature(natural_at(beta, a), beta, -1)
