"""Checks of every op's output, made outside the timed region.

Each check returns a list of problems; an empty list means the output is
right.  The references here are computed by the benchmark itself from the
textbook formulas, never taken from the program or from a stored copy of an
earlier output:

* ``reference_amplitude``: the second-order survival amplitude A(n) built
  from the textbook two-term kernel (oscillatory ratio plus imaginary pole
  term, see the ``kernels`` module docstring), summed directly to
  ``REFERENCE_MODES`` and closed with the exact integral of the pole term
  beyond it.
* ``linear_delta_gamma``: the few-photon estimate lambda^2 L^2 m / (4 pi^2
  alpha^2 c v).
* properties of the method: A(n) is affine in n, phase differences add up,
  halving the coupling shrinks the oracle mismatch sixteenfold, closed forms
  agree with QUADPACK within the criterion 1 and 2 budgets.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import C_SI

# Modes summed term by term; the pole-term integral closes the sum beyond.
REFERENCE_MODES = 4096
# gamma and visibility may deviate from the reference by this multiple of
# the mode-sum tail the program leaves out (it sums to modes_evaluated).
TAIL_MARGIN = 2.0
LINEAR_REGIME_TOL = 0.01        # criterion 6
ORACLE_HALVING = (16.0 / 1.3, 16.0 * 1.3)  # criterion 8
X_BUDGET = 1e-9                 # criterion 1, relative to max(|X|, T)
C_BUDGET = 1e-8                 # criterion 2, relative to |C|


def read_csv(path) -> tuple:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(csv_path) -> dict:
    return json.loads(Path(str(csv_path) + ".manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# independent reference for the second-order amplitude


def _gap(base: dict, detuning: float = 0.0) -> float:
    """Omega as the SI config defines it: omega_alpha - detuning."""
    alpha = base["atom.resonant_with_mode"]
    return alpha * math.pi * C_SI / base["cavity.length"] - detuning


def _kernel_textbook(a, b, betas):
    """C / T^2 = b^2 (1 - (-1)^beta e^{ia}) / (b^2 - a^2)^2 - i a / (2 (b^2 - a^2))."""
    a = np.asarray(a, dtype=float)
    even = np.asarray(betas) % 2 == 0
    half = np.exp(0.5j * a)
    # 1 - (-1)^beta e^{ia}, written without cancellation at small a
    bracket = np.where(even, -2j * np.sin(0.5 * a) * half, 2.0 * np.cos(0.5 * a) * half)
    d = b * b - a * a
    return b * b * bracket / (d * d) - 0.5j * a / d


def pole_tail(L, v, c, gap, after: int) -> complex:
    """Sum over beta > after of the pole part of conj(C_{+,beta}) / (beta pi T^2).

    The pole part is -i a / (2 pi beta (a^2 - b^2)) with a = q beta + p,
    q = pi c / v, p = gap T, b = pi beta.  Its integral from after + 1/2 to
    infinity is elementary (substitute u = 1 / beta); the midpoint rule it
    stands for is exact to O(after^-3).  The oscillatory remainder beyond
    ``after`` is below pi / ((q^2 - pi^2)^2 after^2), negligible here.
    """
    T = L / v
    q = math.pi * c * T / L
    p = gap * T
    edge = after + 0.5
    integral = math.log1p((2.0 * q * p / edge + (p / edge) ** 2) / (q * q - math.pi**2)) / (2.0 * p)
    return -1j * integral / (2.0 * math.pi)


def reference_amplitude(L, v, c, gap, lam, alpha, n, modes: int = REFERENCE_MODES):
    """Second-order A(n) from the textbook kernels (all sums over beta != alpha)."""
    T = L / v

    def kernel(betas, sign):
        betas = np.asarray(betas)
        a = (betas * math.pi * c / L + sign * gap) * T
        return _kernel_textbook(a, betas * math.pi, betas)

    kl = alpha * math.pi
    rotating = complex(kernel([alpha], -1)[0]) / kl
    counter = complex(np.conj(kernel([alpha], +1)[0])) / kl
    betas = np.arange(1, modes + 1)
    betas = betas[betas != alpha]
    offres = complex(np.sum(np.conj(kernel(betas, +1)) / (betas * math.pi)))
    offres += pole_tail(L, v, c, gap, modes)
    bracket = n * rotating + offres + (n + 1) * counter
    return 1.0 - lam * lam * T * T * bracket


def tail_tolerance(L, v, c, gap, lam, modes_evaluated: int, amplitude: complex) -> float:
    """Bound on the gamma error of a mode sum stopped at ``modes_evaluated``."""
    T = L / v
    left_out = abs(pole_tail(L, v, c, gap, modes_evaluated))
    return TAIL_MARGIN * lam * lam * T * T * left_out / abs(amplitude)


def _point(base: dict, variable=None, value=None) -> dict:
    """Physical parameters of the base point, or of one sweep row."""
    L = base["cavity.length"]
    v = base["atom.speed"]
    ratio = base["atom.coupling_ratio"]
    detuning = base.get("field.detuning", 0.0)
    if variable == "speed":
        v = value
    elif variable == "coupling_ratio":
        ratio = value
    elif variable == "delta":
        detuning = value
    gap = _gap(base, detuning)
    return {"L": L, "v": v, "c": C_SI, "gap": gap, "lam": ratio * gap,
            "alpha": base["field.mode"]}


def _check_gamma(point, n, gamma, visibility, modes_evaluated, where) -> list:
    amp = reference_amplitude(point["L"], point["v"], point["c"], point["gap"],
                              point["lam"], point["alpha"], n)
    tol = tail_tolerance(point["L"], point["v"], point["c"], point["gap"], point["lam"],
                         modes_evaluated, amp)
    problems = []
    ref_gamma = math.atan2(amp.imag, amp.real)
    if not abs(gamma - ref_gamma) <= tol + 1e-10 * abs(ref_gamma) + 1e-15:
        problems.append(f"{where}: gamma {gamma!r} vs reference {ref_gamma!r} (tol {tol:.3g})")
    ref_vis = math.exp(-abs(math.log(abs(amp))))
    if not abs(visibility - ref_vis) <= tol + 1e-12:
        problems.append(f"{where}: visibility {visibility!r} vs reference {ref_vis!r}")
    return problems


def _modes_evaluated(manifest: dict) -> int:
    return int(manifest["truncation"]["modes_evaluated"])


# ---------------------------------------------------------------------------
# param-sweep


def check_param_sweep(params, phase_header, phase_rows, phase_manifest,
                      sweep_header, sweep_rows) -> list:
    """Base-point phase and every sweep row against the reference amplitude."""
    base, variable = params["base"], params["variable"]
    problems = []
    modes = _modes_evaluated(phase_manifest)
    if phase_header[:3] != ["p_excite", "gamma", "visibility"] or len(phase_rows) != 1:
        return [f"phase output has unexpected shape: {phase_header}"]
    gamma, vis = float(phase_rows[0][1]), float(phase_rows[0][2])
    problems += _check_gamma(_point(base), base["field.photons"], gamma, vis, modes,
                             "phase")
    if sweep_header != [variable, "gamma", "visibility", "validity", "status"]:
        return problems + [f"sweep header {sweep_header}"]
    if len(sweep_rows) != len(params["values"]):
        return problems + [f"sweep has {len(sweep_rows)} rows, expected {len(params['values'])}"]
    for row, value in zip(sweep_rows, params["values"]):
        if row[-1] != "ok":
            problems.append(f"row {row[0]}: status {row[-1]!r}")
            continue
        if float(row[0]) != value:
            problems.append(f"row {row[0]} where {value!r} was asked")
            continue
        problems += _check_gamma(_point(base, variable, value), base["field.photons"],
                                 float(row[1]), float(row[2]), modes, f"row {row[0]}")
    return problems


# ---------------------------------------------------------------------------
# n-sweep


def linear_delta_gamma(base: dict, m: int) -> float:
    point = _point(base)
    L, v, alpha = point["L"], point["v"], point["alpha"]
    return point["lam"] ** 2 * L * L * m / (4.0 * math.pi**2 * alpha**2 * C_SI * v)


def check_affine(ns, gammas, visibilities) -> list:
    """A(n) = |A| e^{i gamma} rebuilt from the CSV is affine in n.

    The visibility is exp(-|ln |A||), so |A| is 1/visibility or visibility;
    the second-order A(n) of these setups has |A| >= 1 (the pole term makes
    lambda^4 |K|^2 exceed 2 lambda^2 Re K), and the other reading is tried too.
    """
    ns = np.asarray(ns, dtype=float)
    design = np.stack([np.ones_like(ns), ns], axis=1).astype(complex)
    gammas = np.asarray(gammas, dtype=float)
    vis = np.asarray(visibilities, dtype=float)
    worst = math.inf
    for modulus in (1.0 / vis, vis):
        amp = modulus * np.exp(1j * gammas)
        coef = np.linalg.lstsq(design, amp, rcond=None)[0]
        resid = np.max(np.abs(design @ coef - amp))
        span = np.max(np.abs(amp - amp[0]))
        if resid <= 1e-11 * span + 1e-14:
            return []
        worst = min(worst, resid / max(span, 1e-300))
    return [f"A(n) is not affine in n: relative residual {worst:.3g}"]


def check_n_phase(params, header, rows, manifest) -> list:
    base = params.get("base")
    if header != ["n", "gamma", "visibility", "validity", "status"]:
        return [f"phase sweep header {header}"]
    bad = [r for r in rows if r[-1] != "ok"]
    if bad:
        return [f"{len(bad)} rows not ok, first {bad[0]}"]
    ns = [int(r[0]) for r in rows]
    gammas = [float(r[1]) for r in rows]
    vis = [float(r[2]) for r in rows]
    problems = check_affine(ns, gammas, vis)
    if base is not None:
        modes = _modes_evaluated(manifest)
        for i in (0, len(rows) - 1):
            problems += _check_gamma(_point(base), ns[i], gammas[i], vis[i], modes,
                                     f"n={ns[i]}")
    return problems


def check_n_resolution(params, header, rows) -> list:
    """Additivity of phase differences and the few-photon linear regime."""
    base = params.get("base", {})
    if header != ["n", "m", "delta_gamma", "status"]:
        return [f"resolution sweep header {header}"]
    bad = [r for r in rows if r[-1] != "ok"]
    if bad:
        return [f"{len(bad)} rows not ok, first {bad[0]}"]
    dg = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    ms = sorted({m for _, m in dg})
    problems = []
    for (n, m), value in dg.items():
        for m1 in ms:
            m2 = m - m1
            if m2 not in ms or (n + m1, m2) not in dg:
                continue
            total = dg[(n, m1)] + dg[(n + m1, m2)]
            if not abs(value - total) <= 1e-10 * abs(value) + 1e-15:
                problems.append(f"dg({n},{m}) = {value!r} but dg({n},{m1}) + "
                                f"dg({n + m1},{m2}) = {total!r}")
        if base and n <= 10 and m <= 5:
            linear = linear_delta_gamma(base, m)
            if not abs(value - linear) <= LINEAR_REGIME_TOL * linear:
                problems.append(f"dg({n},{m}) = {value!r} not within 1% of {linear!r}")
    return problems


# ---------------------------------------------------------------------------
# oracle


def oracle_mismatch(header, rows) -> dict:
    """|perturbative - oracle| per observable, from the verify CSV columns."""
    if header[:3] != ["observable", "perturbative", "oracle"]:
        raise ValueError(f"verify header {header}")
    return {r[0]: abs(float(r[1]) - float(r[2])) for r in rows}


def check_oracle_point(tol, manifest) -> list:
    drift = float(manifest["oracle"]["norm_drift"])
    if not drift <= 10.0 * tol:
        return [f"norm drift {drift:.3g} above 10 x tol"]
    return []


def check_oracle_pair(mismatch_full: dict, mismatch_half: dict) -> list:
    """Halving lambda shrinks the P and gamma mismatch by 16 +/- 30%."""
    lo, hi = ORACLE_HALVING
    problems = []
    for name in ("p_excite", "gamma"):
        ratio = mismatch_full[name] / max(mismatch_half[name], 1e-300)
        if not lo <= ratio <= hi:
            problems.append(f"{name} halving ratio {ratio:.3g} outside 16 +/- 30%")
    return problems


# ---------------------------------------------------------------------------
# quadrature


def check_quadrature(params, amp_header, amp_rows, ker_header, ker_rows, modes) -> list:
    base = params["base"]
    T = base["cavity.length"] / base["atom.speed"]
    expected = {(beta, sign) for beta in modes for sign in ("+1", "-1")}
    problems = []
    for kind, header, rows in (("amplitude", amp_header, amp_rows),
                               ("kernel", ker_header, ker_rows)):
        if header[:6] != ["beta", "sign", "re_closed", "im_closed", "re_quad", "im_quad"]:
            problems.append(f"{kind} header {header}")
            continue
        seen = {(int(r[0]), r[1]) for r in rows}
        if seen != expected or len(rows) != len(expected):
            problems.append(f"{kind} rows {sorted(seen)}")
        for r in rows:
            closed = complex(float(r[2]), float(r[3]))
            quadv = complex(float(r[4]), float(r[5]))
            if kind == "amplitude":
                bound = X_BUDGET * max(abs(closed), T)
            else:
                bound = C_BUDGET * abs(closed)
            if not abs(closed - quadv) <= bound:
                problems.append(f"{kind} beta={r[0]} sign={r[1]}: closed {closed!r} vs "
                                f"quadrature {quadv!r}")
    return problems
