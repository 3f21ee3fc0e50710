"""Deterministic inputs for the four benchmark workloads.

Every input is a function of (workload, seed, round index) only, so the same
seed gives the same config files.  A round is the fixed group of operations a
run always completes as a whole; an operation ("op") is one user-level request
made of one or two ``fockprobe`` CLI calls.  Tokens starting with ``@`` in an
argv name files in the run directory.

The ranges keep every op where the program succeeds today: every sweep row
ends ``ok`` and every ``verify`` passes (see README.md for the reasoning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("param-sweep", "n-sweep", "oracle", "quadrature")

C_SI = 299792458.0

PARAM_SWEEP_ROWS = 20
N_SWEEP_ROWS = 2000
RESOLUTION_N = 667  # times len(RESOLUTION_M) rows
RESOLUTION_M = (1, 2, 3)
PRESETS = ("fig3", "fig4", "fig5")
QUAD_MODES = (1, 2, 3, 4)
ORACLE_TOL = 1e-11
ORACLE_SPEED = 0.1
# kernels.c_quadrature raises ConvergenceError for the rotating sign at some
# transit phases |a| < 10 (near a = 9 for mode 4, 4.4 for mode 2, 0.83 for
# mode 3); setups with any rotating-sign |a| below this are drawn again.
QUAD_MIN_ROTATING_PHASE = 12.0
# |lambda^2 n C_-| / (k L) stays below this on every row of a detuning sweep,
# so Re A(n) stays near 1 and no row can leave the principal branch.
DETUNED_DEFICIT_CAP = 0.05


@dataclass
class Op:
    """One request: the config files it needs, its CLI calls, and what the checks need."""

    label: str
    calls: list
    configs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, round_index])


def _value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_value(v) for v in value)
    return str(value)


def config_text(mapping: dict) -> str:
    return "".join(f"{key} = {_value(value)}\n" for key, value in mapping.items())


def _si_base(rng, speed_range):
    """A resonant SI microcavity: even probed mode, gap locked to it."""
    alpha = int(rng.choice([2, 4]))
    return {
        "cavity.length": float(10.0 ** rng.uniform(-6.3, -5.7)),
        "atom.speed": float(rng.uniform(*speed_range)),
        "atom.coupling_ratio": float(10.0 ** rng.uniform(-4.5, -4.0)),
        "atom.resonant_with_mode": alpha,
        "field.mode": alpha,
    }


def detuning_limit(base: dict, photons: int) -> float:
    """Largest |detuning| (rad/s) keeping the rotating deficit under the cap.

    Near resonance the even-mode rotating kernel is C_- ~ -3i a T^2 / (2 b^2)
    with a = detuning * T and b = alpha pi, so the deficit it adds to A(n) is
    about lambda^2 T^2 n (3 a / 2) / b^3.
    """
    L, v, alpha = base["cavity.length"], base["atom.speed"], base["field.mode"]
    gap = alpha * math.pi * C_SI / L
    lam_t = base["atom.coupling_ratio"] * gap * L / v
    b = alpha * math.pi
    a_max = DETUNED_DEFICIT_CAP * b**3 / (1.5 * lam_t**2 * max(photons, 1))
    return a_max * v / L


def _param_sweep_round(rng) -> list:
    ops = []
    for slot, variable in enumerate(("speed", "coupling_ratio", "delta")):
        base = _si_base(rng, (800.0, 1500.0))
        photons = int(rng.integers(0, 41))
        base["field.photons"] = photons
        grid = np.linspace(0.0, 1.0, PARAM_SWEEP_ROWS)
        if variable == "speed":
            values = base["atom.speed"] * (0.7 + 0.6 * grid)
        elif variable == "coupling_ratio":
            values = base["atom.coupling_ratio"] * (0.3 + 0.7 * grid)
        else:
            values = detuning_limit(base, photons) * (2.0 * grid - 1.0)
        sweep = {
            **base,
            "sweep.variable": variable,
            "sweep.values": [float(x) for x in values],
        }
        phase_cfg, sweep_cfg = f"ps{slot}-phase.cfg", f"ps{slot}-sweep.cfg"
        ops.append(Op(
            label=variable,
            configs={phase_cfg: config_text(base), sweep_cfg: config_text(sweep)},
            calls=[
                ["phase", "--config", "@" + phase_cfg, "--output", f"@ps{slot}-phase.csv",
                 "--quiet"],
                ["sweep", "--config", "@" + sweep_cfg, "--output", f"@ps{slot}-sweep.csv",
                 "--quiet"],
            ],
            params={"base": base, "variable": variable,
                    "values": [float(x) for x in values]},
        ))
    return ops


def _n_sweep_round(rng) -> list:
    phase = {**_si_base(rng, (1000.0, 2000.0)), "field.photons": 0}
    phase.update({"sweep.variable": "n", "sweep.start": 0, "sweep.stop": N_SWEEP_ROWS - 1,
                  "sweep.step": 1, "sweep.observable": "phase"})
    res = {**_si_base(rng, (1000.0, 2000.0)), "field.photons": 0}
    res.update({"sweep.variable": "n", "sweep.start": 0, "sweep.stop": RESOLUTION_N - 1,
                "sweep.step": 1, "sweep.observable": "resolution",
                "sweep.m_values": list(RESOLUTION_M)})
    ops = [
        Op(label="n-phase", configs={"n-phase.cfg": config_text(phase)},
           calls=[["sweep", "--config", "@n-phase.cfg", "--output", "@n-phase.csv",
                   "--quiet"]],
           params={"base": phase}),
        Op(label="n-resolution", configs={"n-res.cfg": config_text(res)},
           calls=[["sweep", "--config", "@n-res.cfg", "--output", "@n-res.csv",
                   "--quiet"]],
           params={"base": res}),
    ]
    for name in PRESETS:
        ops.append(Op(label=name,
                      calls=[["sweep", "--preset", name, "--output", f"@{name}.csv",
                              "--quiet"]]))
    return ops


def _oracle_round(rng) -> list:
    """One coupling pair (lambda, lambda/2) at a desk-scale natural-unit point.

    The speed is fixed because the integrator's step count scales with 1/v;
    the seed moves the coupling and the detuning, which barely change it.
    """
    speed = ORACLE_SPEED
    ratio = float(10.0 ** rng.uniform(math.log10(2e-4), math.log10(3e-4)))
    transit_phase = float(rng.uniform(0.25 * math.pi, 0.75 * math.pi))
    ops = []
    for slot, scale in enumerate((1.0, 0.5)):
        cfg = {
            "units.mode": "natural",
            "cavity.length": 1.0,
            "atom.speed": speed,
            "atom.coupling_ratio": ratio * scale,
            "atom.resonant_with_mode": 2,
            "field.mode": 2,
            "field.photons": 2,
            # detuning * T equals the transit phase (T = L / v with L = 1)
            "field.detuning": transit_phase * speed,
        }
        name = f"oracle{slot}"
        ops.append(Op(
            label=f"verify-{'lambda' if slot == 0 else 'half'}",
            configs={f"{name}.cfg": config_text(cfg)},
            calls=[["verify", "--config", f"@{name}.cfg", "--output", f"@{name}.csv",
                    "--tol", repr(ORACLE_TOL), "--quiet"]],
            params={"base": cfg, "tol": ORACLE_TOL},
        ))
    return ops


def _quadrature_round(rng) -> list:
    """Ranges of tests/conftest.random_setup: off-resonant-ish desk-scale setups."""
    while True:
        length = float(rng.uniform(0.5, 2.0))
        speed = float(10.0 ** rng.uniform(-4.0, -1.0))
        alpha = int(rng.integers(1, 5))
        gap = float(alpha * math.pi / length * (1.0 + rng.uniform(-0.3, 0.3)))
        if min(rotating_phases(length, speed, gap)) >= QUAD_MIN_ROTATING_PHASE:
            break
    cfg = {
        "units.mode": "natural",
        "cavity.length": length,
        "atom.speed": speed,
        "atom.gap": gap,
        "atom.coupling_ratio": 1e-4,
        "field.mode": alpha,
        "field.photons": 0,
    }
    modes = [token for beta in QUAD_MODES for token in ("--mode", str(beta))]
    return [Op(
        label="certify",
        configs={"quad.cfg": config_text(cfg)},
        calls=[
            ["amplitudes", "--config", "@quad.cfg", *modes, "--quadrature-check",
             "--output", "@quad-amplitudes.csv", "--quiet"],
            ["kernels", "--config", "@quad.cfg", *modes, "--quadrature-check",
             "--output", "@quad-kernels.csv", "--quiet"],
        ],
        params={"base": cfg},
    )]


def rotating_phases(length, speed, gap):
    """|a| = |omega_beta - Omega| L / v for the modes the quadrature op certifies."""
    return [abs((beta * math.pi / length - gap) * length / speed) for beta in QUAD_MODES]


_ROUNDS = {
    "param-sweep": _param_sweep_round,
    "n-sweep": _n_sweep_round,
    "oracle": _oracle_round,
    "quadrature": _quadrature_round,
}


def make_round(workload: str, seed: int, round_index: int) -> list:
    """The ops of one round; runs time rounds 1, 2, ... and warm up on seed 0, round 0."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0 or round_index < 0:
        raise ValueError("seed and round index must be non-negative")
    return _ROUNDS[workload](_rng(workload, seed, round_index))
