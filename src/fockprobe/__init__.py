"""fockprobe: phases and transition amplitudes of atoms probing cavity Fock states.

A single ground-state atom crossing a 1D two-mirror cavity at constant speed
picks up a photon-number-dependent phase while, for even probed harmonics on
resonance, leaving the field state untouched at leading order.  This package
computes the closed-form transit amplitudes and second-order kernels behind
that effect, assembles the observable predictions (transition probability,
phase, visibility, phase differences and the resolution threshold) row by
row over arrays of photon numbers, and verifies everything against
independent numerical quadrature and an exactly evolved truncated system.
"""

__version__ = "0.1.0"

from .amplitudes import (
    ConvergenceError,
    counter_rotating_mode_sum,
    x_closed,
    x_detuned_leading,
    x_quadrature,
)
from .config import ConfigError, ResolvedConfig, parse_config, resolve_mapping
from .kernels import (
    c_closed,
    c_quadrature,
    c_resonant_nonrel,
    mode_sum_offres,
)
from .model import (
    SPEED_OF_LIGHT,
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    ProbeWarning,
    TruncationReport,
    build_setup,
    prepare_field,
)
from .observables import (
    BranchError,
    TransitionBreakdown,
    classify_validity,
    delta_gamma_linear,
    delta_gamma_rows,
    eta_rows,
    fringe,
    phase_components,
    resolution_threshold,
    survival_amplitude,
    transition_probability,
    validity,
)
from .oracle import (
    HilbertTruncation,
    OracleResult,
    build_hamiltonian,
    convergence_scan,
    default_truncation,
    evolve,
)
from .sweeps import PRESETS, run_sweep

__all__ = [
    "BranchError",
    "ConfigError",
    "ConvergenceError",
    "FieldPreparation",
    "HilbertTruncation",
    "OracleResult",
    "ParameterError",
    "PRESETS",
    "ProbeSetup",
    "ProbeWarning",
    "ResolvedConfig",
    "SPEED_OF_LIGHT",
    "TransitionBreakdown",
    "TruncationReport",
    "build_hamiltonian",
    "build_setup",
    "c_closed",
    "c_quadrature",
    "c_resonant_nonrel",
    "classify_validity",
    "convergence_scan",
    "counter_rotating_mode_sum",
    "default_truncation",
    "delta_gamma_linear",
    "delta_gamma_rows",
    "eta_rows",
    "evolve",
    "fringe",
    "mode_sum_offres",
    "parse_config",
    "phase_components",
    "prepare_field",
    "resolve_mapping",
    "resolution_threshold",
    "run_sweep",
    "survival_amplitude",
    "transition_probability",
    "validity",
    "x_closed",
    "x_detuned_leading",
    "x_quadrature",
]
