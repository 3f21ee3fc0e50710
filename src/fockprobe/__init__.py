"""fockprobe: phases and transition amplitudes of atoms probing cavity Fock states.

A single ground-state atom crossing a 1D two-mirror cavity at constant speed
picks up a photon-number-dependent phase while, for even probed harmonics on
resonance, leaving the field state untouched at leading order.  This package
computes the closed-form transit amplitudes and second-order kernels behind
that effect, assembles the observable predictions (transition probability,
phase, visibility, resolution curves), and verifies everything against
independent numerical quadrature and an exactly evolved truncated system.
"""

__version__ = "0.1.0"

from .amplitudes import (
    ConvergenceError,
    counter_rotating_mode_sum,
    x_closed,
    x_detuned_leading,
    x_mod_squared,
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
    resonant_gap,
)
from .observables import (
    BranchError,
    EtaPhase,
    ProbeOutcome,
    TransitionBreakdown,
    classify_validity,
    delta_gamma_exact,
    delta_gamma_linear,
    eta_phase,
    fringe,
    phase_components,
    probe_outcome,
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
    "EtaPhase",
    "FieldPreparation",
    "HilbertTruncation",
    "OracleResult",
    "ParameterError",
    "PRESETS",
    "ProbeOutcome",
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
    "delta_gamma_exact",
    "delta_gamma_linear",
    "eta_phase",
    "evolve",
    "fringe",
    "mode_sum_offres",
    "parse_config",
    "phase_components",
    "prepare_field",
    "probe_outcome",
    "resolve_mapping",
    "resolution_threshold",
    "resonant_gap",
    "run_sweep",
    "survival_amplitude",
    "transition_probability",
    "validity",
    "x_closed",
    "x_detuned_leading",
    "x_mod_squared",
    "x_quadrature",
]
