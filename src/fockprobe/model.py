"""Physical parameter records for the cavity-crossing probe scheme.

Everything downstream (amplitudes, kernels, observables, oracle) consumes a
validated :class:`ProbeSetup` plus a :class:`FieldPreparation`.  The setup is
immutable and safe to share across threads.

Unit conventions: any consistent unit system works.  ``unit_mode="SI"`` means
meters/seconds with the physical speed of light; ``unit_mode="natural"`` fixes
``c = 1`` and leaves the length scale free.  All closed forms are expressed in
the dimensionless transit phases ``a = (omega_beta +/- Omega) L / v`` and
``b = beta pi`` internally, so optical-frequency inputs do not overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s

# Typical quantum-optics coupling ratios lambda/Omega; outside this range the
# formulas stay valid but the hardware assumptions behind them do not.
COUPLING_RATIO_RANGE = (1e-6, 1e-4)


class ParameterError(ValueError):
    """Raised for physically inadmissible setup parameters."""


class ProbeWarning(UserWarning):
    """Non-fatal diagnostics (coupling range, validity, truncation)."""


@dataclass(frozen=True)
class ProbeSetup:
    """Cavity geometry plus atom properties, validated and immutable.

    Attributes
    ----------
    cavity_length : mirror separation L (> 0)
    light_speed : wave speed c in the cavity (> 0; exactly 1 in natural mode)
    atom_gap : atomic transition angular frequency Omega (> 0)
    coupling : monopole coupling strength lambda (>= 0, angular frequency)
    atom_speed : constant transit speed v, 0 < v < c
    """

    cavity_length: float
    light_speed: float
    atom_gap: float
    coupling: float
    atom_speed: float

    @property
    def crossing_time(self) -> float:
        """Transit time T = L / v."""
        return self.cavity_length / self.atom_speed

    @property
    def coupling_ratio(self) -> float:
        """Dimensionless ratio lambda / Omega."""
        return self.coupling / self.atom_gap

    def mode_frequency(self, beta):
        """Angular frequency of standing-wave mode beta: omega = beta pi c / L."""
        return beta * math.pi * self.light_speed / self.cavity_length

    def wavenumber(self, beta):
        """Wavenumber of mode beta: k = beta pi / L."""
        return beta * math.pi / self.cavity_length

    def dimensionless_groups(self) -> dict:
        """The scale-free groups that fully determine the physics."""
        return {
            "v_over_c": self.atom_speed / self.light_speed,
            "coupling_ratio": self.coupling_ratio,
            "gap_transits": self.atom_gap * self.cavity_length / self.light_speed,
        }


def build_setup(
    cavity_length: float,
    atom_speed: float,
    *,
    light_speed: float | None = None,
    atom_gap: float | None = None,
    resonant_with_mode: int | None = None,
    detuning: float = 0.0,
    coupling: float | None = None,
    coupling_ratio: float | None = None,
    unit_mode: str = "SI",
) -> ProbeSetup:
    """Validate raw parameters and assemble a :class:`ProbeSetup`.

    Exactly one of ``atom_gap`` / ``resonant_with_mode`` must be given; the
    latter sets ``Omega = omega_mode - detuning`` (``detuning`` is only legal
    in that form).  Exactly one of ``coupling`` / ``coupling_ratio`` must be
    given, and (lambda L/v)^2 must be finite.  ``unit_mode`` only picks the
    default ``light_speed`` and checks it.  Emits a :class:`ProbeWarning`
    when lambda/Omega falls outside the typical quantum-optics window.
    """
    if unit_mode not in ("SI", "natural"):
        raise ParameterError(f"unknown unit_mode {unit_mode!r}")
    if light_speed is None:
        light_speed = 1.0 if unit_mode == "natural" else SPEED_OF_LIGHT
    if unit_mode == "natural" and light_speed != 1.0:
        raise ParameterError("natural unit mode requires light_speed == 1")

    for name, value in (
        ("cavity_length", cavity_length),
        ("atom_speed", atom_speed),
        ("light_speed", light_speed),
    ):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if cavity_length <= 0:
        raise ParameterError(f"cavity_length must be positive, got {cavity_length}")
    if light_speed <= 0:
        raise ParameterError(f"light_speed must be positive, got {light_speed}")
    if not 0 < atom_speed < light_speed:
        raise ParameterError(
            f"atom_speed must satisfy 0 < v < c, got v={atom_speed}, c={light_speed}"
        )

    if (atom_gap is None) == (resonant_with_mode is None):
        raise ParameterError("give exactly one of atom_gap or resonant_with_mode")
    if resonant_with_mode is not None:
        if resonant_with_mode != int(resonant_with_mode) or resonant_with_mode < 1:
            raise ParameterError(
                f"resonant_with_mode must be a positive integer, got {resonant_with_mode}"
            )
        atom_gap = int(resonant_with_mode) * math.pi * light_speed / cavity_length - detuning
    elif detuning != 0.0:
        raise ParameterError("detuning is only meaningful with resonant_with_mode")
    if not math.isfinite(atom_gap) or atom_gap <= 0:
        raise ParameterError(f"atom_gap must be positive and finite, got {atom_gap}")

    if (coupling is None) == (coupling_ratio is None):
        raise ParameterError("give exactly one of coupling or coupling_ratio")
    if coupling_ratio is not None:
        coupling = coupling_ratio * atom_gap
    if not math.isfinite(coupling) or coupling < 0:
        raise ParameterError(f"coupling must be non-negative and finite, got {coupling}")
    # every second-order quantity carries (lambda T)^2; float * overflows to
    # inf where ** would raise
    transit = cavity_length / atom_speed
    lam_t = coupling * transit
    if not math.isfinite(lam_t * lam_t):
        raise ParameterError(
            f"(coupling * L/v)^2 is not finite: coupling {coupling:g}, transit time {transit:g}"
        )

    setup = ProbeSetup(
        cavity_length=float(cavity_length),
        light_speed=float(light_speed),
        atom_gap=float(atom_gap),
        coupling=float(coupling),
        atom_speed=float(atom_speed),
    )
    ratio = setup.coupling_ratio
    lo, hi = COUPLING_RATIO_RANGE
    # tolerance absorbs the ratio -> coupling -> ratio round trip
    if ratio > 0 and not lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9):
        warnings.warn(
            f"coupling ratio {ratio:.3g} outside typical quantum-optics range "
            f"[{lo:g}, {hi:g}]",
            ProbeWarning,
            stacklevel=2,
        )
    return setup


def resonant_gap(setup: ProbeSetup, alpha: int) -> float:
    """Gap that puts the atom on resonance with mode alpha: omega_alpha = alpha pi c / L."""
    if alpha != int(alpha) or alpha < 1:
        raise ParameterError(f"mode index must be a positive integer, got {alpha}")
    return setup.mode_frequency(int(alpha))


@dataclass(frozen=True)
class FieldPreparation:
    """Initial field state: n photons in mode alpha, vacuum elsewhere.

    ``detuning`` records omega_alpha - Omega for the probed mode; it is derived
    from the setup (use :func:`prepare_field`), kept here for reporting.
    """

    mode: int
    photons: int
    detuning: float = 0.0

    def __post_init__(self):
        if self.mode != int(self.mode) or self.mode < 1:
            raise ParameterError(f"probed mode must be a positive integer, got {self.mode}")
        if self.photons != int(self.photons) or self.photons < 0:
            raise ParameterError(f"photon number must be a non-negative integer, got {self.photons}")


def prepare_field(setup: ProbeSetup, mode: int, photons: int) -> FieldPreparation:
    """Build a :class:`FieldPreparation` with the detuning derived from the setup."""
    prep = FieldPreparation(mode=int(mode), photons=int(photons))
    delta = setup.mode_frequency(prep.mode) - setup.atom_gap
    return FieldPreparation(mode=prep.mode, photons=prep.photons, detuning=delta)


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls for the infinite mode sums.

    max_mode caps the number B of directly summed modes; tail_tol bounds the
    error of the exact tail added beyond B, relative to the sum.
    """

    max_mode: int = 10_000
    tail_tol: float = 1e-10

    def __post_init__(self):
        if self.max_mode < 1:
            raise ParameterError(f"max_mode must be >= 1, got {self.max_mode}")
        if self.tail_tol <= 0:
            raise ParameterError(f"tail_tol must be positive, got {self.tail_tol}")

    def check_covers(self, prep: FieldPreparation) -> None:
        """A usable policy must sum past the probed mode."""
        if self.max_mode < prep.mode + 1:
            raise ParameterError(
                f"max_mode ({self.max_mode}) must be at least probed mode + 1 "
                f"({prep.mode + 1})"
            )


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class TruncationReport:
    """How a mode sum was closed.

    modes_evaluated is the number B of directly summed modes (or of the
    explicit modes), tail_estimate the magnitude of the tail added beyond B,
    error_bound the bound on that tail's error, and converged whether the
    bound is at most tail_tol times the sum.
    """

    modes_evaluated: int
    tail_estimate: float
    converged: bool
    error_bound: float = 0.0

    def as_dict(self) -> dict:
        return {
            "modes_evaluated": self.modes_evaluated,
            "tail_estimate": self.tail_estimate,
            "error_bound": self.error_bound,
            "converged": self.converged,
        }
