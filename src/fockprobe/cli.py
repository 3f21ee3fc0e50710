"""Command-line front end.

Every subcommand reads a config file (see configs/ for samples; ``sweep``
may take a --preset instead), writes CSV to --output (or stdout), and -- when
writing to a file -- drops a JSON manifest next to it recording the resolved
configuration and all warnings.  The warnings also go to stderr unless
--quiet is given.  Only ``sweep`` accepts ``sweep.*`` keys; ``resolution``
runs as the resolution sweep its flags describe.  ``main`` resolves the
configuration and applies the validity guard once, with the estimator of
``sweeps.largest_validity``, before handing both to the subcommand; the guard
warns whenever that estimator is not "ok".  Exit codes: 0 success, 1
configuration error, 2 numerical failure, 3 validity-guard violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__
from .amplitudes import (
    ConvergenceError,
    _check_mode_sign,
    _check_quad_tol,
    _closed_array,
    x_quadrature,
)
from .config import MAX_SWEEP_ROWS, ConfigError, SweepRequest, parse_config, resolve_mapping
from .kernels import _reduced_kernel, c_quadrature, mode_sum_offres
from .model import ParameterError
from .observables import (
    BranchError,
    _warn_validity,
    classify_validity,
    eta_rows,
    fringe,
    phase_components,
    resolution_threshold,
    survival_amplitude,
    transition_probability,
    validity,
)
from .oracle import _check_scan_tolerances, convergence_scan, default_truncation, evolve
from .sweeps import PRESETS, compute_rows, largest_validity, run_sweep, write_outputs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_VALIDITY = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="config file (key = value lines)")
    common.add_argument("--output", type=Path, help="CSV destination (default: stdout)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress warnings and progress chatter on stderr")
    common.add_argument(
        "--force",
        action="store_true",
        help="proceed even when the validity estimator classifies the run as invalid",
    )

    parser = argparse.ArgumentParser(
        prog="fockprobe",
        description="Transit amplitudes, phases, and verification for cavity Fock-state probing",
    )
    parser.add_argument("--version", action="version", version=f"fockprobe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amplitudes", parents=[common],
                       help="first-order transit amplitudes per mode")
    p.add_argument("--mode", type=int, action="append", required=True,
                   help="mode index (repeatable)")
    p.add_argument("--sign", choices=["+", "-", "both"], default="both")
    p.add_argument("--quadrature-check", action="store_true",
                   help="also integrate numerically and report the deviation")
    p.add_argument("--quad-tol", type=float, default=1e-10)

    p = sub.add_parser("kernels", parents=[common],
                       help="second-order transit kernels per mode")
    p.add_argument("--mode", type=int, action="append", required=True)
    p.add_argument("--sign", choices=["+", "-", "both"], default="both")
    p.add_argument("--quadrature-check", action="store_true")
    p.add_argument("--quad-tol", type=float, default=1e-9)
    p.add_argument("--mode-sum", action="store_true",
                   help="also evaluate the off-resonant kernel sum")

    sub.add_parser("transition", parents=[common],
                   help="excitation probability with its three contributions")

    sub.add_parser("phase", parents=[common],
                   help="p_excite, gamma, visibility, validity for the configured preparation")

    p = sub.add_parser("resolution", parents=[common],
                       help="phase difference delta_gamma over a photon-number grid")
    p.add_argument("--m", type=int, action="append", help="photon difference (repeatable)")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--floor", type=float, default=1e-4,
                   help="resolution floor for the threshold report (rad)")

    p = sub.add_parser("fringe", parents=[common],
                       help="two-port interferometer output probabilities")
    p.add_argument("--unknown-photons", type=int, required=True,
                   help="photon number in the unknown arm")
    p.add_argument("--phi", type=float, action="append",
                   help="reference phase (repeatable; default 0)")

    p = sub.add_parser("verify", parents=[common],
                       help="closed forms against the exactly evolved truncated system")
    p.add_argument("--modes", type=int, default=None,
                   help="highest retained mode (default: probed + 1; not with --scan)")
    p.add_argument("--headroom", type=int, default=4)
    p.add_argument("--others-max", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-10, help="integrator tolerance")
    p.add_argument("--scan", choices=["modes", "headroom", "integ_tol"],
                   help="run a convergence scan along one axis instead")

    p = sub.add_parser("sweep", parents=[common], help="run a configured or preset sweep")
    p.add_argument("--preset", choices=["fig3", "fig4", "fig5"],
                   help="shipped sweep preset")

    return parser


def _messages(caught):
    return sorted({str(w.message) for w in caught})


def _signs(flag: str):
    return {"+": [+1], "-": [-1], "both": [+1, -1]}[flag]


def _photon_number(flag: str, value: int) -> int:
    """``value`` of a photon-number flag, held to field.photons' rule: a finite float."""
    try:
        float(value)
    except OverflowError as exc:
        raise ConfigError(f"bad value for {flag}: {value} ({exc})") from None
    return value


def _resolution_request(args) -> SweepRequest:
    """The resolution sweep ``resolution`` runs: n = 0, --n-step, ..., --n-max for each --m."""
    if args.n_step < 1:
        raise ConfigError(f"--n-step must be positive, got {args.n_step}")
    if args.n_max < 0:
        raise ConfigError(f"--n-max must be non-negative, got {args.n_max}")
    if not (math.isfinite(args.floor) and args.floor > 0):
        raise ConfigError(f"--floor must be finite and positive, got {args.floor}")
    m_values = sorted(set(args.m)) if args.m else [1]
    if m_values[0] < 1:
        raise ConfigError(f"--m must be a positive integer, got {m_values[0]}")
    _photon_number("--n-max", args.n_max)
    _photon_number("--m", m_values[-1])
    # counted before any range is built, whose len() would overflow first
    if (args.n_max // args.n_step + 1) * len(m_values) > MAX_SWEEP_ROWS:
        raise ConfigError(
            f"resolution grid has more than MAX_SWEEP_ROWS = {MAX_SWEEP_ROWS} rows"
        )
    return SweepRequest(variable="n", values=tuple(range(0, args.n_max + 1, args.n_step)),
                        observable="resolution", m_values=tuple(m_values))


def _guard_validity(args, resolved) -> int:
    """EXIT_VALIDITY when the largest estimator the subcommand evaluates is invalid.

    Otherwise, or with --force, EXIT_OK, and an estimator that is not "ok" is
    recorded as a warning; ``amplitudes`` and ``kernels`` evaluate none.
    """
    if args.command in ("amplitudes", "kernels"):
        return EXIT_OK
    unknown = _photon_number("--unknown-photons", getattr(args, "unknown_photons", 0))
    value = largest_validity(resolved, unknown)
    if classify_validity(value) == "invalid" and not args.force:
        sys.stderr.write(
            f"validity estimator {value:.3g} >= 1: perturbative output untrusted "
            "(rerun with --force to proceed)\n"
        )
        return EXIT_VALIDITY
    _warn_validity(value)
    return EXIT_OK


def _certify(args, setup, closed_array, quadrature):
    """(beta, sign, closed form, quadrature or None) per row, mode then sign.

    Every --mode is checked before any array is built (10**400 would
    overflow one); the closed forms come from one ``closed_array`` call per
    sign over the sorted modes, the quadratures from one scalar call per row,
    in row order, with --quadrature-check only.
    """
    modes = sorted(set(args.mode))
    signs = _signs(args.sign)
    for beta in modes:
        for sign in signs:
            _check_mode_sign(beta, sign)
    closed = {sign: closed_array(setup, modes, sign).tolist() for sign in signs}
    return [(beta, sign, closed[sign][i],
             quadrature(setup, beta, sign, quad_tol=args.quad_tol)
             if args.quadrature_check else None)
            for i, beta in enumerate(modes) for sign in signs]


def _cmd_amplitudes(args, resolved, caught) -> int:
    header = ["beta", "sign", "re_closed", "im_closed", "re_quad", "im_quad", "abs_err"]
    rows = []
    for beta, sign, closed, quadv in _certify(args, resolved.setup, _closed_array,
                                              x_quadrature):
        if quadv is None:
            rows.append([beta, f"{sign:+d}", closed.real, closed.imag, "", "", ""])
        else:
            rows.append([beta, f"{sign:+d}", closed.real, closed.imag,
                         quadv.real, quadv.imag, abs(closed - quadv)])
    write_outputs(args.output, header, rows, resolved, "amplitudes", _messages(caught),
                  quiet=args.quiet)
    return EXIT_OK


def _cmd_kernels(args, resolved, caught) -> int:
    header = ["beta", "sign", "re_closed", "im_closed", "re_quad", "im_quad"]
    rows = []
    kernel_array = functools.partial(_closed_array, reduced=_reduced_kernel, order=2)
    for beta, sign, closed, quadv in _certify(args, resolved.setup, kernel_array,
                                              c_quadrature):
        if quadv is None:
            rows.append([beta, f"{sign:+d}", closed.real, closed.imag, "", ""])
        else:
            rows.append([beta, f"{sign:+d}", closed.real, closed.imag,
                         quadv.real, quadv.imag])
    extra = None
    if args.mode_sum:
        total, report = mode_sum_offres(resolved.setup, resolved.prep)
        extra = {"mode_sum": {"re": total.real, "im": total.imag, **report.as_dict()}}
        if not args.quiet:
            sys.stderr.write(
                f"mode sum over beta != {resolved.prep.mode}: {total!r} "
                f"(B = {report.modes_evaluated} direct modes, tail added "
                f"{report.tail_estimate:.3g}, error bound {report.error_bound:.3g})\n"
            )
    write_outputs(args.output, header, rows, resolved, "kernels", _messages(caught),
                  extra, args.quiet)
    return EXIT_OK


def _cmd_transition(args, resolved, caught) -> int:
    breakdown = transition_probability(resolved.setup, resolved.prep)
    header = ["p_excite", "rotating", "counter_rotating", "vacuum"]
    rows = [[breakdown.total, breakdown.rotating, breakdown.counter_rotating,
             breakdown.vacuum]]
    write_outputs(args.output, header, rows, resolved, "transition", _messages(caught),
                  {"truncation": breakdown.report.as_dict()}, args.quiet)
    return EXIT_OK


def _eta_row(setup, prep, modes=None):
    """(eta, visibility, truncation report) of A(prep.photons), one row of ``eta_rows``;
    raises :class:`BranchError` when Re A <= 0."""
    comps = phase_components(setup, prep.mode, modes)
    eta, visibility, failed = eta_rows(survival_amplitude(comps, setup, prep.photons))
    if failed:
        raise BranchError(failed[0])
    return complex(eta[0]), float(visibility[0]), comps.report


def _cmd_phase(args, resolved, caught) -> int:
    setup, prep = resolved.setup, resolved.prep
    transition = transition_probability(setup, prep)
    eta, visibility, report = _eta_row(setup, prep)
    header = ["p_excite", "gamma", "visibility", "validity"]
    rows = [[transition.total, eta.real, visibility, validity(setup, prep.photons)]]
    write_outputs(args.output, header, rows, resolved, "phase", _messages(caught),
                  {"truncation": report.as_dict(),
                   "vacuum_truncation": transition.report.as_dict()}, args.quiet)
    return EXIT_OK


def _cmd_resolution(args, resolved, caught) -> int:
    header, rows, comps = compute_rows(resolved)
    threshold = resolution_threshold(comps, resolved.setup, args.floor)
    if not args.quiet:
        sys.stderr.write(
            f"largest n resolving a single photon at floor {args.floor:g} rad: "
            f"{threshold}\n"
        )
    write_outputs(args.output, header, rows, resolved, "resolution", _messages(caught),
                  {"resolution_floor": args.floor, "threshold_n": threshold}, args.quiet)
    return EXIT_OK


def _cmd_fringe(args, resolved, caught) -> int:
    phis = args.phi if args.phi else [0.0]
    for phi in phis:
        if not math.isfinite(phi):
            raise ConfigError(f"--phi must be finite, got {phi}")
    setup, prep = resolved.setup, resolved.prep
    p_plus, p_minus = fringe(phase_components(setup, prep.mode), setup, prep.photons,
                             args.unknown_photons, phis)
    header = ["phi", "p_plus", "p_minus"]
    rows = list(zip(phis, p_plus.tolist(), p_minus.tolist()))
    write_outputs(args.output, header, rows, resolved, "fringe", _messages(caught),
                  {"unknown_photons": args.unknown_photons}, args.quiet)
    return EXIT_OK


def _cmd_verify(args, resolved, caught) -> int:
    setup, prep = resolved.setup, resolved.prep
    if args.scan:
        rows_dicts, converged = convergence_scan(setup, prep, args.scan,
                                                 integ_tol=args.tol,
                                                 headroom=args.headroom,
                                                 others_max=args.others_max)
        header = ["axis", "value", "gamma", "p_excite", "norm_drift", "dimension"]
        rows = [[d["axis"], d["value"], d["gamma"], d["p_excite"],
                 d["norm_drift"], d["dimension"]] for d in rows_dicts]
        summary = "PASS: scan converged" if converged else "FAIL: scan not converged"
        extra = {"scan_converged": converged}
    else:
        trunc = default_truncation(prep, max_mode=args.modes,
                                   headroom=args.headroom,
                                   others_max=args.others_max)
        kept = [b for b, _ in trunc.modes]
        result = evolve(setup, prep, trunc, integ_tol=args.tol)
        pert_p = transition_probability(setup, prep, modes=kept).total
        eta, _, _ = _eta_row(setup, prep, modes=kept)
        pairs = [
            ("p_excite", pert_p, result.p_excite_numeric),
            ("gamma", eta.real, result.eta_numeric.real),
            ("im_eta", eta.imag, result.eta_numeric.imag),
        ]
        header = ["observable", "perturbative", "oracle", "abs_dev", "rel_dev"]
        rows = []
        for name, pert, orac in pairs:
            dev = abs(pert - orac)
            rel = dev / max(abs(orac), 1e-300)
            rows.append([name, pert, orac, dev, rel])
        # Second order is trustworthy when the mismatch is far below the
        # signal itself; flag otherwise.
        ok = abs(eta.real - result.eta_numeric.real) <= 0.05 * max(abs(eta.real), 1e-300)
        ok = ok and result.norm_drift <= 10.0 * args.tol
        summary = ("PASS" if ok else "FAIL") + (
            f": gamma dev {abs(eta.real - result.eta_numeric.real):.3e}, "
            f"norm drift {result.norm_drift:.3e}"
        )
        extra = {
            "oracle": {
                "norm_drift": result.norm_drift,
                "overlap_sq": abs(result.overlap) ** 2,
                **result.step_report,
            },
            "kept_modes": kept,
        }
    write_outputs(args.output, header, rows, resolved, "verify", _messages(caught), extra,
                  args.quiet)
    # keep stdout parseable when it carries the CSV
    stream = sys.stdout if args.output is not None else sys.stderr
    stream.write(summary + "\n")
    return EXIT_OK if summary.startswith("PASS") else EXIT_NUMERIC


def _cmd_sweep(args, resolved, caught) -> int:
    started = time.monotonic()
    csv_path, manifest_path = run_sweep(resolved, args.output, quiet=args.quiet,
                                        messages=_messages(caught))
    if manifest_path is not None and not args.quiet:
        sys.stderr.write(
            f"wrote {csv_path} and {manifest_path.name} in "
            f"{time.monotonic() - started:.2f}s\n"
        )
    return EXIT_OK


_HANDLERS = {
    "amplitudes": _cmd_amplitudes,
    "kernels": _cmd_kernels,
    "transition": _cmd_transition,
    "phase": _cmd_phase,
    "resolution": _cmd_resolution,
    "fringe": _cmd_fringe,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors; fold the
        # latter into the configuration-error code.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        # one capture from config resolution to output, so that every warning
        # reaches the manifest and --quiet silences all of them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if getattr(args, "preset", None):
                if args.config is not None:
                    raise ConfigError("give --preset or --config, not both")
                resolved = resolve_mapping(PRESETS[args.preset])
            elif args.config is not None:
                resolved = parse_config(args.config)
            else:
                raise ConfigError("this command needs --config")
            if resolved.sweep is not None and args.command != "sweep":
                raise ConfigError(f"{args.command} reads no sweep.* keys; remove them "
                                  "or run sweep")
            if args.command == "resolution":
                resolved = replace(resolved, sweep=_resolution_request(args))
            if args.command in ("amplitudes", "kernels"):  # with or without --quadrature-check
                _check_quad_tol(args.quad_tol)
            if args.command == "verify":  # flags, checked before anything evolves
                if args.scan and args.modes is not None:
                    raise ConfigError("verify --scan reads no --modes; remove one of them")
                try:
                    _check_scan_tolerances(args.tol, args.scan)
                except ConvergenceError as exc:
                    raise ConfigError(str(exc)) from None
            code = _guard_validity(args, resolved)
            if code == EXIT_OK:
                code = _HANDLERS[args.command](args, resolved, caught)
            return code
    except (ConfigError, ParameterError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (ConvergenceError, BranchError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
