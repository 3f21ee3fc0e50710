"""Nonperturbative ground truth: exact evolution in a truncated Fock space.

Integrates i dpsi/dt = H(t) psi for the joint atom-field state with the full
interaction-picture coupling

    H(t) = lambda (sigma+ e^{i Omega t} + sigma- e^{-i Omega t})
           * Sum_beta (a_beta^dag e^{i omega_beta t} + a_beta e^{-i omega_beta t})
           * sin(k_beta v t) / sqrt(k_beta L),

no rotating-wave or single-mode approximation, over the transit [0, T].  On
the basis (ground, excited) x field it is the block matrix

    H(t) = [[0, F(t)^dag], [F(t), 0]],
    F(t) = Sum_beta (w+_beta(t) a_beta^dag + w-_beta(t) a_beta),
    w+/-_beta(t) = lambda sin(k_beta v t) / sqrt(beta pi) e^{i (Omega +/- omega_beta) t},

where F(t) raises the atom.  The weights come from one function and the
field ladders from one stacked operator, shared by :func:`build_hamiltonian`
and the propagator of :func:`evolve`.

:func:`evolve` solves the integral form psi(t) = psi(t0) - i int H psi by
block Chebyshev-Picard iteration (Clenshaw & Norton, Comput. J. 6, 88 (1963);
Bai & Junkins, J. Astronaut. Sci. 58, 583 (2011)).  The transit is cut into
panels of equal length h, each spanning at most 2 * PANEL_PHASE radians of the
fastest carrier e^{i nu t} in H(t), with nu_max = max|Omega +/- omega_beta| +
max k_beta v; each panel carries the CHEB_DEGREE + 1 Chebyshev-Lobatto nodes.
Runs of consecutive panels form a block; one Picard sweep evaluates H psi at
every node of a block in one batch and integrates it with one spectral
integration matrix, so the carriers are integrated rather than stepped
through.  H conserves (atom excitation + total photons) mod 2, so only the
sector of |g, n> is carried, and as H is block off-diagonal a sweep updates
its excited half from the ground half, then the ground half from the new
excited half (Gauss-Seidel order).  The two halves are the only state.

The overlap with the initial state yields a numerically exact eta to compare
with the second-order closed forms; the mismatch must shrink like lambda^4.

Run this at scaled parameters (c = 1, L = 1, moderate gap): the phase physics
is invariant under rescaling the cavity at fixed lambda/Omega and v, while SI
optical frequencies would demand ~1e6 oscillations per transit for no gain.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import chebyshev

from .amplitudes import ConvergenceError, _chebyshev_coefficients, _lobatto_nodes
from .model import (
    FieldPreparation,
    ParameterError,
    ProbeSetup,
    ProbeWarning,
)
from .observables import _warn_validity, validity

DIMENSION_CAP = 200_000

# Tightest rtol the propagator certifies: the Chebyshev tail of a resolved
# integrand bottoms out near 2e-15 in rounding, so a smaller bound on it
# could be met only by luck.
INTEG_TOL_FLOOR = 100.0 * np.finfo(float).eps
# integ_tol must lie below this: at 0.1 the unitarity bound 10 * integ_tol
# lets the norm be off by 100%.
INTEG_TOL_CEILING = 0.1

CHEB_DEGREE = 32       # Chebyshev-Lobatto nodes per panel: CHEB_DEGREE + 1
PANEL_PHASE = 8.0      # half the fastest carrier phase one panel spans
BLOCK_BYTES = 2 ** 18  # budget of one (nodes x dimension) complex working array
SWEEP_CAP = 60         # Picard sweeps per block before ConvergenceError
HALVING_CAP = 4        # panel halvings per block before ConvergenceError


class DimensionCapError(ParameterError):
    """Requested truncated space exceeds the amplitude budget."""


@dataclass(frozen=True)
class HilbertTruncation:
    """Per-mode photon caps defining the truncated joint space.

    ``modes`` is a tuple of (mode index, max photons).  The probed mode needs
    max photons >= n + 2: two-quanta shifts of the probed mode are populated
    already at second order.
    """

    modes: tuple

    def __post_init__(self):
        betas = [b for b, _ in self.modes]
        if len(betas) != len(set(betas)):
            raise ParameterError("duplicate mode indices in truncation")
        if any(b < 1 or nm < 1 for b, nm in self.modes):
            raise ParameterError("mode indices and photon caps must be positive")

    @property
    def dimension(self) -> int:
        d = 2
        for _, nmax in self.modes:
            d *= nmax + 1
        return d

    def check(self, prep: FieldPreparation) -> None:
        caps = dict(self.modes)
        if prep.mode not in caps:
            raise ParameterError(f"probed mode {prep.mode} missing from truncation")
        if caps[prep.mode] < prep.photons + 2:
            raise ParameterError(
                f"probed-mode cap {caps[prep.mode]} must be at least n + 2 = "
                f"{prep.photons + 2}"
            )
        if self.dimension > DIMENSION_CAP:
            raise DimensionCapError(f"truncated dimension exceeds cap {DIMENSION_CAP}")


def default_truncation(
    prep: FieldPreparation,
    max_mode: int | None = None,
    headroom: int = 4,
    others_max: int = 2,
) -> HilbertTruncation:
    """Modes 1..alpha+1 with n + headroom photons on the probed mode, others_max elsewhere."""
    top = max_mode if max_mode is not None else prep.mode + 1
    if top < prep.mode:
        raise ParameterError("truncation must include the probed mode")
    # each retained mode holds at least one photon, so at least doubles the
    # dimension: a mode count that passes the cap is refused before its tuple
    if top + 1 > math.log2(DIMENSION_CAP):
        raise DimensionCapError(f"{top} modes exceed the dimension cap {DIMENSION_CAP}")
    modes = tuple(
        (beta, prep.photons + headroom if beta == prep.mode else others_max)
        for beta in range(1, top + 1)
    )
    return HilbertTruncation(modes=modes)


class _OracleSpace:
    """Basis layout, stacked field ladders and photon-parity sectors of one truncation.

    Basis index = atom * field_dim + field index, atom 0 ground and 1
    excited; the field index encodes the occupation digits of the modes in
    listed order, last mode fastest.  ``ladders`` is the real
    (2K field_dim, field_dim) stack of a_1^dag..a_K^dag, a_1..a_K on the field
    space: a_i^dag takes field index f - s_i to f with factor sqrt(n_i(f)),
    where s_i is the index stride of mode i and n_i(f) >= 1 its photons in f.
    Every ladder moves one photon, so from |g, n> only the ground half on
    photon parity n mod 2 and the excited half on the other are reached:
    ``sectors[p]`` lists the field indices of parity p and ``hops[p]`` is the
    transposed stack from sector p to sector 1 - p.
    """

    def __init__(self, truncation: HilbertTruncation):
        from scipy import sparse  # here, so that importing fockprobe loads no scipy

        modes = sorted(truncation.modes)
        self.betas = np.array([b for b, _ in modes])
        self.dims = [nmax + 1 for _, nmax in modes]
        self.field_dim = fd = int(np.prod(self.dims))
        self.dim = 2 * fd
        count = len(self.dims)
        index = np.arange(fd)
        self.parity = np.zeros(fd, dtype=int)  # of the total photon number
        rows, cols, values = [], [], []
        for i, d in enumerate(self.dims):
            stride = int(np.prod(self.dims[i + 1:]))
            photons = index // stride % d
            self.parity ^= photons & 1
            raised = index[photons > 0]
            rows += [i * fd + raised, (count + i) * fd + raised - stride]  # a_i^dag, a_i
            cols += [raised - stride, raised]
            values += [np.sqrt(photons[raised])] * 2
        self.ladders = sparse.csr_matrix(
            (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
            shape=(2 * count * fd, fd))
        self.sectors = tuple(np.flatnonzero(self.parity == p) for p in (0, 1))
        blocks = fd * np.arange(2 * count)[:, None]
        self.hops = tuple(self.ladders[(blocks + source).ravel()][:, target].T.tocsr()
                          for source, target in (self.sectors, self.sectors[::-1]))

    def initial_index(self, prep: FieldPreparation) -> int:
        mi = list(self.betas).index(prep.mode)
        return prep.photons * int(np.prod(self.dims[mi + 1:]))

    def hop_weights(self, weights):
        """-i times the weights of ``hops`` in F and F^dag, from (2K, M) :func:`_coefficients`."""
        return -1j * np.roll(weights, len(self.betas), axis=0), -1j * np.conj(weights)


def _hop(stack, weights, psi, out, work):
    """Write Sum_j w_j L_j psi_m for a batch of M nodes, sector p to 1 - p, to ``out``.

    ``stack`` is ``hops[p]`` and ``weights`` its (2K, M) weights from
    :meth:`_OracleSpace.hop_weights`; ``psi`` is (M, sector p), ``out`` (M,
    sector 1 - p) and ``work`` a complex buffer of at least M * stack columns.
    One sparse product stack (w (x) psi), real ladders on the real view.
    """
    count = len(psi)
    weighted = work[:count * stack.shape[1]].reshape(len(weights), -1, count)
    np.multiply(psi.T, weights[:, None, :], out=weighted)
    out[...] = (stack @ weighted.reshape(-1, count).view(float)).view(complex).T


def _coefficients(setup: ProbeSetup, betas, t):
    """Weights w of F(t) = w . (a_1^dag..a_K^dag, a_1..a_K), one row per time in ``t``.

    w^(+/-)_beta = lambda sin(k_beta v t) / sqrt(beta pi) e^{i (Omega +/- omega_beta) t};
    a scalar ``t`` gives the 2K weights, an array of times a trailing axis of 2K.
    """
    t = np.asarray(t, dtype=float)[..., None]
    envelopes = setup.coupling / np.sqrt(betas * np.pi) * np.sin(
        setup.wavenumber(betas) * setup.atom_speed * t)
    omegas = setup.mode_frequency(betas)
    return np.concatenate((envelopes, envelopes), axis=-1) * np.exp(
        1j * (setup.atom_gap + np.concatenate((omegas, -omegas))) * t)


def build_hamiltonian(setup: ProbeSetup, truncation: HilbertTruncation, t: float):
    """Sparse Hermitian H(t) = [[0, F(t)^dag], [F(t), 0]] on the truncated space."""
    from scipy import sparse

    space = _OracleSpace(truncation)
    w = _coefficients(setup, space.betas, t)
    F = sparse.kron(w[None, :], sparse.identity(space.field_dim)) @ space.ladders
    return sparse.bmat([[None, F.conj().T], [F, None]], format="csr")


def _check_integ_tol(integ_tol: float, label: str = "integ_tol") -> None:
    # written as "not (...)" so that NaN is rejected too
    if not INTEG_TOL_FLOOR <= integ_tol < INTEG_TOL_CEILING:
        raise ConvergenceError(
            f"{label} {integ_tol:.3g} is unusable: it must be at least "
            f"{INTEG_TOL_FLOOR:.3g}, the tightest rtol the propagator certifies "
            f"(100 x machine epsilon), and below {INTEG_TOL_CEILING:g}, where the "
            f"unitarity bound 10 x integ_tol lets the norm be off by 100%"
        )


@cache
def _chebyshev_panel(degree: int):
    """Lobatto nodes x on [-1, 1], the matrix S with int_{-1}^{x_i} f = Sum_j S_ij f(x_j)
    for the interpolant of degree ``degree``, and the rows giving its last two
    Chebyshev coefficients; built once per process, on first use."""
    nodes = _lobatto_nodes(degree)
    to_coefficients = _chebyshev_coefficients(np.eye(degree + 1))
    antiderivatives = chebyshev.chebint(np.eye(degree + 1), lbnd=-1)
    integrate = chebyshev.chebval(nodes, antiderivatives).T @ to_coefficients
    integrate[0] = 0.0  # the panel's left end
    return nodes, integrate, to_coefficients[-2:]


class _PicardPropagator:
    """Block Chebyshev-Picard transit of one truncated space from 0 to T.

    A block holds as many panels as fit BLOCK_BYTES per (nodes x dim) array and
    keep block length * ||H|| <= 1/2, and at least one.  The working arrays are
    allocated once and reused by every sweep: faulting in fresh pages for
    each sweep cost more than the sweep's arithmetic.
    """

    def __init__(self, space: _OracleSpace, setup: ProbeSetup, integ_tol: float):
        self.space, self.setup, self.integ_tol = space, setup, integ_tol
        self.nodes, self.integrate, self.tail = _chebyshev_panel(CHEB_DEGREE)
        omegas = setup.mode_frequency(space.betas)
        nu_max = (np.max(np.abs(setup.atom_gap + np.concatenate((omegas, -omegas))))
                  + np.max(setup.wavenumber(space.betas)) * setup.atom_speed)
        self.panel_count = int(np.ceil(setup.crossing_time * nu_max / (2.0 * PANEL_PHASE)))
        # ||H(t)|| = ||F(t)|| <= Sum_j |w_j| ||L_j||, |w_j| <= lambda / sqrt(beta pi), ||a|| = sqrt(cap)
        caps = np.array(space.dims) - 1
        self.norm = 2.0 * setup.coupling * np.sum(np.sqrt(caps / (space.betas * np.pi)))
        self.budget = max(1, BLOCK_BYTES // (len(self.nodes) * space.dim * 16))
        self.steps = 0         # panels accepted
        self.evaluations = 0   # node evaluations of H psi, rejected blocks included

    def run(self, start):
        """(ground, excited) halves of psi(T), on sectors p and 1 - p, from |g, ``start``>."""
        space, parity = self.space, self.space.parity[start]
        # (ground, excited) field indices, and the stacks of F and F^dag
        halves = space.sectors[parity], space.sectors[1 - parity]
        self.stacks = space.hops[parity], space.hops[1 - parity]
        size = len(self.nodes) * self.budget
        self.shift, self.moved, self.rates = (
            [np.empty(size * len(half), dtype=complex) for half in halves] for _ in range(3))
        self.work = np.empty(size * max(stack.shape[1] for stack in self.stacks), dtype=complex)
        h = self.setup.crossing_time / self.panel_count
        # start is a ground-sector index: the excited half starts empty
        return self._march([(half == start).astype(complex) for half in halves],
                           0.0, h, self.panel_count, 0)

    def _march(self, psi, start, h, panels, halvings):
        if self.budget * h * self.norm <= 0.5:
            per_block = self.budget
        else:
            per_block = max(1, int(0.5 / (h * self.norm)))
        for first in range(0, panels, per_block):
            count = min(per_block, panels - first)
            begin = start + first * h
            end = self._block(psi, begin, h, count)
            if end is not None:
                self.steps += count
                psi = end
            elif halvings < HALVING_CAP:
                psi = self._march(psi, begin, 0.5 * h, 2 * count, halvings + 1)
            else:
                raise ConvergenceError(
                    f"Chebyshev tail above rtol {self.integ_tol:.3g} on "
                    f"[{begin:.6g}, {begin + count * h:.6g}] after {HALVING_CAP} "
                    f"panel halvings"
                )
        return psi

    def _block(self, psi0, start, h, panels):
        """Sweep psi = psi0 - i int H psi over ``panels`` panels of length ``h`` from ``start``.

        ``psi0`` holds the (ground, excited) halves, and each sweep updates the
        excited half before the ground half.  Returns the end halves, or None
        when the last two Chebyshev coefficients of some panel's integrand
        exceed ``integ_tol`` times the block's largest |H psi|, i.e. the panels
        are too long for the carriers.  Raises :class:`ConvergenceError` when a
        sweep still changes some real or imaginary part by more than
        ``integ_tol / 100`` after SWEEP_CAP sweeps.
        """
        nodes = len(self.nodes)
        times = start + h * (np.arange(panels) + 0.5 * (1.0 + self.nodes[:, None]))
        weights = self.space.hop_weights(np.ascontiguousarray(
            _coefficients(self.setup, self.space.betas, times).reshape(nodes * panels, -1).T))
        integrate = 0.5 * h * self.integrate
        # displacement from psi0 at every node, panels side by side: (nodes, panels, half)
        shift, moved, rates = (
            [buffer[:nodes * panels * len(half)].reshape(nodes, panels, -1)
             for buffer, half in zip(buffers, psi0)]
            for buffers in (self.shift, self.moved, self.rates))
        for half in shift:
            half[...] = 0.0
        for sweep in range(1, SWEEP_CAP + 1):
            update = 0.0
            for source, target in ((0, 1), (1, 0)):
                # moved[source] is free until its own half's GEMM
                state = np.add(shift[source], psi0[source], out=moved[source])
                _hop(self.stacks[source], weights[source], state.reshape(nodes * panels, -1),
                     rates[target].reshape(nodes * panels, -1), self.work)
                # one real GEMM with the nodes as rows: (nodes, 2 * panels * half)
                np.matmul(integrate, rates[target].reshape(nodes, -1).view(float),
                          out=moved[target].reshape(nodes, -1).view(float))
                # each panel starts where the last ended
                moved[target][:, 1:] += np.cumsum(moved[target][-1, :-1], axis=0)
                change = np.subtract(moved[target], shift[target], out=shift[target]).view(float)
                update = max(update, change.max(), -change.min())
                shift[target], moved[target] = moved[target], shift[target]
            if update <= 1e-2 * self.integ_tol:
                break
        else:
            raise ConvergenceError(
                f"Picard sweeps stalled at update {update:.3g} after {SWEEP_CAP} "
                f"sweeps over [{start:.6g}, {start + panels * h:.6g}]"
            )
        self.evaluations += sweep * nodes * panels
        tail = max(np.abs(self.tail @ half.reshape(nodes, -1)).max() for half in rates)
        if tail > self.integ_tol * max(np.abs(half).max() for half in rates):
            return None
        return [half0 + half[-1, -1] for half0, half in zip(psi0, shift)]


@dataclass(frozen=True)
class OracleResult:
    """Exactly evolved transit outcome."""

    overlap: complex          # <psi(0)|psi(T)>
    eta_numeric: complex      # -i Ln(overlap)
    p_excite_numeric: float   # total weight on the excited atom
    norm_drift: float         # | ||psi(T)|| - 1 |
    step_report: dict


def evolve(
    setup: ProbeSetup,
    prep: FieldPreparation,
    truncation: HilbertTruncation | None = None,
    integ_tol: float = 1e-10,
) -> OracleResult:
    """Exact transit, 0 to T = L/v, by block Chebyshev-Picard iteration.

    Panels of CHEB_DEGREE + 1 Chebyshev-Lobatto nodes each span at most
    2 * PANEL_PHASE radians of the fastest carrier; a block of panels is
    swept until the largest update is at most atol = ``integ_tol`` / 100, and
    is redone with halved panels unless the last two Chebyshev coefficients
    of every panel's integrand are at most rtol = ``integ_tol`` relative to
    the block's largest |H psi|.  Only the photon-parity sector of |g, n> is
    propagated, a sweep updating its excited half and then its ground half;
    the overlap, p_excite and norm are read from the two halves.
    ``step_report`` records the panels taken (``steps``), the node
    evaluations of H psi, one per node and sweep (``rhs_evaluations``), both
    tolerances and the dimension of the whole truncated space.  Raises
    :class:`ConvergenceError` before integrating if ``integ_tol`` is below
    :data:`INTEG_TOL_FLOOR` (100 * machine epsilon, ~2.2e-14: the Chebyshev
    tail bottoms out near 2e-15 in rounding, so a tighter rtol cannot be
    certified), is at least :data:`INTEG_TOL_CEILING` (0.1, where the
    unitarity bound below allows a norm off by 100%) or is NaN; when a
    block's sweeps or panel halvings hit their cap; and after integrating if
    the final norm drifts by more than 10 * integ_tol (unitarity bound).
    Warns when the validity estimator is outside the trusted range.
    """
    _check_integ_tol(integ_tol)
    if truncation is None:
        truncation = default_truncation(prep)
    truncation.check(prep)
    _warn_validity(validity(setup, prep.photons))

    space = _OracleSpace(truncation)
    start = space.initial_index(prep)
    propagator = _PicardPropagator(space, setup, integ_tol)
    ground, excited = propagator.run(start)
    rtol = integ_tol
    atol = integ_tol * 1e-2
    overlap = complex(ground[np.searchsorted(space.sectors[space.parity[start]], start)])
    norm_drift = abs(math.hypot(np.linalg.norm(ground), np.linalg.norm(excited)) - 1.0)
    if norm_drift > 10.0 * integ_tol:
        raise ConvergenceError(
            f"norm drift {norm_drift:.3g} exceeds unitarity bound "
            f"{10.0 * integ_tol:.3g}; tighten integ_tol"
        )
    p_excite = float(np.sum(np.abs(excited) ** 2))
    return OracleResult(
        overlap=overlap,
        eta_numeric=-1j * cmath.log(overlap),
        p_excite_numeric=p_excite,
        norm_drift=norm_drift,
        step_report={
            "steps": propagator.steps,
            "rhs_evaluations": propagator.evaluations,
            "integ_tol": integ_tol,
            "rtol": rtol,
            "atol": atol,
            "dimension": space.dim,
        },
    )


SCAN_AXES = ("modes", "headroom", "integ_tol")
SCAN_LEVELS = 3
SCAN_RELATIVE_TOL = 1e-3


def _check_scan_tolerances(integ_tol: float, axis: str | None, levels: int = SCAN_LEVELS) -> None:
    """:func:`_check_integ_tol` on integ_tol and on a scan's tightest level."""
    _check_integ_tol(integ_tol)
    if axis == "integ_tol":
        last = max(levels - 1, 0)
        _check_integ_tol(integ_tol * 10.0 ** (-last), f"scan tolerance integ_tol * 1e-{last} =")


def convergence_scan(
    setup: ProbeSetup,
    prep: FieldPreparation,
    axis: str,
    levels: int = SCAN_LEVELS,
    headroom: int = 4,
    others_max: int = 2,
    integ_tol: float = 1e-10,
):
    """Observables versus one truncation axis; flags non-convergence.

    axis "modes" grows the retained mode set, "headroom" the probed-mode cap,
    "integ_tol" tightens the integrator.  Convergence is declared when the
    last two gamma and p_excite values agree to 1e-3 relative.  The loosest
    and the tightest tolerance the scan will use are checked against
    :data:`INTEG_TOL_CEILING` and :data:`INTEG_TOL_FLOOR` before any level
    runs.  Returns (rows, converged); each row is a dict suitable for CSV
    emission.
    """
    if axis not in SCAN_AXES:
        raise ParameterError(f"axis must be one of {SCAN_AXES}, got {axis!r}")
    _check_scan_tolerances(integ_tol, axis, levels)
    rows = []
    for level in range(levels):
        if axis == "modes":
            param = prep.mode + 1 + level
            trunc = default_truncation(prep, max_mode=param, headroom=headroom,
                                       others_max=others_max)
            tol = integ_tol
        elif axis == "headroom":
            param = headroom + 2 * level
            trunc = default_truncation(prep, headroom=param, others_max=others_max)
            tol = integ_tol
        else:
            param = integ_tol * 10.0 ** (-level)
            trunc = default_truncation(prep, headroom=headroom, others_max=others_max)
            tol = param
        result = evolve(setup, prep, trunc, integ_tol=tol)
        rows.append(
            {
                "axis": axis,
                "value": param,
                "gamma": result.eta_numeric.real,
                "p_excite": result.p_excite_numeric,
                "norm_drift": result.norm_drift,
                "dimension": result.step_report["dimension"],
            }
        )
    converged = len(rows) >= 2 and all(
        abs(rows[-1][key] - rows[-2][key]) / max(abs(rows[-1][key]), 1e-300)
        < SCAN_RELATIVE_TOL for key in ("gamma", "p_excite"))
    if not converged:
        warnings.warn(
            f"convergence scan along {axis!r} not converged at "
            f"{levels} levels (relative tolerance {SCAN_RELATIVE_TOL:g})",
            ProbeWarning,
            stacklevel=2,
        )
    return rows, converged
