"""Critical-set search: eigenspace scan, self-consistency, stability, classify.

Null-cone critical states are found by scanning candidate Weyl-chamber points
``alpha``: the operator built from ``alpha`` is diagonal in every canonical
sector basis, its degenerate eigenspaces are enumerated, and inside each
eigenspace the states whose momentum image equals ``alpha`` are located by
the flow of the squared momentum norm, which stays inside the eigenspace.
Every returned state is an actual critical point of the squared momentum norm.
A point can carry one only if some basis ket lies at the level
``||alpha||^2``; ``_level_screen`` tests that for many points in one batched
product, so that the scan builds eigenspaces only where it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .errors import NotConverged
from .flow import (
    ZERO_STRATUM_MU2,
    FlowConfig,
    FlowTrace,
    _on_zero_level,
    _snapped_spectra,
    flow_to_critical,
)
from .momentum import (
    SpectrumPoint,
    _generator_block,
    _GeneratorBlock,
    _one_body_diagonal,
    casimir_constant,
    momentum,
    nnls,
    psi,
)
from .morse import (
    _critical_spectrum,
    complement_hessian_spectrum,  # noqa: F401  (the benchmark tracer wraps this binding)
    index_from_spectrum,
)
from .statespace import (
    PureState,
    Sector,
    _ket_weights,
    normalize,
)

DEGENERACY_REL_GAP = 1e-9
# Largest distance of a block eigenvalue from the level ``||alpha||^2`` at
# which NNLS still runs: about 1000x the slack of a feasible block.
LEVEL_TOL = 1e-6


class Stability(str, Enum):
    STABLE = "stable"
    SEMISTABLE = "semistable"
    NULLCONE = "nullcone"


@dataclass(frozen=True)
class CriticalRecord:
    """Family invariants at (or reached from) a state."""

    state: PureState
    lambda_value: float
    d_value: float
    variance: float
    stratum: SpectrumPoint
    morse_index: int | None = None
    stability: Stability | None = None
    hessian_spectrum: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        return {
            "lambda": self.lambda_value,
            "d": self.d_value,
            "variance": self.variance,
            "morse_index": self.morse_index,
            "stability": None if self.stability is None else self.stability.value,
            "stratum": self.stratum.to_json(),
            "hessian_spectrum": (
                None
                if self.hessian_spectrum is None
                else list(self.hessian_spectrum)
            ),
            "terminal_state": self.state.to_json(),
            "zero_stratum_threshold": ZERO_STRATUM_MU2,
        }


@dataclass(frozen=True)
class EigenspaceReport:
    """One eigenvalue block of the diagonal chamber operator."""

    alpha: SpectrumPoint
    eigenvalue: float
    multiplicity: int
    basis: np.ndarray

    def csv_row(self) -> str:
        return f"{self.eigenvalue:.17g},{self.multiplicity}"


def eigenspace_csv(reports: list[EigenspaceReport]) -> str:
    """Eigenvalue/multiplicity table for a list of eigenspace reports."""
    return "\n".join(["eigenvalue,multiplicity"] + [r.csv_row() for r in reports])


def is_critical(state: PureState, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether the projected momentum direction vanishes, plus the Rayleigh value."""
    block = _generator_block(state.sector, normalize(state).to_tensor())
    return block.grad_norm <= tol, block.lam


def alpha_star_eigenspaces(
    alpha: SpectrumPoint, rel_gap: float = DEGENERACY_REL_GAP
) -> list[EigenspaceReport]:
    """Eigenvalue blocks of the diagonal chamber operator, with degeneracy grouping."""
    alpha.validate_weyl_chamber()
    dim = alpha.sector.dim
    values = _one_body_diagonal(alpha.sector, alpha.spectra)
    order = np.argsort(values)[::-1]
    ranked = values[order]
    breaks, _ = _block_breaks(ranked, rel_gap)
    ends = (np.flatnonzero(breaks) + 1).tolist()
    # Column c holds the basis ket order[c]; each block is a run of columns.
    ranked_kets = np.zeros((dim, dim), dtype=complex)
    ranked_kets[order, np.arange(dim)] = 1.0
    reports: list[EigenspaceReport] = []
    for lo, hi in zip([0, *ends], [*ends, dim]):
        # ``np.mean`` of the block: its sum over its size.
        eig = float(np.add.reduce(ranked[lo:hi]) / (hi - lo))
        reports.append(EigenspaceReport(alpha, eig, hi - lo, ranked_kets[:, lo:hi]))
    return reports


def _block_breaks(ranked: np.ndarray, rel_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Where sorted chamber values split into eigenvalue blocks, and the gap.

    ``ranked`` is sorted along its last axis.  Entry ``i`` of the mask is true
    where values ``i`` and ``i + 1`` differ by more than the row's gap
    ``rel_gap * max(1, max |v|)``, returned with that axis kept; a block is a
    run of values between two breaks.
    """
    gap = rel_gap * np.maximum(
        1.0, np.max(np.abs(ranked), axis=-1, keepdims=True, initial=0.0)
    )
    return np.abs(np.diff(ranked, axis=-1)) > gap, gap


def _chamber_level(sector: Sector, spectra: np.ndarray) -> np.ndarray:
    """The level ``c . b`` of chamber points whose spectra are stacked on the last axis.

    ``c`` stacks the spectra and ``b = c + 1/N`` is the NNLS target; identical
    particles carry the factor ``L`` (``Sector.copies``).
    """
    return sector.copies * np.sum(spectra * (spectra + 1.0 / sector.local_dim), axis=-1)


def _level_screen(sector: Sector, spectra: np.ndarray) -> tuple[np.ndarray, int]:
    """Which chamber points can hold an on-level block, and the longest block.

    ``spectra`` has one row per point, its spectra concatenated; the ket
    values of every row are ``spectra @ _ket_weights(sector)``, the diagonal
    of its chamber operator.  ``_marginal_feasible`` passes a block only if
    its mean lies within ``LEVEL_TOL`` of the level, and every value of a
    block lies within ``size - 1`` gaps of its mean, so a point is kept when
    some ket value lies within ``LEVEL_TOL`` plus ``dim`` gaps of its level
    (the last gap covers rounding).  The longest block is taken over every
    row with the default grouping of ``alpha_star_eigenspaces``.
    """
    values = spectra @ _ket_weights(sector)
    breaks, gap = _block_breaks(np.sort(values, axis=-1), DEGENERACY_REL_GAP)
    level = _chamber_level(sector, spectra)[:, None]
    keep = np.any(np.abs(values - level) <= LEVEL_TOL + values.shape[1] * gap, axis=-1)
    # Every row opens a block, so no run of the flat mask spans two rows.
    starts = np.flatnonzero(np.column_stack([np.ones(len(values), bool), breaks]))
    return keep, int(np.diff(starts, append=values.size).max())


def _marginal_feasible(report: EigenspaceReport, tol: float = 1e-9) -> bool:
    """Necessary condition: basis weights reproducing the diagonal marginals.

    Solves a nonnegative least-squares for a probability vector over the
    eigenspace's basis kets whose per-party level populations equal the
    target density diagonals; infeasibility rules the eigenspace out before
    any flow.  Every ket of the block has chamber value
    ``c . A[:, k]`` equal to the block eigenvalue, where ``c`` stacks the
    spectra (times ``L`` for identical particles), so a feasible block lies
    at the level ``c . b = ||alpha||^2``; blocks off that level skip the
    solve.
    """
    sector = report.alpha.sector
    spectra = np.concatenate(report.alpha.spectra)
    if abs(report.eigenvalue - _chamber_level(sector, spectra)) > LEVEL_TOL:
        return False
    b = spectra + 1.0 / sector.local_dim
    kets = np.argmax(np.abs(report.basis), axis=0)
    rows = _ket_weights(sector)[:, kets] / sector.copies
    A = np.vstack([rows, np.ones(kets.size)])
    _, residual = nnls(A, np.append(b, 1.0))
    return residual <= tol


def self_consistent_critical(
    report: EigenspaceReport,
    tol: float = 1e-8,
    restarts: int = 32,
    seed: int = 0,
    max_iterations: int = 4000,
) -> list[PureState]:
    """The first verified state in the eigenspace whose momentum image is ``alpha``.

    Flows ``||mu||^2`` (``flow_to_critical``) from the uniform vector of the
    block and then from seeded random vectors in it.  The flow never leaves
    the block: for ``v`` in it, ``mu(v)`` commutes with ``alpha``, so every
    move keeps ``v`` there.  On the block ``<mu, alpha> = ||alpha||^2``, which
    forces ``||mu||^2 >= ||alpha||^2`` with equality exactly when
    ``mu = alpha`` (Kirwan 1984; Ness 1984), so the minima of the flow in the
    block are the states sought.  The first terminal that verifies as
    critical with the requested spectrum is returned as a one-element list:
    ``d`` and the Morse index are constant on the critical set of ``alpha``,
    so one representative carries them.  ``restarts`` bounds the number of
    starts and ``max_iterations`` caps the flow moves of each; a start whose
    flow hits the cap is skipped.  An empty list means none of them verified.
    """
    if not _marginal_feasible(report):
        return []
    sector = report.alpha.sector
    m = report.multiplicity
    rng = np.random.default_rng(seed)
    starts = [np.ones(m)] + [
        rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for _ in range(max(restarts - 1, 0))
    ]
    config = FlowConfig(max_iterations=max_iterations)
    for z0 in starts:
        try:
            candidate, trace = flow_to_critical(PureState(sector, report.basis @ z0), config)
        except NotConverged:
            continue
        # No flow stops on the zero level in the block, where ``||mu||^2 >= ||alpha||^2``.
        if trace.samples[-1][2] <= tol and psi(candidate).allclose(report.alpha, tol):
            return [candidate]
    return []


def orbit_dimension(state: PureState, rel_tol: float = 1e-10) -> int:
    """Real dimension of the invertible-local-operations orbit through the state."""
    state = normalize(state)
    return _orbit_dimension(state, _generator_block(state.sector, state.to_tensor()), rel_tol)


def _orbit_dimension(state: PureState, block: _GeneratorBlock, rel_tol: float = 1e-10) -> int:
    """``orbit_dimension`` of a unit state from its ``_generator_block``."""
    s = np.linalg.svd(block.orbit_columns(state.amplitudes), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    # The real span of {cols, i*cols} has twice the complex rank.
    return 2 * int(np.sum(s > s[0] * rel_tol))


def group_dimension(sector: Sector) -> int:
    """Real dimension of the invertible local-operations group."""
    N = sector.local_dim
    return 2 * (N * N - 1) * sector.acting


def stability_class(state: PureState, config: FlowConfig | None = None) -> Stability:
    """Null cone / semistable / stable, via flow distance and orbit dimension."""
    terminal, trace = flow_to_critical(state, config)
    return _stability_from(momentum(terminal).norm_sq(), state, trace._blocks[0])


def _stability_from(lam: float, state: PureState, block: _GeneratorBlock) -> Stability:
    """Stability of ``state``, whose ``_generator_block`` is ``block``, at flow level ``lam``."""
    if not _on_zero_level(lam):
        return Stability.NULLCONE
    if _orbit_dimension(normalize(state), block) == group_dimension(state.sector):
        return Stability.STABLE
    return Stability.SEMISTABLE


def classify(
    state: PureState,
    config: FlowConfig | None = None,
    morse_tol: float = 1e-6,
) -> CriticalRecord:
    """Full family record: flow to the critical orbit and read off invariants."""
    record, _ = classify_with_trace(state, config, morse_tol)
    return record


def classify_with_trace(
    state: PureState,
    config: FlowConfig | None = None,
    morse_tol: float = 1e-6,
) -> tuple[CriticalRecord, FlowTrace]:
    state = normalize(state)
    terminal, trace = flow_to_critical(state, config)
    # The flow's input and terminal blocks give the stability test and the Morse frame.
    first, last = trace._blocks
    # One momentum image gives the level, the variance (``Var + ||mu||^2`` is
    # constant on the sector), the stratum and the zero-level test.
    point = momentum(terminal)
    lam = point.norm_sq()
    d = math.sqrt(max(lam, 0.0))
    # One compressed spectrum gives the reported spectrum and the index; the
    # zero level builds no frame.
    hess = _critical_spectrum(terminal, point, last, morse_tol)
    record = CriticalRecord(
        state=terminal,
        lambda_value=lam,
        d_value=d,
        variance=casimir_constant(terminal.sector) - lam,
        stratum=_snapped_spectra(point),
        morse_index=index_from_spectrum(hess),
        stability=_stability_from(lam, state, first),
        hessian_spectrum=tuple(float(x) for x in hess),
    )
    return record, trace


def qubit_weyl_grid(
    parties: int, max_denominator: int = 12
) -> list[tuple[float, ...]]:
    """Rational grid of qubit chamber points inside the polygonal polytope.

    Yields tuples ``(l_1, ..., l_L)`` with each ``l_p`` in ``[0, 1/2]`` of
    denominator at most ``max_denominator``, excluding the origin, filtered
    by the polygonal inequalities on the minimal eigenvalues.
    """
    # Exact integer numerators over D = lcm(1..q): n / D is the grid value.
    D = math.lcm(*range(1, max_denominator + 1))
    numerators = sorted(
        {a * (D // b) for b in range(1, max_denominator + 1) for a in range(b // 2 + 1)}
    )
    grid: list[tuple[float, ...]] = []
    for combo in product(numerators, repeat=parties):
        if not any(combo):
            continue
        # D - 2n is 2D times the minimal eigenvalue 1/2 - n/D.
        minima = [D - 2 * n for n in combo]
        total = sum(minima)
        if any(m > total - m for m in minima):
            continue
        grid.append(tuple(n / D for n in combo))
    return grid


def qubit_spectrum_point(sector: Sector, lambdas: tuple[float, ...]) -> SpectrumPoint:
    """Chamber point of a qubit sector from per-party top eigenvalue shifts."""
    spectra = tuple(np.array([lam, -lam]) for lam in lambdas)
    return SpectrumPoint(sector, spectra)
