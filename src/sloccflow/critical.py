"""Critical-set search: eigenspace scan, self-consistency, stability, classify.

Null-cone critical states are found by scanning candidate Weyl-chamber points
``alpha``: the operator built from ``alpha`` is diagonal in every canonical
sector basis, its degenerate eigenspaces are enumerated, and inside each
eigenspace the states whose momentum image equals ``alpha`` are located by
projected gradient descent on the unit sphere.  Every returned state is an
actual critical point of the squared momentum norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.optimize import nnls

from .flow import (
    ZERO_STRATUM_MU2,
    FlowConfig,
    FlowTrace,
    flow_to_critical,
    projected_gradient,
    terminal_stratum,
)
from .momentum import (
    SpectrumPoint,
    momentum,
    mu_star_apply,
    psi,
    total_variance,
)
from .morse import (
    complement_hessian_spectrum,
    critical_above_zero_level,
    index_from_spectrum,
    orbit_action_columns,
)
from .statespace import (
    BOSONIC,
    DISTINGUISHABLE,
    PureState,
    Sector,
    _apply_on_axis,
    _matricize,
    normalize,
)

D_NULLCONE_THRESHOLD = math.sqrt(ZERO_STRATUM_MU2)
DEGENERACY_REL_GAP = 1e-9
SELF_CONSISTENCY_ACCEPT = 1e-16
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
    grad, lam = projected_gradient(state)
    return float(np.linalg.norm(grad)) <= tol, lam


@lru_cache(maxsize=None)
def _ket_weights(sector: Sector) -> np.ndarray:
    """Level populations: one row per (party, level), one column per basis ket.

    Entry ``(p * N + j, k)`` counts the particles of ket ``k`` on level ``j``
    of party ``p``; identical particles have the one party ``p = 0``.
    """
    labels = sector.basis_labels()
    N = sector.local_dim
    if sector.kind == BOSONIC:
        counts = np.array(labels)
    elif sector.kind == DISTINGUISHABLE:
        digits = np.array(labels).reshape(len(labels), sector.parties)
        counts = (digits[:, :, None] == np.arange(N)).reshape(len(labels), -1)
    else:
        subsets = np.array(labels, dtype=int).reshape(len(labels), sector.parties)
        counts = np.zeros((len(labels), N))
        counts[np.arange(len(labels))[:, None], subsets - 1] = 1.0
    # Ket-major storage: each ket's populations of one party are contiguous.
    weights = counts.astype(float).T
    weights.setflags(write=False)
    return weights


def _alpha_diagonal_values(alpha: SpectrumPoint) -> np.ndarray:
    """Diagonal of the chamber operator over the canonical sector basis."""
    weights = _ket_weights(alpha.sector)
    N = alpha.sector.local_dim
    values = np.zeros(weights.shape[1])
    for p, spectrum in enumerate(alpha.spectra):
        # One BLAS dot per ket, summed as ``np.dot(populations, spectrum)``.
        values += (weights[p * N : (p + 1) * N].T[:, None, :] @ spectrum)[:, 0]
    return values


def alpha_star_eigenspaces(
    alpha: SpectrumPoint, rel_gap: float = DEGENERACY_REL_GAP
) -> list[EigenspaceReport]:
    """Eigenvalue blocks of the diagonal chamber operator, with degeneracy grouping."""
    alpha.validate_weyl_chamber()
    dim = alpha.sector.dim
    values = _alpha_diagonal_values(alpha)
    order = np.argsort(values)[::-1]
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    ranked = values[order]
    # A block ends where the next value in descending order is more than a
    # gap away from the last one in the block.
    ends = (np.flatnonzero(np.abs(np.diff(ranked)) > rel_gap * scale) + 1).tolist()
    # Column c holds the basis ket order[c]; each block is a run of columns.
    ranked_kets = np.zeros((dim, dim), dtype=complex)
    ranked_kets[order, np.arange(dim)] = 1.0
    reports: list[EigenspaceReport] = []
    for lo, hi in zip([0, *ends], [*ends, dim]):
        # ``np.mean`` of the block: its sum over its size.
        eig = float(np.add.reduce(ranked[lo:hi]) / (hi - lo))
        reports.append(EigenspaceReport(alpha, eig, hi - lo, ranked_kets[:, lo:hi]))
    return reports


def _alpha_targets(alpha: SpectrumPoint) -> list[np.ndarray]:
    """Target reduced densities ``diag(alpha_p) + I/N``."""
    N = alpha.sector.local_dim
    return [np.diag(s) + np.eye(N) / N for s in alpha.spectra]


def _marginal_feasible(report: EigenspaceReport, tol: float = 1e-9) -> bool:
    """Necessary condition: basis weights reproducing the diagonal marginals.

    Solves a nonnegative least-squares for a probability vector over the
    eigenspace's basis kets whose per-party level populations equal the
    target density diagonals; infeasibility rules the eigenspace out before
    any sphere search.  Every ket of the block has chamber value
    ``c . A[:, k]`` equal to the block eigenvalue, where ``c`` stacks the
    spectra (times ``L`` for identical particles), so a feasible block lies
    at the level ``c . b = ||alpha||^2``; blocks off that level skip the
    solve.
    """
    sector = report.alpha.sector
    spectra = np.concatenate(report.alpha.spectra)
    b = spectra + 1.0 / sector.local_dim
    copies = sector.parties if sector.identical else 1
    if abs(report.eigenvalue - copies * float(spectra @ b)) > LEVEL_TOL:
        return False
    kets = np.argmax(np.abs(report.basis), axis=0)
    rows = _ket_weights(sector)[:, kets]
    if sector.identical:
        rows = rows / sector.parties
    A = np.vstack([rows, np.ones(kets.size)])
    _, residual = nnls(A, np.append(b, 1.0))
    return residual <= tol


def _residual_matrices(state: PureState, targets: list[np.ndarray]) -> list[np.ndarray]:
    point = momentum(state)
    return [m - t for m, t in zip(point.matrices, targets)]


def _consistency_objective(state: PureState, targets: list[np.ndarray]) -> float:
    return float(sum(np.sum(np.abs(r) ** 2) for r in _residual_matrices(state, targets)))


def self_consistent_critical(
    report: EigenspaceReport,
    tol: float = 1e-8,
    restarts: int = 32,
    seed: int = 0,
    max_iterations: int = 4000,
) -> list[PureState]:
    """States in the eigenspace whose momentum image equals ``alpha``.

    Minimizes the squared Frobenius distance of the momentum image to the
    chamber point over the unit sphere of the eigenspace span (projected
    gradient descent with backtracking and random restarts); minima below
    the acceptance threshold are kept when they verify as critical with the
    requested spectrum.  An empty list is a valid outcome.
    """
    if not _marginal_feasible(report):
        return []
    sector = report.alpha.sector
    basis = report.basis
    m = report.multiplicity
    # The momentum image to reach, ``t - I/N`` per target density t.
    shift = np.eye(sector.local_dim) / sector.local_dim
    targets = [t - shift for t in _alpha_targets(report.alpha)]

    def lift(z: np.ndarray) -> PureState:
        return PureState(sector, basis @ z)

    found: list[PureState] = []
    rng = np.random.default_rng(seed)
    starts = [np.ones(m) / math.sqrt(m)] + [
        _unit(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        for _ in range(max(restarts - 1, 0))
    ]
    for z0 in starts:
        z = z0
        value = _consistency_objective(lift(z), targets)
        step = 0.5
        for _ in range(max_iterations):
            if value <= SELF_CONSISTENCY_ACCEPT:
                break
            state = lift(z)
            residuals = _residual_matrices(state, targets)
            grad_full = 2.0 * mu_star_apply(residuals, state)
            g = basis.conj().T @ grad_full
            g_t = g - z * np.vdot(z, g)
            gnorm = float(np.linalg.norm(g_t))
            if gnorm < 1e-14:
                break
            while step > 1e-12:
                trial = _unit(z - step * g_t)
                trial_value = _consistency_objective(lift(trial), targets)
                if trial_value < value:
                    z, value = trial, trial_value
                    step = min(step * 1.5, 2.0)
                    break
                step *= 0.5
            else:
                break
        if value > SELF_CONSISTENCY_ACCEPT:
            continue
        candidate = normalize(lift(z))
        ok, _ = is_critical(candidate, tol)
        if ok and psi(candidate).allclose(report.alpha, tol):
            if not any(
                _same_critical_class(candidate, other, report.alpha)
                for other in found
            ):
                found.append(candidate)
    return found


def _unit(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z)


def _alpha_blocks(spectrum: np.ndarray, gap: float = 1e-9) -> list[np.ndarray]:
    """Index groups of (numerically) equal entries of a sorted spectrum."""
    blocks: list[list[int]] = [[0]]
    for i in range(1, spectrum.shape[0]):
        if abs(spectrum[i] - spectrum[blocks[-1][-1]]) <= gap:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return [np.array(b) for b in blocks]


def _same_critical_class(
    a: PureState, b: PureState, alpha: SpectrumPoint, tol: float = 1e-6
) -> bool:
    """Equality up to the unitary isotropy group of the chamber point.

    The isotropy consists of per-party unitaries block-diagonal in the
    eigenvalue blocks of ``alpha``; alignment is an alternating per-party
    polar (Procrustes) maximization of the overlap.  Used only to drop
    redundant representatives of one critical orbit.
    """
    sector = a.sector
    if sector.identical:
        return bool(
            np.max(np.abs(np.abs(a.amplitudes) - np.abs(b.amplitudes))) <= tol
        )
    L, N = sector.parties, sector.local_dim
    blocks = [_alpha_blocks(s) for s in alpha.spectra]
    ta = a.to_tensor()
    tb = b.to_tensor()
    overlap = abs(np.vdot(ta, tb))
    for _ in range(60):
        if overlap > 1.0 - 1e-10:
            return True
        improved = overlap
        for p in range(L):
            G = _matricize(tb, p) @ _matricize(ta, p).conj().T
            U = np.zeros((N, N), dtype=complex)
            for idx in blocks[p]:
                sub = G[np.ix_(idx, idx)]
                W, _, Vh = np.linalg.svd(sub)
                U[np.ix_(idx, idx)] = (W @ Vh).conj().T
            tb = _apply_on_axis(U, tb, p)
            improved = abs(np.vdot(ta, tb))
        if improved <= overlap + 1e-14:
            break
        overlap = improved
    return overlap > 1.0 - 1e-8


def orbit_dimension(state: PureState, rel_tol: float = 1e-10) -> int:
    """Real dimension of the invertible-local-operations orbit through the state."""
    state = normalize(state)
    s = np.linalg.svd(orbit_action_columns(state), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    # The real span of {cols, i*cols} has twice the complex rank.
    return 2 * int(np.sum(s > s[0] * rel_tol))


def group_dimension(sector: Sector) -> int:
    """Real dimension of the invertible local-operations group."""
    N = sector.local_dim
    copies = 1 if sector.identical else sector.parties
    return 2 * (N * N - 1) * copies


def stability_class(state: PureState, config: FlowConfig | None = None) -> Stability:
    """Null cone / semistable / stable, via flow distance and orbit dimension."""
    terminal, _ = flow_to_critical(state, config)
    d = math.sqrt(max(momentum(terminal).norm_sq(), 0.0))
    return _stability_from(d, state)


def _stability_from(d_value: float, state: PureState) -> Stability:
    if d_value > D_NULLCONE_THRESHOLD:
        return Stability.NULLCONE
    if orbit_dimension(state) == group_dimension(state.sector):
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
    lam = momentum(terminal).norm_sq()
    d = math.sqrt(max(lam, 0.0))
    # One compressed spectrum gives both the reported spectrum and the index.
    counted = critical_above_zero_level(terminal, morse_tol)
    hess = complement_hessian_spectrum(terminal) if counted else np.zeros(0)
    record = CriticalRecord(
        state=terminal,
        lambda_value=lam,
        d_value=d,
        variance=total_variance(terminal),
        stratum=terminal_stratum(terminal),
        morse_index=index_from_spectrum(hess),
        stability=_stability_from(d, state),
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
