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
from fractions import Fraction
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


def _alpha_diagonal_values(alpha: SpectrumPoint) -> np.ndarray:
    """Diagonal of the chamber operator over the canonical sector basis."""
    sector = alpha.sector
    labels = sector.basis_labels()
    values = np.zeros(len(labels))
    if sector.kind == DISTINGUISHABLE:
        for i, digits in enumerate(labels):
            values[i] = sum(alpha.spectra[p][d] for p, d in enumerate(digits))
    elif sector.kind == "bosonic":
        spectrum = alpha.spectra[0]
        for i, occ in enumerate(labels):
            values[i] = float(np.dot(occ, spectrum))
    else:
        spectrum = alpha.spectra[0]
        for i, subset in enumerate(labels):
            values[i] = sum(spectrum[s - 1] for s in subset)
    return values


def alpha_star_eigenspaces(
    alpha: SpectrumPoint, rel_gap: float = DEGENERACY_REL_GAP
) -> list[EigenspaceReport]:
    """Eigenvalue blocks of the diagonal chamber operator, with degeneracy grouping."""
    alpha.validate_weyl_chamber()
    sector = alpha.sector
    values = _alpha_diagonal_values(alpha)
    order = np.argsort(values)[::-1]
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    gap = rel_gap * scale
    reports: list[EigenspaceReport] = []
    block: list[int] = []
    for idx in order:
        if block and abs(values[idx] - values[block[-1]]) > gap:
            reports.append(_block_report(alpha, values, block, sector))
            block = []
        block.append(int(idx))
    if block:
        reports.append(_block_report(alpha, values, block, sector))
    return reports


def _block_report(
    alpha: SpectrumPoint, values: np.ndarray, block: list[int], sector: Sector
) -> EigenspaceReport:
    basis = np.zeros((sector.dim, len(block)), dtype=complex)
    for col, idx in enumerate(block):
        basis[idx, col] = 1.0
    eig = float(np.mean(values[block]))
    return EigenspaceReport(alpha, eig, len(block), basis)


def _alpha_targets(alpha: SpectrumPoint) -> list[np.ndarray]:
    """Target reduced densities ``diag(alpha_p) + I/N``."""
    N = alpha.sector.local_dim
    return [np.diag(s) + np.eye(N) / N for s in alpha.spectra]


def _marginal_feasible(report: EigenspaceReport, tol: float = 1e-9) -> bool:
    """Necessary condition: basis weights reproducing the diagonal marginals.

    Solves a nonnegative least-squares for a probability vector over the
    eigenspace's basis kets whose per-party level populations equal the
    target density diagonals; infeasibility rules the eigenspace out before
    any sphere search.
    """
    sector = report.alpha.sector
    labels = sector.basis_labels()
    kets = [labels[int(np.argmax(np.abs(report.basis[:, c])))] for c in range(report.multiplicity)]
    N = sector.local_dim
    L = sector.parties
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    if sector.kind == DISTINGUISHABLE:
        for p in range(L):
            for j in range(N):
                rows.append(
                    np.array([1.0 if ket[p] == j else 0.0 for ket in kets])
                )
                rhs.append(1.0 / N + report.alpha.spectra[p][j])
    else:
        for j in range(N):
            if sector.kind == "bosonic":
                weights = [ket[j] / L for ket in kets]
            else:
                weights = [(1.0 if (j + 1) in ket else 0.0) / L for ket in kets]
            rows.append(np.array(weights))
            rhs.append(1.0 / N + report.alpha.spectra[0][j])
    rows.append(np.ones(len(kets)))
    rhs.append(1.0)
    A = np.stack(rows, axis=0)
    b = np.array(rhs)
    _, residual = nnls(A, b)
    return residual <= tol


def _residual_matrices(state: PureState, targets: list[np.ndarray]) -> list[np.ndarray]:
    point = momentum(state)
    return [m - (t - np.eye(t.shape[0]) / t.shape[0]) for m, t in zip(point.matrices, targets)]


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
    sector = report.alpha.sector
    basis = report.basis
    m = report.multiplicity
    targets = _alpha_targets(report.alpha)
    if not _marginal_feasible(report):
        return []

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
    values = sorted(
        {
            Fraction(a, b)
            for b in range(1, max_denominator + 1)
            for a in range(0, b // 2 + 1)
            if Fraction(a, b) <= Fraction(1, 2)
        }
    )
    grid: list[tuple[float, ...]] = []
    for combo in product(values, repeat=parties):
        if all(v == 0 for v in combo):
            continue
        minima = [Fraction(1, 2) - v for v in combo]
        total = sum(minima)
        if any(p > total - p for p in minima):
            continue
        grid.append(tuple(float(v) for v in combo))
    return grid


def qubit_spectrum_point(sector: Sector, lambdas: tuple[float, ...]) -> SpectrumPoint:
    """Chamber point of a qubit sector from per-party top eigenvalue shifts."""
    spectra = tuple(np.array([lam, -lam]) for lam in lambdas)
    return SpectrumPoint(sector, spectra)
