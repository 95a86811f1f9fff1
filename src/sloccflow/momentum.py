"""Reduced densities, the momentum image of a state, norms, and variances.

Normalization convention (fixed throughout the package): the pairing on
traceless Hermitian matrices is the plain trace form ``(A|B) = tr(AB)``.  For
``L`` distinguishable parties the momentum image of a state is the tuple
``(rho_p - I/N)`` and its squared norm is ``sum_p tr((rho_p - I/N)^2)``.  For
identical particles the group acts diagonally, so each of the ``L`` particles
contributes one copy of the same shifted density: the coadjoint element is
``L * (rho - I/N)`` even though a single matrix is stored.  This is the unique
scaling under which total variance plus squared momentum norm is a sector
constant and ``<v|mu* v> = ||mu||^2`` holds in every sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotQubitSector, PartyOutOfRange, ShapeMismatch
from .statespace import (
    BOSONIC,
    DISTINGUISHABLE,
    PureState,
    Sector,
    _apply_on_axis,
    _embed,
    _frozen,
    _matricize,
    _project,
)

@lru_cache(maxsize=None)
def gell_mann_frame(local_dim: int) -> np.ndarray:
    """Trace-orthonormal Hermitian traceless basis of ``su(N)``-observables.

    Generalized Gell-Mann matrices scaled so that ``tr(xi_i xi_j) = delta_ij``;
    shape ``(N*N - 1, N, N)``.
    """
    N = local_dim
    mats: list[np.ndarray] = []
    for k in range(N):
        for j in range(k):
            sym = np.zeros((N, N), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            mats.append(sym)
            asym = np.zeros((N, N), dtype=complex)
            asym[j, k] = -1j / math.sqrt(2.0)
            asym[k, j] = 1j / math.sqrt(2.0)
            mats.append(asym)
    for ell in range(1, N):
        diag = np.zeros((N, N), dtype=complex)
        diag[np.arange(ell), np.arange(ell)] = 1.0
        diag[ell, ell] = -float(ell)
        mats.append(diag / math.sqrt(ell * (ell + 1)))
    return _frozen(np.stack(mats, axis=0))


@dataclass(frozen=True)
class MomentumPoint:
    """Per-party shifted reduced densities ``rho_p - I/N``.

    One matrix per party for distinguishable particles; a single shared
    matrix for identical particles.
    """

    sector: Sector
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(_frozen(m) for m in self.matrices)
        )

    def coadjoint_matrices(self) -> list[np.ndarray]:
        """Matrices of the momentum image as a Lie-coalgebra element.

        The diagonal action of identical particles contributes one copy of
        the shared matrix per particle, hence the factor ``L``.
        """
        if self.sector.identical:
            return [self.sector.parties * self.matrices[0]]
        return list(self.matrices)

    def norm_sq(self) -> float:
        return float(
            sum((m * m.conj()).sum().real for m in self.coadjoint_matrices())
        )

    def to_json(self) -> dict:
        return {
            "sector": self.sector.kind,
            "matrices": [
                [[[float(x.real), float(x.imag)] for x in row] for row in m]
                for m in self.matrices
            ],
        }


@dataclass(frozen=True)
class SpectrumPoint:
    """Ordered spectra of the shifted reduced densities (Weyl-chamber image)."""

    sector: Sector
    spectra: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "spectra", tuple(_frozen(s, dtype=float) for s in self.spectra)
        )

    def is_zero(self, tol: float = 1e-8) -> bool:
        return all(np.max(np.abs(s)) <= tol for s in self.spectra)

    def as_diagonal_matrices(self) -> list[np.ndarray]:
        return [np.diag(s.astype(complex)) for s in self.spectra]

    def allclose(self, other: "SpectrumPoint", tol: float = 1e-8) -> bool:
        if self.sector != other.sector:
            return False
        return all(
            np.max(np.abs(a - b)) <= tol
            for a, b in zip(self.spectra, other.spectra)
        )

    def validate_weyl_chamber(self, tol: float = 1e-10) -> None:
        """Check weakly decreasing spectra that shift to density spectra."""
        from .errors import NotInWeylChamber

        N = self.sector.local_dim
        for s in self.spectra:
            if s.shape[0] != N:
                raise NotInWeylChamber("spectrum length does not match local dim")
            if np.any(np.diff(s) > tol):
                raise NotInWeylChamber("spectra must be weakly decreasing")
            if abs(s.sum()) > math.sqrt(tol):
                raise NotInWeylChamber("spectra entries must sum to zero")
            if np.any(s + 1.0 / N < -tol) or np.any(s + 1.0 / N > 1.0 + tol):
                raise NotInWeylChamber("shifted entries must lie in [0, 1]")

    def to_json(self) -> dict:
        return {
            "sector": self.sector.kind,
            "spectra": [[float(x) for x in s] for s in self.spectra],
        }


def _density(tensor: np.ndarray, p: int) -> np.ndarray:
    """Unit-trace Hermitized ``X X^H`` of axis ``p``: the reduced density."""
    X = _matricize(tensor, p)
    rho = X @ X.conj().T
    norm = np.trace(rho).real
    if norm <= 0.0:
        raise ShapeMismatch("cannot reduce a zero state")
    return 0.5 * (rho + rho.conj().T) / norm


def _shifted_densities(tensor: np.ndarray, count: int) -> list[np.ndarray]:
    """``rho_p - I/N`` for the first ``count`` axes of a state tensor.

    Raw-array form shared by ``momentum`` and the flow loop.
    """
    shift = np.eye(tensor.shape[0]) / tensor.shape[0]
    return [_density(tensor, p) - shift for p in range(count)]


def _one_body(mats: list[np.ndarray], tensor: np.ndarray) -> np.ndarray:
    """``sum_p I x..x M_p x..x I`` on a tensor; trailing batch axes allowed."""
    total = np.zeros_like(tensor)
    for p, mat in enumerate(mats):
        total += _apply_on_axis(mat, tensor, p)
    return total


def reduced_density(state: PureState, party: int = 0) -> np.ndarray:
    """Reduced one-particle density matrix of a normalized state.

    The party argument is ignored for identical particles (all reductions
    coincide); identical sectors are handled by embedding into the tensor
    power and tracing out everything but one slot.
    """
    sector = state.sector
    L = sector.parties
    if sector.identical:
        party = 0
    if not 0 <= party < L:
        raise PartyOutOfRange(f"party {party} outside 0..{L - 1}")
    return _density(state.to_tensor(), party)


def momentum(state: PureState) -> MomentumPoint:
    """Momentum image: shifted reduced density per party (one if identical)."""
    sector = state.sector
    count = 1 if sector.identical else sector.parties
    return MomentumPoint(sector, tuple(_shifted_densities(state.to_tensor(), count)))


def _per_party_matrices(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray], sector: Sector
) -> list[np.ndarray]:
    if isinstance(point, MomentumPoint):
        mats = point.coadjoint_matrices()
    elif isinstance(point, SpectrumPoint):
        mats = point.as_diagonal_matrices()
    else:
        mats = [np.asarray(m, dtype=complex) for m in point]
    L, N = sector.parties, sector.local_dim
    if sector.identical:
        if len(mats) != 1:
            raise ShapeMismatch("identical particles take a single matrix")
        mats = mats * L
    elif len(mats) != L:
        raise ShapeMismatch(f"need one matrix per party, got {len(mats)}")
    for m in mats:
        if m.shape != (N, N):
            raise ShapeMismatch(f"matrix shape {m.shape} does not match N={N}")
    return mats


def _mu_star(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray],
    sector: Sector,
    x: np.ndarray,
) -> np.ndarray:
    """One-body sum of ``point`` on sector amplitudes ``x`` (batch axis kept)."""
    mats = _per_party_matrices(point, sector)
    return _project(sector, _one_body(mats, _embed(sector, x)))


def mu_star_apply(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray], state: PureState
) -> np.ndarray:
    """Apply ``sum_p I x..x M_p x..x I`` to the state; returns amplitudes.

    A MomentumPoint acts through its coadjoint matrices; a SpectrumPoint acts
    as diagonal matrices; a raw list of matrices is applied as given.
    """
    return _mu_star(point, state.sector, state.amplitudes)


def mu_star_matrix(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray], sector: Sector
) -> np.ndarray:
    """Dense sector-basis matrix of the one-body sum ``sum_p embed_p(M_p)``."""
    return _mu_star(point, sector, np.eye(sector.dim, dtype=complex))


def mu_norm_sq(state: PureState) -> float:
    """Squared norm of the momentum image; zero iff all reductions are maximally mixed."""
    return momentum(state).norm_sq()


@lru_cache(maxsize=None)
def _frame_square_sum(local_dim: int) -> np.ndarray:
    frame = gell_mann_frame(local_dim)
    return _frozen(np.einsum("aij,ajk->ik", frame, frame))


@lru_cache(maxsize=None)
def represented_generators(sector: Sector) -> np.ndarray:
    """Local observable frame represented on the sector basis.

    For distinguishable particles the array has shape
    ``(parties, N*N-1, dim, dim)`` holding each party's embedded generators;
    for identical particles shape ``(1, N*N-1, dim, dim)`` holding the
    diagonal-action generators.
    """
    L, N = sector.parties, sector.local_dim
    frame = gell_mann_frame(N)
    if sector.identical:
        return _frozen(np.stack([mu_star_matrix([xi], sector) for xi in frame])[None])
    eye = _embed(sector, np.eye(sector.dim, dtype=complex))
    return _frozen([
        [_project(sector, _apply_on_axis(xi, eye, p)) for xi in frame] for p in range(L)
    ])


def _frame_moments(state: PureState) -> tuple[float, float]:
    """``sum_i <X_i^2>`` and ``sum_i <X_i>^2`` over the local observable frame."""
    sector = state.sector
    v = state.amplitudes
    squares = means = 0.0
    if sector.identical:
        for g in represented_generators(sector)[0]:
            gv = g @ v
            squares += float(np.vdot(gv, gv).real)
            means += float(np.vdot(v, gv).real) ** 2
        return squares, means
    frame = gell_mann_frame(sector.local_dim)
    square_sum = _frame_square_sum(sector.local_dim)
    for p in range(sector.parties):
        rho = reduced_density(state, p)
        squares += float(np.trace(rho @ square_sum).real)
        for xi in frame:
            means += float(np.trace(rho @ xi).real) ** 2
    return squares, means


def total_variance(state: PureState) -> float:
    """Sum of variances of the full local observable frame in the state."""
    squares, means = _frame_moments(state)
    return squares - means


def casimir_constant(sector: Sector) -> float:
    """The constant ``c`` with ``Var + ||mu||^2 = c`` on the sector.

    For the diagonal action on (anti)symmetric powers the two-body exchange
    terms contribute ``L(L-1)(N -+ 1)/N`` on top of the one-body value.
    """
    L, N = sector.parties, sector.local_dim
    one_body = L * (N * N - 1) / N
    if sector.kind == DISTINGUISHABLE:
        return one_body
    if sector.kind == BOSONIC:
        return one_body + L * (L - 1) * (N - 1) / N
    return one_body - L * (L - 1) * (N + 1) / N


def casimir_vee_expectation(state: PureState) -> float:
    """Expectation of the doubled-frame square sum on ``v (x) v``.

    Computed directly from the represented frame as
    ``sum_i (2<X_i^2> + 2<X_i>^2)``; satisfies ``2c + 2||mu||^2``.
    """
    squares, means = _frame_moments(state)
    return 2.0 * squares + 2.0 * means


def _ordered_spectra(point: MomentumPoint) -> SpectrumPoint:
    spectra = tuple(np.sort(np.linalg.eigvalsh(m))[::-1] for m in point.matrices)
    return SpectrumPoint(point.sector, spectra)


def psi(state: PureState) -> SpectrumPoint:
    """Per-party weakly decreasing spectra of the shifted reduced densities."""
    return _ordered_spectra(momentum(state))


def polygonal_check(spectra: SpectrumPoint, tol: float = 1e-12) -> tuple[bool, list[int]]:
    """Qubit polytope membership: each minimal eigenvalue below the others' sum.

    Returns ``(ok, violated_party_indices)``.  Identical-particle qubit
    sectors are treated as carrying the shared spectrum on every party.
    """
    sector = spectra.sector
    if sector.local_dim != 2:
        raise NotQubitSector("polygonal inequalities apply to qubit sectors only")
    per_party = list(spectra.spectra) * (sector.parties if sector.identical else 1)
    minima = [0.5 + float(s[-1]) for s in per_party]
    total = sum(minima)
    violated = [i for i, p in enumerate(minima) if p > total - p + tol]
    return (not violated, violated)
