"""Reduced densities, the momentum image of a state, norms, and variances.

Normalization convention (fixed throughout the package): the pairing on
traceless Hermitian matrices is the plain trace form ``(A|B) = tr(AB)``.  For
``L`` distinguishable parties the momentum image of a state is the tuple
``(rho_p - I/N)`` and its squared norm is ``sum_p tr((rho_p - I/N)^2)``.  For
identical particles the group acts diagonally, so each of the ``L`` particles
contributes one copy of the same shifted density: the coadjoint element is
``L * (rho - I/N)`` even though a single matrix is stored.  This is the unique
scaling under which total variance plus squared momentum norm is a sector
constant and ``<v|mu* v> = ||mu||^2`` holds in every sector.  The single
density is read off the first tensor axis, and the one-body images and frame
columns of an identical sector act on that axis alone, ``copies`` times,
which is exact after the projection onto the sector (``statespace``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NotInWeylChamber, NotQubitSector, PartyOutOfRange, ShapeMismatch
from .statespace import (
    BOSONIC,
    DISTINGUISHABLE,
    PureState,
    Sector,
    _axis_matrices,
    _axis_views,
    _embed,
    _factor_images,
    _frozen,
    _ket_weights,
    _local_product,
    _one_body,
    _one_body_matrix,
    _project,
)

@lru_cache(maxsize=None)
def gell_mann_frame(local_dim: int) -> np.ndarray:
    """Trace-orthonormal Hermitian traceless basis of ``su(N)``-observables.

    Generalized Gell-Mann matrices scaled so that ``tr(xi_i xi_j) = delta_ij``;
    shape ``(N*N - 1, N, N)``.  Raises ShapeMismatch for ``N < 2``, where
    ``su(N)`` is trivial and a sector has no local operations.
    """
    N = local_dim
    if N < 2:
        raise ShapeMismatch(
            f"local dimension {N} admits no local operations: su({N}) is trivial"
        )
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
        return [self.sector.copies * m for m in self.matrices]

    def norm_sq(self) -> float:
        return _norm_sq(self.sector, self.matrices)

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
        if self.sector != other.sector or len(self.spectra) != len(other.spectra):
            return False
        return all(
            np.max(np.abs(a - b)) <= tol
            for a, b in zip(self.spectra, other.spectra)
        )

    def validate_weyl_chamber(self, tol: float = 1e-10) -> None:
        """Check one weakly decreasing spectrum per party, shifting into [0, 1]."""
        sector = self.sector
        if len(self.spectra) != sector.acting:
            raise NotInWeylChamber(f"expected {sector.acting} spectra, got {len(self.spectra)}")
        N = sector.local_dim
        if any(s.shape != (N,) for s in self.spectra):
            raise NotInWeylChamber("spectrum length does not match local dim")
        spectra = np.stack(self.spectra)
        if np.any(np.diff(spectra, axis=1) > tol):
            raise NotInWeylChamber("spectra must be weakly decreasing")
        if np.any(np.abs(spectra.sum(axis=1)) > math.sqrt(tol)):
            raise NotInWeylChamber("spectra entries must sum to zero")
        shifted = spectra + 1.0 / N
        if np.any(shifted < -tol) or np.any(shifted > 1.0 + tol):
            raise NotInWeylChamber("shifted entries must lie in [0, 1]")

    def to_json(self) -> dict:
        return {
            "sector": self.sector.kind,
            "spectra": [[float(x) for x in s] for s in self.spectra],
        }


def _densities(views: np.ndarray) -> np.ndarray:
    """Unit-trace Hermitized ``X X^H`` of each stacked axis view: the reduced densities.

    Every view holds all amplitudes, so ``vdot`` of one is each density's trace.
    """
    norm = float(np.vdot(views[0], views[0]).real)
    if norm <= 0.0:
        raise ShapeMismatch("cannot reduce a zero state")
    rho = views @ views.conj().swapaxes(1, 2)
    return (rho + rho.conj().swapaxes(1, 2)) * (0.5 / norm)


def _shifted_densities(views: np.ndarray) -> np.ndarray:
    """``rho_a - I/N`` per acting factor, from ``statespace._axis_views``.

    Raw-array form shared by ``momentum`` and the flow loop: shape ``(acting, N, N)``.
    """
    count, N = views.shape[:2]
    shifted = _densities(views)
    shifted.reshape(count, N * N)[:, :: N + 1] -= 1.0 / N
    return shifted


def _norm_sq(sector: Sector, mats: np.ndarray) -> float:
    """``||mu||^2`` of shifted densities; each acts on ``copies`` axes.

    The one formula of the level, read by ``MomentumPoint.norm_sq`` and by
    the flow loop.
    """
    mats = np.asarray(mats)
    return sector.copies**2 * float(np.vdot(mats, mats).real)


def reduced_density(state: PureState, party: int = 0) -> np.ndarray:
    """Reduced one-particle density matrix of a normalized state.

    The party argument is ignored for identical particles: all reductions
    coincide, and the one read is that of the first tensor axis.
    """
    sector = state.sector
    L = sector.parties
    if sector.identical:
        party = 0
    if not 0 <= party < L:
        raise PartyOutOfRange(f"party {party} outside 0..{L - 1}")
    return _densities(_axis_views(sector, state.to_tensor())[party : party + 1])[0]


def momentum(state: PureState) -> MomentumPoint:
    """Momentum image: shifted reduced density per party (one if identical)."""
    sector = state.sector
    views = _axis_views(sector, state.to_tensor())
    return MomentumPoint(sector, tuple(_shifted_densities(views)))


def _point_matrices(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray], sector: Sector
) -> np.ndarray:
    """The stacked matrices ``point`` acts by in a one-body sum on ``sector``."""
    if isinstance(point, MomentumPoint):
        point = point.coadjoint_matrices()
    elif isinstance(point, SpectrumPoint):
        point = point.as_diagonal_matrices()
    return _axis_matrices(sector, point)


def _one_body_diagonal(sector: Sector, spectra) -> np.ndarray:
    """Diagonal, over the sector basis, of the one-body sum of ``diag(spectra[a])``.

    One spectrum per acting factor; ket ``k`` gets ``sum n_(a,j) spectra[a][j]``
    over the level populations of ``_ket_weights``.  With the eigenvalues of
    local matrices this is the spectrum of their one-body sum, which is
    diagonal on the kets of the local eigenbases.
    """
    weights = _ket_weights(sector)
    N = sector.local_dim
    values = np.zeros(weights.shape[1])
    for a, spectrum in enumerate(spectra):
        # One BLAS dot per ket, summed as ``np.dot(populations, spectrum)``.
        values += (weights[a * N : (a + 1) * N].T[:, None, :] @ spectrum)[:, 0]
    return values


def mu_star_apply(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray], state: PureState
) -> np.ndarray:
    """Apply ``sum_p I x..x M_p x..x I`` to the state; returns amplitudes.

    A MomentumPoint acts through its coadjoint matrices; a SpectrumPoint acts
    as diagonal matrices; a raw list of matrices is applied as given.
    """
    mats = _point_matrices(point, state.sector)
    return _project(state.sector, _one_body(state.sector, mats, state.to_tensor()))


def mu_star_matrix(
    point: MomentumPoint | SpectrumPoint | list[np.ndarray], sector: Sector
) -> np.ndarray:
    """Dense sector-basis matrix of the one-body sum ``sum_p embed_p(M_p)``."""
    return _one_body_matrix(sector, _point_matrices(point, sector))


def mu_norm_sq(state: PureState) -> float:
    """Squared norm of the momentum image; zero iff all reductions are maximally mixed."""
    return momentum(state).norm_sq()


# Sectors with more weight subsets of size at most the weight-space
# dimension get no margin: 4 qubits (2 516) and ``fermionic(2, 6)`` (4 943)
# are in, 5 qubits, 4 qutrits, 2 ququarts and ``fermionic(2, 7)`` and up
# are out.
MARGIN_MAX_SUBSETS = 10_000
# Smallest Gram eigenvalue of a weight subset at or below which the subset
# counts as linearly dependent.  Over the 44 sectors with a margin among up to
# 5 distinguishable parties (N <= 4), bosons (L <= 10, N <= 5) and fermions
# (N <= 8), genuine eigenvalues are at least 6.8e-3 and rounding residues at
# most 3.6e-15.
MARGIN_PIVOT_TOL = 1e-9


@lru_cache(maxsize=None)
def weight_margin(sector: Sector) -> float | None:
    """Smallest nonzero critical value candidate of ``||mu||^2`` on the sector.

    Every critical value of ``||mu||^2`` is ``||beta||^2`` for ``beta`` the
    minimum-norm point of the convex hull of some set of ket weights (Ness
    1984; Kirwan 1984), so below the returned ``gamma^2`` a flow can only end
    on the zero level.  The weight of a basis ket is its momentum image:
    level populations minus ``1/N`` per party, or occupations minus ``L/N``
    for identical particles, so ``||w||^2`` is in ``mu2`` units.

    The minimum-norm point of a convex hull is the affine minimum-norm point
    of an affinely independent subset with nonnegative barycentric
    coordinates.  Such a subset with a nonzero point is linearly independent
    (a linear dependence among affinely independent points puts the origin in
    their affine hull), so only linearly independent subsets are visited; they
    have at most ``N - 1`` weights per acting factor.  For those, with Gram
    matrix ``G`` and ``x = G^-1 1``, ``||beta||^2 = 1 / sum(x)`` and the
    barycentric coordinates are ``x / sum(x)``.  Each subset size is solved
    in one batch over the subsets whose smallest Gram eigenvalue exceeds
    ``MARGIN_PIVOT_TOL``; only extensions of the independent subsets one
    size smaller are formed, since a prefix of an independent subset is
    independent.

    Returns None when the sector has more than ``MARGIN_MAX_SUBSETS`` subsets
    of that size or less, or no nonzero candidate.  Cached per sector.
    """
    N, kets = sector.local_dim, sector.dim
    # The weights span at most the diagonal traceless matrices of each acting
    # factor: N - 1 dimensions each.
    rank = (N - 1) * sector.acting
    if sum(math.comb(kets, k) for k in range(1, rank + 1)) > MARGIN_MAX_SUBSETS:
        return None
    weights = _ket_weights(sector) - sector.copies / N
    gram = weights.T @ weights
    levels = [np.zeros(0)]
    # Each prefix of an independent subset is independent, so the size-k
    # candidates are the independent (k-1)-subsets extended by a later ket.
    independent = np.zeros((1, 0), dtype=int)
    for k in range(1, min(rank, kets) + 1):
        last = independent[:, -1] if k > 1 else np.array([-1])
        rows, later = np.nonzero(np.arange(kets) > last[:, None])
        subsets = np.column_stack([independent[rows], later])
        grams = gram[subsets[:, :, None], subsets[:, None, :]]
        keep = np.linalg.eigvalsh(grams)[:, 0] > MARGIN_PIVOT_TOL
        independent, grams = subsets[keep], grams[keep]
        if not len(grams):
            # Every larger subset contains a dependent one.
            break
        x = np.linalg.solve(grams, np.ones((len(grams), k, 1)))[:, :, 0]
        s = x.sum(axis=1)
        # Keep points inside the hull: ``x / s >= 0`` up to rounding.
        inside = np.all(x >= -MARGIN_PIVOT_TOL * s[:, None], axis=1)
        levels.append(1.0 / s[inside])
    candidates = np.concatenate(levels)
    return float(candidates.min()) if candidates.size else None


def nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``x >= 0`` minimizing ``||A x - b||``, and that residual norm.

    The active-set method of Lawson and Hanson (*Solving Least Squares
    Problems*, 1974, ch. 23): the coordinate with the largest positive dual
    ``A^T (b - A x)`` joins the passive set, least squares is solved on the
    passive columns, and while a passive coordinate of that solve is
    negative the iterate moves towards it until the first one reaches zero
    and leaves the set.  Raises ``RuntimeError`` if ``3 n + 1`` additions to
    the passive set do not settle it.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    rounding, scale = 10 * max(m, n) * np.finfo(float).eps, np.linalg.norm(A)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        dual = np.where(passive, -np.inf, A.T @ (b - A @ x))
        # A dual below the rounding of ``A^T (b - A x)`` counts as zero.
        tol = rounding * scale * (np.linalg.norm(b) + scale * np.linalg.norm(x))
        if passive.all() or dual.max() <= tol:
            return x, float(np.linalg.norm(A @ x - b))
        passive[np.argmax(dual)] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            blocking = np.flatnonzero(passive & (s < 0))
            if not blocking.size:
                break
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x += ratios.min() * (s - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0
        x = s
    raise RuntimeError("nnls: iteration limit reached")


def _min_norm_point(points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the minimum-norm point of the columns' convex hull.

    Least-distance programming reduced to ``nnls`` (Lawson and Hanson, ch.
    23): ``u >= 0`` minimizing ``||[P; 1^T] u - e_last||``.  Write ``u = t
    lam`` with ``lam`` in the simplex; the objective ``t^2 ||P lam||^2 +
    (t - 1)^2`` is smallest at ``t = 1 / (1 + ||P lam||^2)``, where it is
    ``||P lam||^2 / (1 + ||P lam||^2)``, increasing in ``||P lam||``.  So
    ``u / sum(u)`` is the answer, and ``t > 0`` keeps ``u`` off zero.
    """
    e_last = np.append(np.zeros(len(points)), 1.0)
    u, _ = nnls(np.vstack([points, np.ones(points.shape[1])]), e_last)
    return u / u.sum()


# Support thresholds, relative to the largest ``|amp|^2``, widest support first.
CERTIFICATE_SUPPORTS = (1e-14, 1e-12, 1e-10)
# Relative gap between ``||beta||^2`` and the flow's ``mu2`` that still closes the level.
CERTIFICATE_LEVEL_GAP = 1e-4
# Largest ``|amp|^2`` share outside ``Y_beta`` of a certified state.
CERTIFICATE_OUTSIDE_MASS = 1e-10
# Relative slack of ``<w, beta> = ||beta||^2`` on ``Z_beta`` and of its half-space ``Y_beta``.
CERTIFICATE_HEIGHT_SLACK = 1e-6


def _level_certificate(
    sector: Sector, tensor: np.ndarray, mats: np.ndarray, mu2: float
) -> np.ndarray | None:
    """The state's part on ``Z_beta``, unit sector amplitudes, when its level is certified.

    ``tensor`` is a unit state with shifted densities ``mats`` and
    ``||mu||^2 = mu2``.  In the eigenbases of its densities the momentum image
    is ``sum_k |amp_k|^2 w_k`` over the ket weights ``w_k`` (``_ket_weights``
    minus ``copies / N``), and ``beta``, the minimum-norm point of the convex
    hull of the supported kets' weights (``_min_norm_point``, one ``nnls``
    solve), bounds the level from below: a state in ``Y_beta = span{kets with
    <w, beta> >= ||beta||^2}`` goes to zero under ``exp(-t beta)``, so it lies
    in the null cone at a level of at least ``||beta||^2`` (Kempf 1978;
    Hesselink 1979; Ness 1984; Kirwan 1984).  A flow bounds it from above by
    ``mu2``.  The level is ``||beta||^2`` when a support of
    ``CERTIFICATE_SUPPORTS`` gives ``||beta||^2 > 1e-9`` within
    ``CERTIFICATE_LEVEL_GAP`` of ``mu2``, with at most
    ``CERTIFICATE_OUTSIDE_MASS`` of the state outside ``Y_beta``.  The state's
    amplitudes off ``Z_beta = span{kets with <w, beta> = ||beta||^2}`` are then
    zeroed, in the eigenbases, and the result rotated back and renormalized;
    a flow from it stays in that block and ends on ``mu = beta``.  Returns
    None when no support certifies the level.
    """
    _, frames = np.linalg.eigh(mats)
    rotated = _project(sector, _local_product(sector, frames.conj().swapaxes(1, 2), tensor))
    mass = np.abs(rotated) ** 2
    weights = _ket_weights(sector) - sector.copies / sector.local_dim
    tried = 0
    for threshold in CERTIFICATE_SUPPORTS:
        support = np.flatnonzero(mass > threshold * mass.max())
        # The supports shrink as the threshold rises; an equal size is the same support.
        if support.size == tried:
            continue
        tried = support.size
        beta = weights[:, support] @ _min_norm_point(weights[:, support])
        level = float(beta @ beta)
        if level <= 1e-9 or abs(level - mu2) > CERTIFICATE_LEVEL_GAP * max(1.0, mu2):
            continue
        heights = beta @ weights - level
        slack = CERTIFICATE_HEIGHT_SLACK * max(1.0, level)
        if mass[heights < -slack].sum() > CERTIFICATE_OUTSIDE_MASS * mass.sum():
            continue
        rotated[np.abs(heights) > slack] = 0.0
        block = _project(sector, _local_product(sector, frames, _embed(sector, rotated)))
        return block / math.sqrt(np.vdot(block, block).real)
    return None


@lru_cache(maxsize=None)
def represented_generators(sector: Sector) -> np.ndarray:
    """Local observable frame represented on the sector basis.

    Shape ``(acting, N*N-1, dim, dim)``: each acting factor's embedded
    generators, one factor per party for distinguishable particles and the
    single diagonal action for identical ones.
    """
    K, dim = sector.local_dim**2 - 1, sector.dim
    cols = _generator_columns(sector, _embed(sector, np.eye(dim, dtype=complex)))
    return _frozen(cols.transpose(2, 0, 1).reshape(sector.acting, K, dim, dim))


def _generator_columns(sector: Sector, tensor: np.ndarray) -> np.ndarray:
    """``X x`` in sector amplitudes for every represented frame generator ``X``, on a tensor ``x``.

    Columns follow ``represented_generators``: each acting factor's generators
    in turn, after any trailing batch axes of ``x``.
    """
    frame = gell_mann_frame(sector.local_dim)
    return _project(sector, _factor_images(sector, frame, tensor))


class _GeneratorBlock(NamedTuple):
    """The generator columns of a state and what the flow, stability and Morse read off them."""

    columns: np.ndarray
    m: np.ndarray
    gram: np.ndarray
    gradient: np.ndarray
    lam: float
    grad_norm: float

    def orbit_columns(self, v: np.ndarray) -> np.ndarray:
        """The columns projected off the unit ``v``; their complex span is the orbit tangent."""
        return self.columns - np.outer(v, v.conj() @ self.columns)


def _generator_block(sector: Sector, tensor: np.ndarray) -> _GeneratorBlock:
    """The columns ``C = [X_i v]`` on a unit state's tensor ``v`` and what is read off them.

    ``C`` holds the projected images (right after ``_project`` for identical
    particles), ordered as ``represented_generators``; ``m = Re(v^H C)`` are
    the momentum coordinates over the frame and ``Re(C^H C)`` their Gram.
    ``C m = mu* v``, so the gradient is the vector ``C m - lam v`` with ``lam =
    Re <v, C m>``, never ``m^T gram m - |m|^4``, which cancels long before 1e-9.
    """
    cols = _generator_columns(sector, tensor).reshape(sector.dim, -1)
    v = _project(sector, tensor).reshape(-1)
    m = (v.conj() @ cols).real
    image = cols @ m
    lam = float(np.vdot(v, image).real)
    grad = image - lam * v
    gram = (cols.conj().T @ cols).real
    return _GeneratorBlock(cols, m, gram, grad, lam, math.sqrt(np.vdot(grad, grad).real))


def _frame_moments(state: PureState) -> tuple[float, float]:
    """``sum_i <X_i^2>`` and ``sum_i <X_i>^2`` over the local observable frame.

    Both come from the columns ``X_i v``: ``<X_i^2> = ||X_i v||^2 / ||v||^2``
    and ``<X_i> = Re <v|X_i v> / ||v||^2``.
    """
    v = state.amplitudes
    norm_sq = float(np.vdot(v, v).real)
    if norm_sq <= 0.0:
        raise ShapeMismatch("cannot reduce a zero state")
    block = _generator_block(state.sector, state.to_tensor())
    return float(np.trace(block.gram)) / norm_sq, float(block.m @ block.m) / norm_sq**2


def total_variance(state: PureState) -> float:
    """Sum of variances of the full local observable frame in the state.

    The direct frame computation; ``classify`` reads the same quantity off
    the level as ``casimir_constant(sector) - ||mu||^2``.
    """
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
    per_party = list(spectra.spectra) * sector.copies
    minima = [0.5 + float(s[-1]) for s in per_party]
    total = sum(minima)
    violated = [i for i, p in enumerate(minima) if p > total - p + tol]
    return (not violated, violated)
