"""Pure states of distinguishable qudits, bosons, and fermions.

Basis conventions (these fix the on-disk amplitude ordering):

* distinguishable -- product kets ``|i1 ... iL>`` in lexicographic order with
  the first party most significant, digits ``0..N-1``;
* bosonic -- occupation vectors ``(n1, ..., nN)`` with ``sum nj = L``, in
  lexicographically decreasing order, stored as the orthonormal symmetrized
  basis vectors;
* fermionic -- L-element subsets of ``{1..N}`` in lexicographic order, stored
  as orthonormal wedge vectors with ascending-index sign convention.

Amplitudes of identical-particle states are coefficients in the orthonormal
sector basis, so inner products are plain vector dot products in every sector.

Identical particles act through one axis.  For a sector state ``v`` and the
projection ``Pi = V^T`` of the embedding isometry, ``Pi (M on axis p) v`` is
the same for every copy ``p``, so ``Pi dGamma(M) v = copies Pi (M x 1 x .. x
1) v``.  One product, ``_factor_images``, applies one-body matrices: to the
axis-0 matricization of a bosonic or fermionic state (a reshape; right after
``_project``) and to the all-axes gather of a distinguishable one, folded back;
``_one_body`` is its factor sum.  ``_local_product`` acts on every axis.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    IndexOutOfRange,
    SectorMismatch,
    ShapeMismatch,
    ZeroState,
)

ZERO_TOL = 1e-14

DISTINGUISHABLE = "distinguishable"
BOSONIC = "bosonic"
FERMIONIC = "fermionic"
_KINDS = (DISTINGUISHABLE, BOSONIC, FERMIONIC)


def _frozen(array: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Sector:
    """Particle content of a Hilbert space: kind, party count, local dimension."""

    kind: str
    parties: int
    local_dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sector kind {self.kind!r}")
        # parties == 0 is admitted only as the fermionic scalar line, the
        # codomain of the top-form Hodge dual.
        min_parties = 0 if self.kind == FERMIONIC else 1
        if self.parties < min_parties or self.local_dim < 1:
            raise ValueError("parties and local_dim must be positive")
        if self.kind == FERMIONIC and self.local_dim < self.parties:
            raise ValueError("fermionic sector requires local_dim >= parties")

    @property
    def identical(self) -> bool:
        return self.kind != DISTINGUISHABLE

    @property
    def acting(self) -> int:
        """Independent local factors: one per party, one for identical particles."""
        return 1 if self.identical else self.parties

    @property
    def copies(self) -> int:
        """Tensor axes each local factor acts on: all of them for identical particles."""
        return self.parties if self.identical else 1

    @property
    def dim(self) -> int:
        L, N = self.parties, self.local_dim
        if self.kind == DISTINGUISHABLE:
            return N**L
        if self.kind == BOSONIC:
            return math.comb(N + L - 1, L)
        return math.comb(N, L)

    def basis_labels(self) -> tuple[tuple[int, ...], ...]:
        return _basis_labels(self)

    def __str__(self) -> str:
        return f"{self.kind}(L={self.parties}, N={self.local_dim})"


def distinguishable(parties: int, local_dim: int) -> Sector:
    return Sector(DISTINGUISHABLE, parties, local_dim)


def bosonic(parties: int, local_dim: int) -> Sector:
    return Sector(BOSONIC, parties, local_dim)


def fermionic(parties: int, local_dim: int) -> Sector:
    return Sector(FERMIONIC, parties, local_dim)


@lru_cache(maxsize=None)
def _basis_labels(sector: Sector) -> tuple[tuple[int, ...], ...]:
    L, N = sector.parties, sector.local_dim
    if sector.kind == DISTINGUISHABLE:
        return tuple(itertools.product(range(N), repeat=L))
    if sector.kind == BOSONIC:
        # Sorted digit words in increasing order list their occupation
        # vectors in decreasing order.
        return tuple(
            tuple(word.count(j) for j in range(N))
            for word in itertools.combinations_with_replacement(range(N), L)
        )
    return tuple(itertools.combinations(range(1, N + 1), L))


@lru_cache(maxsize=None)
def _basis_index(sector: Sector) -> dict[tuple[int, ...], int]:
    return {label: i for i, label in enumerate(_basis_labels(sector))}


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


@lru_cache(maxsize=None)
def embedding_isometry(sector: Sector) -> np.ndarray:
    """Isometry from the sector basis into the full tensor power ``(C^N)^L``.

    Columns are the orthonormal (anti)symmetrized basis vectors; for
    distinguishable particles this is the identity.  Built in one pass over
    the product kets: a bosonic ket lies in the column of its sorted digit
    word (its occupation vector) with entry ``1/sqrt(multinomial)``, a
    fermionic ket with distinct digits in the column of its digit set with
    entry ``(-1)^inversions / sqrt(L!)``.  Raises ShapeMismatch when the
    ``N^L x dim`` array cannot be allocated.
    """
    L, N = sector.parties, sector.local_dim
    full, dim = N**L, sector.dim
    radix = N ** np.arange(L - 1, -1, -1)
    try:
        if sector.kind == DISTINGUISHABLE:
            return _frozen(np.eye(full))
        V = np.zeros((full, dim), dtype=complex)
        digits = (np.arange(full)[:, None] // radix) % N
    except MemoryError as exc:
        raise ShapeMismatch(
            f"{sector} embeds as a {N}^{L} x {dim} = {full} x {dim} array, "
            "too large to allocate"
        ) from exc
    ordered = np.sort(digits, axis=1)
    if sector.kind == BOSONIC:
        words = itertools.combinations_with_replacement(range(N), L)
        rows, signs = np.arange(full), 1.0
        norms = np.sqrt([
            math.factorial(L) // math.prod(map(math.factorial, occ))
            for occ in _basis_labels(sector)
        ])
    else:
        words = itertools.combinations(range(N), L)
        rows = np.flatnonzero(np.all(ordered[:, 1:] > ordered[:, :-1], axis=1))
        inversions = sum(
            digits[rows, i] > digits[rows, j] for i in range(L) for j in range(i + 1, L)
        )
        signs = (-1.0) ** inversions
        norms = np.full(dim, math.sqrt(math.factorial(L)))
    # Increasing words are the basis order of both kinds (see _basis_labels).
    word_keys = np.array(list(words), dtype=np.int64).reshape(dim, L) @ radix
    cols = np.searchsorted(word_keys, ordered[rows] @ radix)
    V[rows, cols] = signs / norms[cols]
    V.setflags(write=False)
    return V


@dataclass(frozen=True)
class PureState:
    """Normalized-or-not amplitude vector over a sector's canonical basis."""

    sector: Sector
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.sector.dim:
            raise ShapeMismatch(
                f"expected {self.sector.dim} amplitudes for {self.sector}, "
                f"got {amps.shape[0]}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_tensor(self) -> np.ndarray:
        """Amplitudes embedded in the full tensor power, shaped ``(N,)*L``."""
        return _embed(self.sector, self.amplitudes)

    def overlap_distance(self, other: "PureState") -> float:
        """Projective distance ``min_phase ||a - e^{i t} b||`` between unit states.

        Computed from the phase-aligned difference vector, which stays
        accurate far below the rounding floor of ``2 - 2|<a|b>|``.
        """
        if self.sector != other.sector:
            raise SectorMismatch("states live in different sectors")
        ov = np.vdot(other.amplitudes, self.amplitudes)
        phase = ov / abs(ov) if abs(ov) > 0 else 1.0
        return float(np.linalg.norm(self.amplitudes - phase * other.amplitudes))

    def to_json(self) -> dict:
        return {
            "sector": self.sector.kind,
            "parties": self.sector.parties,
            "local_dim": self.sector.local_dim,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


@dataclass(frozen=True)
class LocalOperator:
    """Single-party operator; the party index is ignored for identical particles."""

    party: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch("local operator must be a square matrix")
        object.__setattr__(self, "matrix", _frozen(mat))


def _embed(sector: Sector, x: np.ndarray) -> np.ndarray:
    """Sector amplitudes ``x`` as a tensor ``(N,)*L``; trailing batch axes are kept.

    Distinguishable amplitudes are only reshaped; identical-particle ones go
    through the embedding isometry in one GEMM.
    """
    batch = x.shape[1:]
    if sector.identical:
        x = embedding_isometry(sector) @ x.reshape(sector.dim, math.prod(batch))
    return x.reshape((sector.local_dim,) * sector.parties + batch)


def _project(sector: Sector, t: np.ndarray) -> np.ndarray:
    """Sector amplitudes of a tensor ``(N,)*L``; trailing batch axes are kept.

    The adjoint of ``_embed``: the isometry is real, so its transpose.
    """
    batch = t.shape[sector.parties :]
    flat = t.reshape(sector.local_dim**sector.parties, math.prod(batch))
    flat = embedding_isometry(sector).T @ flat if sector.identical else flat
    return flat.reshape((sector.dim,) + batch)


def state_from_tensor(sector: Sector, tensor: np.ndarray) -> PureState:
    """Project a full tensor back onto the sector basis."""
    L, N = sector.parties, sector.local_dim
    flat = np.asarray(tensor, dtype=complex).reshape(-1)
    if flat.shape[0] != N**L:
        raise ShapeMismatch("tensor size does not match the sector")
    return PureState(sector, _project(sector, flat.reshape((N,) * L)))


def normalize(state: PureState) -> PureState:
    """Scale to unit norm; raises ZeroState below the zero tolerance."""
    norm = state.norm
    if norm < ZERO_TOL:
        raise ZeroState("cannot normalize a (numerically) zero state")
    return PureState(state.sector, state.amplitudes / norm)


def inner(a: PureState, b: PureState) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if a.sector != b.sector:
        raise SectorMismatch(f"sectors differ: {a.sector} vs {b.sector}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


@lru_cache(maxsize=None)
def _axis_maps(parties: int, local_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of every axis's matricization of a ``(N,)*L`` tensor, and back.

    ``flat[maps]`` stacks, shape ``(L, N, N^(L-1))``, each axis as rows and the
    others in order as columns; tensor entry ``i`` sits at ``inverse[p, i]`` of it, flattened.
    """
    size = local_dim**parties
    index = np.arange(size).reshape((local_dim,) * parties)
    maps = np.stack([np.moveaxis(index, p, 0).reshape(local_dim, -1) for p in range(parties)])
    inverse = np.argsort(maps.reshape(parties, size), axis=1) + size * np.arange(parties)[:, None]
    maps.setflags(write=False)
    inverse.setflags(write=False)
    return maps, inverse


def _axis_views(sector: Sector, tensor: np.ndarray) -> np.ndarray:
    """The matricizations the acting factors read, stacked: ``(acting, N, N^(L-1)) + batch``.

    Distinguishable parties gather every axis in one fancy-index call;
    identical particles read axis 0 alone, a reshape (the one-axis rule of the
    module docstring).  Trailing batch axes are kept.  Every reduction and
    one-body image reads these views, so a state without particles stops here.
    """
    L, N = sector.parties, sector.local_dim
    if L == 0:
        raise ShapeMismatch("a state without particles has no one-particle reduction")
    batch = tensor.shape[L:]
    if sector.identical:
        return tensor.reshape((1, N, N ** (L - 1)) + batch)
    maps, _ = _axis_maps(L, N)
    return tensor.reshape((-1,) + batch)[maps]


def _axis_matrices(sector: Sector, mats: list[np.ndarray]) -> np.ndarray:
    """One validated complex ``N x N`` matrix per acting factor, stacked."""
    N = sector.local_dim
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(mats) != sector.acting:
        raise ShapeMismatch(f"need {sector.acting} matrices for {sector}, got {len(mats)}")
    for m in mats:
        if m.shape != (N, N):
            raise ShapeMismatch(f"matrix shape {m.shape} does not match N={N}")
    return np.stack(mats)


def _local_product(sector: Sector, mats: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """The group action ``M_1 x ... x M_L`` on a tensor; trailing batch axes are kept.

    One matrix per acting factor, each on its ``Sector.copies`` axes, applied
    axis by axis: one GEMM on the leading axis, then one swap that rotates it
    behind the other parties, so after ``L`` steps every axis is back in place.
    """
    N = sector.local_dim
    batch = math.prod(tensor.shape[sector.parties :])
    out = tensor
    for p in range(sector.parties):
        out = (mats[p % sector.acting] @ out.reshape(N, -1)).reshape(N, -1, batch).swapaxes(0, 1)
    return out.reshape(tensor.shape)


def _one_body(sector: Sector, mats: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """The algebra action ``sum_p I x..x M_p x..x I``, one matrix per acting factor.

    The factor sum of ``_factor_images``, batch axes and all, in one product.
    """
    return _factor_images(sector, np.asarray(mats)[:, None], tensor).sum(axis=-1)


def _one_body_matrix(sector: Sector, mats: np.ndarray) -> np.ndarray:
    """Dense sector-basis matrix of ``_one_body``.

    Identical particles: ``copies V^T (M x 1 x .. x 1) V``, ``_one_body`` on
    the isometry's columns, with no ``N^L x N^L`` array.  Distinguishable
    parties: the Kronecker sum, written into diagonal views of one array.
    """
    L, N = sector.parties, sector.local_dim
    if sector.identical:
        V = embedding_isometry(sector)
        return _project(sector, _one_body(sector, mats, V.reshape((N,) * L + (sector.dim,))))
    out = np.zeros((N**L, N**L), dtype=complex)
    for p in range(L):
        # ``I_(N^p) x M_p x I`` on the blocks ``[i, :, j, i, :, j]``, a view into ``out``.
        blocks = out.reshape(N**p, N, N ** (L - p - 1), N**p, N, N ** (L - p - 1))
        np.einsum("ixjiyj->ijxy", blocks)[...] += mats[p]
    return out


def _factor_images(sector: Sector, mats: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """``_one_body`` of each of ``K`` matrices in one acting factor, zero in the others.

    ``mats`` is a frame ``(K, N, N)`` shared by the acting factors or a stack
    ``(acting, K, N, N)``; ``copies`` times it meets the stacked axis views in one
    product.  Identical images are right after ``_project``; distinguishable ones
    fold back through the inverse map.  Shape ``(N,)*L + batch + (acting * K,)``.
    """
    L, N, K = sector.parties, sector.local_dim, mats.shape[-3]
    views = _axis_views(sector, tensor).reshape(sector.acting, N, -1)
    # ``(acting, N, N^(L-1) * batch, K)``; swaps put ``K`` last faster than ``np.moveaxis``.
    stack = (sector.copies * mats).swapaxes(-3, -1).swapaxes(-3, -2)
    images = np.matmul(views.swapaxes(1, 2)[:, None], stack)
    if sector.identical:
        return images.reshape(tensor.shape + (K,))
    _, inverse = _axis_maps(L, N)
    folded = np.take(images.reshape(L * N**L, -1), inverse.T, axis=0)
    folded = folded.reshape((N**L, L) + tensor.shape[L:] + (K,))
    return np.moveaxis(folded, 1, -2).reshape(tensor.shape + (L * K,))


def apply_local(ops: list[LocalOperator] | LocalOperator, state: PureState) -> PureState:
    """Act with local operators: one per party, or one applied diagonally.

    The output is re-expressed in the sector basis; symmetric and
    antisymmetric subspaces are invariant under diagonal actions, so no
    component is lost for identical particles.
    """
    if isinstance(ops, LocalOperator):
        ops = [ops]
    sector = state.sector
    L = sector.parties
    if not sector.identical and sorted(op.party for op in ops) != list(range(L)):
        raise ShapeMismatch(f"need exactly one operator per party 0..{L - 1}")
    mats = _axis_matrices(sector, [op.matrix for op in sorted(ops, key=lambda o: o.party)])
    return state_from_tensor(sector, _local_product(sector, mats, state.to_tensor()))


def dicke(k: int, parties: int) -> PureState:
    """Symmetric two-state bosonic state with exactly ``k`` excitations."""
    if not 0 <= k <= parties:
        raise IndexOutOfRange(f"need 0 <= k <= {parties}, got {k}")
    sector = bosonic(parties, 2)
    amps = np.zeros(sector.dim, dtype=complex)
    amps[_basis_index(sector)[(parties - k, k)]] = 1.0
    return PureState(sector, amps)


def hodge_dual(state: PureState) -> PureState:
    """Map an L-fermion state to its (N-L)-fermion complement state.

    Basis-level linear map: each occupied subset goes to its complement with
    the sign of the permutation that concatenates subset and complement in
    ascending order.  Applying it twice returns the original up to global sign.
    """
    sector = state.sector
    if sector.kind != FERMIONIC:
        raise SectorMismatch("hodge_dual requires a fermionic sector")
    L, N = sector.parties, sector.local_dim
    dual_sector = fermionic(N - L, N)
    index = _basis_index(dual_sector)
    amps = np.zeros(dual_sector.dim, dtype=complex)
    everything = set(range(1, N + 1))
    for i, subset in enumerate(sector.basis_labels()):
        comp = tuple(sorted(everything - set(subset)))
        # subset[j] moves past the subset[j] - 1 - j complement modes below it.
        sign = (-1) ** (sum(subset) - L * (L + 1) // 2)
        amps[index[comp]] += sign * state.amplitudes[i]
    return PureState(dual_sector, amps)


def random_state(sector: Sector, rng: np.random.Generator) -> PureState:
    """Gaussian-amplitude (Haar on the sphere) normalized random state."""
    amps = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
    return normalize(PureState(sector, amps))


def state_from_json(document: dict | str) -> PureState:
    """Load a state from the JSON document format; normalizes on load."""
    if isinstance(document, str):
        document = json.loads(document)
    try:
        sector = Sector(
            str(document["sector"]),
            _header_count(document, "parties", 1),
            _header_count(document, "local_dim", 2),
        )
        pairs = document["amplitudes"]
        if any(isinstance(part, bool) for pair in pairs for part in pair):
            raise TypeError("an amplitude part is true or false")
        amps = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"malformed state document: {exc}") from exc
    if not np.all(np.isfinite(amps)):
        raise ShapeMismatch("malformed state document: non-finite amplitude")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(amps)):
            # Scale by the largest component first; that division cannot overflow.
            amps = amps / np.max(np.abs(amps.view(float)))
    return normalize(PureState(sector, amps))


def _header_count(document: dict, field: str, minimum: int) -> int:
    """A sector size from a state document: a JSON integer of at least ``minimum``."""
    value = document[field]
    # ``bool`` subclasses ``int``, but ``true`` is not a count.
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ShapeMismatch(
            f"malformed state document: {field} must be an integer >= {minimum},"
            f" got {value!r}"
        )
    return value


def basis_state(sector: Sector, label: tuple[int, ...]) -> PureState:
    """Unit amplitude on one canonical basis element."""
    index = _basis_index(sector)
    if tuple(label) not in index:
        raise IndexOutOfRange(f"{label} is not a basis label of {sector}")
    amps = np.zeros(sector.dim, dtype=complex)
    amps[index[tuple(label)]] = 1.0
    return PureState(sector, amps)
