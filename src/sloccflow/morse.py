"""Morse index of the squared momentum norm at its critical points.

The projective tangent space at a critical state splits into the tangent of
the invertible-local-operations orbit and its metric complement.  On the
complement the second variation of the momentum norm reduces, up to a
positive factor, to the Rayleigh second variation of the frozen momentum
operator: a complement direction ``u`` is negative exactly when
``<u|mu* u> < lambda``.  The index counts those directions, each complex
direction contributing the real pair ``{u, iu}``.

The complement is never formed to read that spectrum.  At a critical state
``M v = lambda v`` for the frozen momentum operator ``M``, and the commutator
of ``M`` with a local generator ``X`` is again local, so ``M X v`` lies in the
span ``T`` of ``v`` and the orbit tangent: ``T`` is ``M``-invariant, and the
spectrum of ``M`` on the complement is ``spec(M)`` with ``spec(M|T)`` taken
out (the weight-space splitting of Kirwan 1984 and Ness 1984).  ``M`` is
diagonal on the kets of the local eigenbases, so ``spec(M)`` is the ket
weights applied to the local eigenvalues; ``spec(M|T)`` is the spectrum of the
small block of ``M`` on ``[v, orbit]``, read in the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotCritical
from .flow import _on_zero_level
from .momentum import (
    MomentumPoint,
    _generator_block,
    _GeneratorBlock,
    _one_body_diagonal,
    momentum,
    mu_star_matrix,
)
from .statespace import PureState, _embed, _local_product, _project, normalize

# Frames are built at flow terminals, where residual unstable-direction
# seeds sit at the gradient-tolerance scale (~1e-9); the cut must sit above
# that but far below genuine orbit directions, which are O(0.1) and larger.
FRAME_REL_TOL = 1e-6
NULL_BAND = 1e-6
# Largest distance of a Ritz value of the frozen momentum operator on the
# orbit tangent plus ``v`` from its spectrum.  Spectrum entries are
# ``2(e - lambda)``, so below half the null band an entry moves by less than
# the band the index reads.
SPLIT_TOL = 0.5 * NULL_BAND
DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal split of the projective tangent space at a state.

    ``orbit_complex`` and ``complement_complex`` hold complex-orthonormal
    column bases; the corresponding real-orthonormal frames are the pairs
    ``{u, iu}`` exposed by ``orbit_basis`` / ``complement_basis``.  The
    complement is completed on first use: the Morse spectrum never reads it.
    """

    base: PureState
    orbit_complex: np.ndarray

    @staticmethod
    def _realify(columns: np.ndarray) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for col in columns.T:
            out.append(col)
            out.append(1j * col)
        return out

    @cached_property
    def complement_complex(self) -> np.ndarray:
        # Complete the base point and the orbit directions to a unitary; the
        # remaining columns span the projective complement.
        rank = self.orbit_complex.shape[1]
        Q, _ = np.linalg.qr(
            np.column_stack([self.base.amplitudes, self.orbit_complex]), mode="complete"
        )
        return Q[:, rank + 1 :]

    @property
    def orbit_basis(self) -> list[np.ndarray]:
        return self._realify(self.orbit_complex)

    @property
    def complement_basis(self) -> list[np.ndarray]:
        return self._realify(self.complement_complex)

    def real_counts(self) -> tuple[int, int]:
        rank = self.orbit_complex.shape[1]
        return 2 * rank, 2 * (self.base.sector.dim - 1 - rank)


def orbit_tangent_frame(state: PureState, rel_tol: float = FRAME_REL_TOL) -> TangentFrame:
    """Split the tangent space at ``state`` into orbit and complement frames."""
    state = normalize(state)
    return _tangent_frame(state, _generator_block(state.sector, state.to_tensor()), rel_tol)


def _tangent_frame(state: PureState, block: _GeneratorBlock, rel_tol: float) -> TangentFrame:
    """``orbit_tangent_frame`` of a unit state from its ``_generator_block``."""
    U, s, _ = np.linalg.svd(block.orbit_columns(state.amplitudes), full_matrices=False)
    rank = int(np.sum(s > (s[0] if s.size and s[0] > 0 else 1.0) * rel_tol))
    # Orthonormal columns, all orthogonal to ``v``: the columns were projected
    # off it, so there are at most ``dim - 1`` of them.
    return TangentFrame(state, U[:, :rank])


def morse_index(
    state: PureState,
    tol: float = 1e-8,
    null_band: float = NULL_BAND,
) -> int:
    """Number of independent directions transverse to the orbit that lower ``||mu||^2``.

    Zero at the minimal level; otherwise twice the count of complement
    eigenvalues of the frozen momentum operator strictly below the Rayleigh
    value, with a ``null_band`` guard for numerically flat directions.
    """
    state = normalize(state)
    block = _generator_block(state.sector, state.to_tensor())
    return index_from_spectrum(_critical_spectrum(state, momentum(state), block, tol), null_band)


def index_from_spectrum(hess: np.ndarray, null_band: float = NULL_BAND) -> int:
    """Morse index of a compressed spectrum: each negative entry counts twice."""
    return 2 * int(np.sum(hess < -null_band))


def _critical_spectrum(
    state: PureState, point: MomentumPoint, block: _GeneratorBlock, tol: float = 1e-8
) -> np.ndarray:
    """Compressed spectrum of a unit state with momentum image ``point`` and ``block``.

    On the zero level the index is zero: the spectrum is empty and no frame
    is built, and residual gradients of semistable terminals do not count
    against criticality.  Above it, raises ``NotCritical`` when the block's
    gradient norm exceeds ``tol``.
    """
    if _on_zero_level(point.norm_sq()):
        return np.zeros(0)
    if block.grad_norm > tol:
        raise NotCritical(f"gradient norm {block.grad_norm:.3e} exceeds tolerance {tol:.1e}")
    return _complement_spectrum(state, point, block)


def complement_hessian_spectrum(state: PureState) -> np.ndarray:
    """Eigenvalues ``2(e_j - lambda)`` of the compressed second variation.

    Each entry counts twice in the Morse index when negative (pair ``u, iu``).
    Raises ``NotCritical`` when the state is not critical for its own
    momentum image, which the spectral split detects (see ``SPLIT_TOL``).
    """
    state = normalize(state)
    block = _generator_block(state.sector, state.to_tensor())
    return _complement_spectrum(state, momentum(state), block)


def _complement_spectrum(
    state: PureState, point: MomentumPoint, block: _GeneratorBlock
) -> np.ndarray:
    """``complement_hessian_spectrum`` of a unit state with momentum image ``point`` and ``block``.

    The span ``T`` of ``v`` and the orbit directions is invariant under the
    frozen momentum operator ``M``, so the complement spectrum is ``spec(M)``
    with the Ritz values of ``M`` on ``T`` taken out.  Both are read in the
    local eigenbases, where ``M`` is the diagonal ``spectrum``.
    """
    sector = point.sector
    frame = _tangent_frame(state, block, FRAME_REL_TOL)
    Q = _embed(sector, np.column_stack([frame.base.amplitudes, frame.orbit_complex]))
    values, vectors = np.linalg.eigh(point.coadjoint_matrices())
    spectrum = _one_body_diagonal(sector, values)
    rotated = _project(sector, _local_product(sector, vectors.conj().swapaxes(1, 2), Q))
    block = rotated.conj().T @ (spectrum[:, None] * rotated)
    lam = float(block[0, 0].real)
    ritz = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
    return 2.0 * (_remove_ritz(np.sort(spectrum), ritz, lam) - lam)


def _remove_ritz(spectrum: np.ndarray, ritz: np.ndarray, lam: float) -> np.ndarray:
    """Ascending ``spectrum`` without one entry per Ritz value.

    The spectrum splits into clusters at gaps above ``SPLIT_TOL``, and each
    Ritz value takes out the lowest remaining entry of the cluster of its
    nearest entry.  At a critical state the Rayleigh value ``lam`` is an
    eigenvalue too.  Raises ``NotCritical`` when ``lam`` or a Ritz value lies
    farther than ``SPLIT_TOL`` from the spectrum, or a cluster has fewer
    entries than Ritz values.
    """
    values = np.append(ritz, lam)
    nearest = np.searchsorted(0.5 * (spectrum[1:] + spectrum[:-1]), values)
    mismatch = float(np.max(np.abs(values - spectrum[nearest])))
    cluster = np.concatenate([[0], np.cumsum(np.diff(spectrum) > SPLIT_TOL)])
    taken = np.bincount(cluster[nearest[:-1]], minlength=cluster[-1] + 1)
    if mismatch > SPLIT_TOL or np.any(taken > np.bincount(cluster)):
        raise NotCritical(
            f"Ritz values on the orbit tangent lie up to {mismatch:.3e} from the "
            f"momentum operator's spectrum (bound {SPLIT_TOL:.1e}) or outnumber "
            "its eigenvalues there; the state is not critical"
        )
    # Position of each entry inside its cluster; the first ``taken`` go.
    position = np.arange(spectrum.size) - np.searchsorted(cluster, cluster)
    return spectrum[position >= taken[cluster]]


def hessian_fd_oracle(
    state: PureState,
    frame: TangentFrame | None = None,
    h: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Finite-difference Hessian of the frozen Rayleigh quotient on the complement.

    Independent check of ``morse_index``: central second differences of
    ``f(w) = <w|mu*([v0]) w> / <w|w>`` along the real complement frame.
    Returns the symmetric real matrix (empty when the complement is empty).
    """
    state = normalize(state)
    block = _generator_block(state.sector, state.to_tensor())
    if block.grad_norm > 1e-6:
        raise NotCritical(f"gradient norm {block.grad_norm:.3e}; oracle needs a critical state")
    frame = frame or _tangent_frame(state, block, FRAME_REL_TOL)
    directions = frame.complement_basis
    m = len(directions)
    if m == 0:
        return np.zeros((0, 0))
    M = mu_star_matrix(momentum(state), state.sector)
    v = state.amplitudes

    def f(w: np.ndarray) -> float:
        return float((np.vdot(w, M @ w) / np.vdot(w, w)).real)

    f0 = f(v)
    H = np.zeros((m, m))
    for i in range(m):
        ui = directions[i]
        H[i, i] = (f(v + h * ui) - 2.0 * f0 + f(v - h * ui)) / h**2
        for j in range(i + 1, m):
            uj = directions[j]
            mixed = (
                f(v + h * (ui + uj))
                - f(v + h * (ui - uj))
                - f(v - h * (ui - uj))
                + f(v - h * (ui + uj))
            ) / (4.0 * h**2)
            H[i, j] = H[j, i] = mixed
    return H


def morse_index_fd(
    state: PureState,
    h: float = DEFAULT_FD_STEP,
    null_band: float = NULL_BAND,
) -> int:
    """Morse index from the finite-difference oracle alone."""
    state = normalize(state)
    if _on_zero_level(momentum(state).norm_sq()):
        return 0
    H = hessian_fd_oracle(state, h=h)
    if H.size == 0:
        return 0
    eigs = np.linalg.eigvalsh(H)
    return int(np.sum(eigs < -null_band))


def hessian_to_csv(matrix: np.ndarray) -> str:
    """Render a Hessian matrix as plain CSV text."""
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(matrix))
