"""Morse index of the squared momentum norm at its critical points.

The projective tangent space at a critical state splits into the tangent of
the invertible-local-operations orbit and its metric complement.  On the
complement the second variation of the momentum norm reduces, up to a
positive factor, to the Rayleigh second variation of the frozen momentum
operator: a complement direction ``u`` is negative exactly when
``<u|mu* u> < lambda``.  The index counts those directions, each complex
direction contributing the real pair ``{u, iu}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCritical
from .flow import ZERO_STRATUM_MU2, gradient_norm
from .momentum import _mu_star, _one_body, gell_mann_frame, momentum, mu_star_matrix
from .statespace import PureState, _apply_on_axis, _embed, _project, normalize

# Frames are built at flow terminals, where residual unstable-direction
# seeds sit at the gradient-tolerance scale (~1e-9); the cut must sit above
# that but far below genuine orbit directions, which are O(0.1) and larger.
FRAME_REL_TOL = 1e-6
NULL_BAND = 1e-6
DEFAULT_FD_STEP = 1e-4


def orbit_action_columns(state: PureState) -> np.ndarray:
    """Projected tangent vectors of the local-operations orbit, as columns.

    Columns are ``P(xi v)`` for the Hermitian generator frame of every party;
    the complex column span is the full orbit tangent because the acting
    algebra is closed under multiplication by ``i``.
    """
    sector = state.sector
    L, v = sector.parties, state.amplitudes
    tensor = _embed(sector, v)
    frame = gell_mann_frame(sector.local_dim)
    if sector.identical:
        parts = [_one_body([xi] * L, tensor) for xi in frame]
    else:
        parts = [_apply_on_axis(xi, tensor, p) for p in range(L) for xi in frame]
    cols = _project(sector, np.stack(parts, axis=-1))
    overlaps = v.conj() @ cols
    return cols - np.outer(v, overlaps)


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal split of the projective tangent space at a state.

    ``orbit_complex`` and ``complement_complex`` hold complex-orthonormal
    column bases; the corresponding real-orthonormal frames are the pairs
    ``{u, iu}`` exposed by ``orbit_basis`` / ``complement_basis``.
    """

    base: PureState
    orbit_complex: np.ndarray
    complement_complex: np.ndarray

    @staticmethod
    def _realify(columns: np.ndarray) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for col in columns.T:
            out.append(col)
            out.append(1j * col)
        return out

    @property
    def orbit_basis(self) -> list[np.ndarray]:
        return self._realify(self.orbit_complex)

    @property
    def complement_basis(self) -> list[np.ndarray]:
        return self._realify(self.complement_complex)

    def real_counts(self) -> tuple[int, int]:
        return 2 * self.orbit_complex.shape[1], 2 * self.complement_complex.shape[1]


def orbit_tangent_frame(state: PureState, rel_tol: float = FRAME_REL_TOL) -> TangentFrame:
    """Split the tangent space at ``state`` into orbit and complement frames."""
    state = normalize(state)
    v = state.amplitudes
    dim = state.sector.dim
    cols = orbit_action_columns(state)
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > (s[0] if s.size and s[0] > 0 else 1.0) * rel_tol))
    orbit = U[:, :rank]
    # Complete the base point and the orbit directions to a unitary; the
    # remaining columns span the projective complement.
    Q, R = np.linalg.qr(np.column_stack([v, orbit]), mode="complete")
    if rank + 1 > dim or np.any(np.abs(np.diag(R)[: rank + 1]) < 0.5):
        raise RuntimeError("tangent frame construction lost dimensions")
    return TangentFrame(state, orbit, Q[:, rank + 1 :])


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
    if not critical_above_zero_level(state, tol):
        return 0
    return index_from_spectrum(complement_hessian_spectrum(state), null_band)


def index_from_spectrum(hess: np.ndarray, null_band: float = NULL_BAND) -> int:
    """Morse index of a compressed spectrum: each negative entry counts twice."""
    return 2 * int(np.sum(hess < -null_band))


def critical_above_zero_level(state: PureState, tol: float = 1e-8) -> bool:
    """Whether the state lies above the zero level, where its index is counted.

    Raises ``NotCritical`` there when the gradient norm exceeds ``tol``.
    """
    state = normalize(state)
    # At (or numerically inside) the zero level the index is zero; residual
    # gradients of semistable terminals do not count against criticality.
    if momentum(state).norm_sq() <= ZERO_STRATUM_MU2:
        return False
    grad = gradient_norm(state)
    if grad > tol:
        raise NotCritical(f"gradient norm {grad:.3e} exceeds tolerance {tol:.1e}")
    return True


def complement_hessian_spectrum(state: PureState) -> np.ndarray:
    """Eigenvalues ``2(e_j - lambda)`` of the compressed second variation.

    Each entry counts twice in the Morse index when negative (pair ``u, iu``).
    """
    state = normalize(state)
    frame = orbit_tangent_frame(state)
    C = frame.complement_complex
    if C.shape[1] == 0:
        return np.zeros(0)
    # The frozen momentum operator acts matrix-free on [v, C]: <v|M v> and M C.
    v = state.amplitudes
    image = _mu_star(momentum(state), state.sector, np.column_stack([v, C]))
    lam = float(np.vdot(v, image[:, 0]).real)
    compressed = C.conj().T @ image[:, 1:]
    eigs = np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T))
    return 2.0 * (eigs - lam)


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
    grad = gradient_norm(state)
    if grad > 1e-6:
        raise NotCritical(f"gradient norm {grad:.3e}; oracle needs a critical state")
    frame = frame or orbit_tangent_frame(state)
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
    if momentum(state).norm_sq() <= ZERO_STRATUM_MU2:
        return 0
    H = hessian_fd_oracle(state, h=h)
    if H.size == 0:
        return 0
    eigs = np.linalg.eigvalsh(H)
    return int(np.sum(eigs < -null_band))


def hessian_to_csv(matrix: np.ndarray) -> str:
    """Render a Hessian matrix as plain CSV text."""
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(matrix))
