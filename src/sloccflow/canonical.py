"""Canonical forms: Schmidt, Takagi, antisymmetric pairing, Acin, four-qubit families.

Phase conventions: Schmidt and Takagi coefficients are real nonnegative with
phases absorbed into the unitaries; sorted weakly decreasing, ties broken by
original index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    NotAntisymmetric,
    NotSymmetric,
    SectorMismatch,
    UnknownFamily,
    ZeroState,
)
from .statespace import (
    DISTINGUISHABLE,
    LocalOperator,
    PureState,
    _apply_on_axis,
    _frozen,
    apply_local,
    distinguishable,
    normalize,
)

SYMMETRY_TOL = 1e-10
ACIN_RESIDUAL = 1e-9


@dataclass(frozen=True)
class SchmidtForm:
    """Bipartite normal form: coefficients plus the two diagonalizing unitaries."""

    coefficients: np.ndarray
    local_unitaries: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen(self.coefficients, dtype=float))
        object.__setattr__(
            self, "local_unitaries", tuple(_frozen(u) for u in self.local_unitaries)
        )


@dataclass(frozen=True)
class AcinForm:
    """Three-qubit normal form coefficients and the reducing local unitaries."""

    p: float
    q: float
    r: float
    s: float
    z: complex
    unitaries: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "unitaries", tuple(_frozen(u) for u in self.unitaries))

    def amplitudes(self) -> np.ndarray:
        amps = np.zeros(8, dtype=complex)
        amps[0b011] = self.p
        amps[0b101] = self.q
        amps[0b110] = self.r
        amps[0b111] = self.s
        amps[0b000] = self.z
        return amps


def schmidt(state: PureState) -> SchmidtForm:
    """Singular-value normal form of a bipartite distinguishable state."""
    sector = state.sector
    if sector.kind != DISTINGUISHABLE or sector.parties != 2:
        raise SectorMismatch("schmidt requires two distinguishable particles")
    C = normalize(state).to_tensor()
    U, s, Vh = np.linalg.svd(C)
    # (U1 (x) U2) C with U1 = U^dagger, U2 = Vh^T-bar sends C to diag(s):
    # (U^dagger C Vh^dagger)_ij = s_i delta_ij.
    return SchmidtForm(s, (U.conj().T, Vh.conj()))


def _con_eigenvector(M: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """Unit vector u with ``M conj(u) = s u`` built from a left singular vector."""
    cand_a = M @ w.conj() + s * w
    cand_b = 1j * (M @ w.conj() - s * w)
    cand = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
    return cand / np.linalg.norm(cand)


def takagi(matrix: np.ndarray, tol: float = SYMMETRY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Unitary congruence diagonalization of a complex symmetric matrix.

    Returns ``(U, a)`` with ``U M U^T = diag(a)`` and ``a`` nonnegative,
    weakly decreasing.  Deflation by single con-eigenvectors handles
    degenerate singular values.
    """
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric("takagi requires a square matrix")
    if np.max(np.abs(M - M.T)) > tol:
        raise NotSymmetric("matrix is not complex symmetric")
    N = M.shape[0]
    columns: list[np.ndarray] = []
    values: list[float] = []
    work = 0.5 * (M + M.T)
    frame = np.eye(N, dtype=complex)  # columns: current subspace basis in C^N
    while work.shape[0] > 0:
        left, svals, _ = np.linalg.svd(work)
        top = float(svals[0])
        if top <= 1e-14:
            for col in frame.T:
                columns.append(col)
                values.append(0.0)
            break
        u = _con_eigenvector(work, left[:, 0], top)
        columns.append(frame @ u)
        values.append(top)
        # Deflate: the conjugated bilinear form restricted to u's complement.
        Q = _orthonormal_complement(u)
        work = Q.conj().T @ work @ Q.conj()
        frame = frame @ Q
    S = np.stack(columns, axis=1)
    a = np.array(values)
    order = np.argsort(-a, kind="stable")
    S = S[:, order]
    a = a[order]
    U = S.conj().T
    # Absorb residual phases so the diagonal is real nonnegative.
    diag = np.diag(U @ M @ U.T)
    phases = np.where(np.abs(diag) > 1e-14, np.exp(-0.5j * np.angle(diag)), 1.0)
    U = phases[:, None] * U
    return U, a


def _orthonormal_complement(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of a unit vector, as columns."""
    n = u.shape[0]
    full = np.eye(n, dtype=complex) - np.outer(u, u.conj())
    Q, _, _ = np.linalg.svd(full)
    return Q[:, : n - 1]


def antisym_canonical(
    matrix: np.ndarray, tol: float = SYMMETRY_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Unitary congruence of an antisymmetric matrix to paired 2x2 blocks.

    Returns ``(U, a)`` where ``U M U^T`` is the direct sum of blocks
    ``[[0, a_i], [-a_i, 0]]`` (weakly decreasing) padded with zeros.
    """
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotAntisymmetric("antisym_canonical requires a square matrix")
    if np.max(np.abs(M + M.T)) > tol:
        raise NotAntisymmetric("matrix is not complex antisymmetric")
    N = M.shape[0]
    work = 0.5 * (M - M.T)
    frame = np.eye(N, dtype=complex)
    pair_columns: list[tuple[np.ndarray, np.ndarray, float]] = []
    zero_columns: list[np.ndarray] = []
    while work.shape[0] > 0:
        gram = work @ work.conj().T
        vals, vecs = np.linalg.eigh(gram)
        top = float(vals[-1])
        if top <= 1e-28:
            for col in frame.T:
                zero_columns.append(col)
            break
        s = math.sqrt(top)
        u1 = vecs[:, -1]
        u2 = (work @ u1.conj()) / s
        pair_columns.append((frame @ u2, frame @ u1, s))
        Q = _orthonormal_complement_many(np.stack([u1, u2], axis=1))
        work = Q.conj().T @ work @ Q.conj()
        frame = frame @ Q
    pair_columns.sort(key=lambda t: -t[2])
    cols: list[np.ndarray] = []
    values: list[float] = []
    for c1, c2, s in pair_columns:
        cols.extend([c1, c2])
        values.append(s)
    cols.extend(zero_columns)
    S = np.stack(cols, axis=1)
    U = S.conj().T
    # Fix phases per 2x2 block so entries are (0, +a; -a, 0).
    out = U @ M @ U.T
    for b, s in enumerate(values):
        if s <= 1e-14:
            continue
        entry = out[2 * b, 2 * b + 1]
        phase = np.exp(-1j * np.angle(entry))
        U[2 * b] *= phase
    return U, np.array(values)


def _orthonormal_complement_many(cols: np.ndarray) -> np.ndarray:
    n, k = cols.shape
    full = np.eye(n, dtype=complex) - cols @ cols.conj().T
    Q, s, _ = np.linalg.svd(full)
    return Q[:, : n - k]


def _su2(params: np.ndarray) -> np.ndarray:
    """SU(2) element from three real rotation parameters."""
    x, y, z = params
    theta = math.sqrt(x * x + y * y + z * z)
    if theta < 1e-300:
        return np.eye(2, dtype=complex)
    nx, ny, nz = x / theta, y / theta, z / theta
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c + 1j * s * nz, s * (1j * nx + ny)],
            [s * (1j * nx - ny), c - 1j * s * nz],
        ],
        dtype=complex,
    )


_PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1j], [1j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

_ACIN_TARGETS = ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def _rotated(unitaries: list[np.ndarray], tensor: np.ndarray) -> tuple[np.ndarray, float]:
    """The tensor under one unitary per qubit, and its targeted mass."""
    out = tensor
    for p, u in enumerate(unitaries):
        out = _apply_on_axis(u, out, p)
    return out, float(sum(abs(out[t]) ** 2 for t in _ACIN_TARGETS))


def _acin_gradient(out: np.ndarray) -> np.ndarray:
    """Riemannian gradient over the nine local rotation directions.

    Entry ``(p, a)``: derivative of the targeted mass under
    ``U_p <- exp(i eps sigma_a) U_p``.
    """
    proj = np.zeros_like(out)
    for t in _ACIN_TARGETS:
        proj[t] = out[t]
    grad = np.zeros((3, 3))
    for p in range(3):
        for a in range(3):
            moved = _apply_on_axis(_PAULI[a], out, p)
            grad[p, a] = 2.0 * float(np.real(1j * np.vdot(proj, moved)))
    return grad


def acin_form(
    state: PureState,
    restarts: int = 24,
    seed: int = 0,
    residual_target: float = ACIN_RESIDUAL,
    max_iterations: int = 6000,
) -> AcinForm:
    """Three-qubit normal form with entries 001, 010, 100 driven to zero.

    Implemented as gradient descent on the product of local special
    unitaries (backtracking step, random restarts) minimizing the targeted
    squared magnitudes; the remaining entries 011, 101, 110, 111 are made
    real nonnegative by diagonal phase freedom.  The form is not unique in
    general; the first minimum found is returned.
    """
    sector = state.sector
    if sector.kind != DISTINGUISHABLE or sector.parties != 3 or sector.local_dim != 2:
        raise SectorMismatch("acin_form requires three distinguishable qubits")
    tensor = normalize(state).to_tensor()
    rng = np.random.default_rng(seed)
    target_value = residual_target**2
    best: tuple[float, list[np.ndarray]] | None = None
    for attempt in range(restarts):
        if attempt == 0:
            unitaries = [np.eye(2, dtype=complex) for _ in range(3)]
        else:
            unitaries = [_su2(rng.uniform(-math.pi, math.pi, size=3)) for _ in range(3)]
        out, value = _rotated(unitaries, tensor)
        step = 0.25
        for _ in range(max_iterations):
            if value <= target_value:
                break
            grad = _acin_gradient(out)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-14:
                break
            while step > 1e-14:
                trial = [
                    _su2(-step * grad[p]) @ unitaries[p] for p in range(3)
                ]
                trial_out, trial_value = _rotated(trial, tensor)
                if trial_value < value:
                    unitaries, out, value = trial, trial_out, trial_value
                    step = min(step * 1.5, 2.0)
                    break
                step *= 0.5
            else:
                break
        if best is None or value < best[0]:
            best = (value, unitaries)
        if best[0] <= target_value:
            break
    assert best is not None
    if best[0] > target_value:
        raise ConvergenceFailure(
            f"normal-form reduction stalled at residual {math.sqrt(best[0]):.3e}"
        )
    unitaries = best[1]
    reduced = apply_local(
        [LocalOperator(p, u) for p, u in enumerate(unitaries)], normalize(state)
    )
    amps = reduced.amplitudes
    phased, phases = _fix_acin_phases(amps)
    unitaries = [
        np.diag([np.exp(1j * a), np.exp(-1j * a)]) @ u
        for a, u in zip(phases[:3], unitaries)
    ]
    # Fold the global phase into the first unitary (U(2), not SU(2)).
    unitaries[0] = np.exp(1j * phases[3]) * unitaries[0]
    return AcinForm(
        p=float(phased[0b011].real),
        q=float(phased[0b101].real),
        r=float(phased[0b110].real),
        s=float(phased[0b111].real),
        z=complex(phased[0b000]),
        unitaries=tuple(unitaries),
    )


def _fix_acin_phases(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal-phase gauge making the 011/101/110/111 entries real nonnegative.

    Local phases ``diag(e^{ia_p}, e^{-ia_p})`` plus a global phase ``g`` act on
    the five form entries linearly; solve for the phases that cancel the
    arguments of the nonzero targeted entries.
    """
    targets = [0b011, 0b101, 0b110, 0b111]
    # Phase picked up by entry (i1 i2 i3): sum_p (-1)^(i_p) a_p + g.
    coeff_rows = []
    rhs = []
    for idx in targets:
        if abs(amps[idx]) < 1e-12:
            continue
        bits = [(idx >> (2 - p)) & 1 for p in range(3)]
        coeff_rows.append([(-1.0) ** b for b in bits] + [1.0])
        rhs.append(-np.angle(amps[idx]))
    if coeff_rows:
        sol, *_ = np.linalg.lstsq(np.array(coeff_rows), np.array(rhs), rcond=None)
    else:
        sol = np.zeros(4)
    a1, a2, a3, g = sol
    phased = amps.copy()
    for idx in range(8):
        bits = [(idx >> (2 - p)) & 1 for p in range(3)]
        phase = sum(((-1.0) ** b) * a for b, a in zip(bits, (a1, a2, a3))) + g
        phased[idx] = amps[idx] * np.exp(1j * phase)
    return phased, np.array([a1, a2, a3, g])


FOUR_QUBIT_SECTOR = distinguishable(4, 2)

_GABCD_PAIRS = (
    ((0, 0, 0, 0), (1, 1, 1, 1)),
    ((0, 0, 1, 1), (1, 1, 0, 0)),
    ((0, 1, 0, 1), (1, 0, 1, 0)),
    ((0, 1, 1, 0), (1, 0, 0, 1)),
)


def _ket4(bits: tuple[int, int, int, int]) -> int:
    return bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]


def gabcd_span_basis() -> np.ndarray:
    """Orthonormal basis (columns) of the four-qubit maximally-mixed-marginal span."""
    basis = np.zeros((16, 4), dtype=complex)
    for col, (k1, k2) in enumerate(_GABCD_PAIRS):
        basis[_ket4(k1), col] = 1.0 / math.sqrt(2.0)
        basis[_ket4(k2), col] = 1.0 / math.sqrt(2.0)
    return basis


def gabcd(alpha: np.ndarray) -> PureState:
    """Normalized combination of the four paired-ket generators; momentum zero."""
    coeffs = np.asarray(alpha, dtype=complex).reshape(-1)
    if coeffs.shape[0] != 4:
        raise ZeroState("gabcd takes four complex coefficients")
    if np.max(np.abs(coeffs)) == 0.0:
        raise ZeroState("gabcd coefficients are all zero")
    amps = np.zeros(16, dtype=complex)
    for c, (k1, k2) in zip(coeffs, _GABCD_PAIRS):
        amps[_ket4(k1)] += c
        amps[_ket4(k2)] += c
    return normalize(PureState(FOUR_QUBIT_SECTOR, amps))


def gabcd_span_distance(state: PureState) -> float:
    """Distance of a normalized four-qubit state to the paired-ket span."""
    if state.sector != FOUR_QUBIT_SECTOR:
        raise SectorMismatch("expected a four-qubit distinguishable state")
    v = normalize(state).amplitudes
    B = gabcd_span_basis()
    residual = v - B @ (B.conj().T @ v)
    return float(np.linalg.norm(residual))


def _amps_from(terms: dict[tuple[int, int, int, int], complex]) -> np.ndarray:
    amps = np.zeros(16, dtype=complex)
    for bits, coeff in terms.items():
        amps[_ket4(bits)] += coeff
    return amps


def _family_l_abc2(a: float, b: float, c: float):
    v = _amps_from(
        {
            (0, 0, 0, 0): (a + b) / 2,
            (1, 1, 1, 1): (a + b) / 2,
            (0, 0, 1, 1): (a - b) / 2,
            (1, 1, 0, 0): (a - b) / 2,
            (0, 1, 0, 1): c,
            (1, 0, 1, 0): c,
        }
    )
    w = _amps_from({(0, 1, 1, 0): 1.0})
    return v, w, (-1.0, 1.0, 1.0, -1.0)


def _family_l_a2b2(a: float, b: float):
    v = _amps_from(
        {
            (0, 0, 0, 0): a,
            (1, 1, 1, 1): a,
            (0, 1, 0, 1): b,
            (1, 0, 1, 0): b,
        }
    )
    w = _amps_from({(0, 1, 1, 0): 1.0, (0, 0, 1, 1): 1.0})
    return v, w, (-1.0, 0.0, 1.0, 0.0)


def _family_l_ab3(a: float, b: float):
    v = _amps_from(
        {
            (0, 0, 0, 0): a,
            (1, 1, 1, 1): a,
            (0, 1, 0, 1): (a + b) / 2,
            (1, 0, 1, 0): (a + b) / 2,
            (0, 1, 1, 0): (a - b) / 2,
            (1, 0, 0, 1): (a - b) / 2,
        }
    )
    w = (1j / math.sqrt(2.0)) * _amps_from(
        {
            (0, 0, 0, 1): 1.0,
            (0, 0, 1, 0): 1.0,
            (0, 1, 1, 1): 1.0,
            (1, 0, 1, 1): 1.0,
        }
    )
    return v, w, (-1.0, -1.0, 1.0, 1.0)


def _family_l_a4(a: float):
    v = a * _amps_from(
        {
            (0, 0, 0, 0): 1.0,
            (0, 1, 0, 1): 1.0,
            (1, 0, 1, 0): 1.0,
            (1, 1, 1, 1): 1.0,
        }
    )
    w = _amps_from(
        {
            (0, 0, 0, 1): 1j,
            (0, 1, 1, 0): 1.0,
            (1, 0, 1, 1): -1j,
        }
    )
    return v, w, (-2.0, -1.0, 2.0, 1.0)


def _family_l_a2_0(a: float):
    v = _amps_from({(0, 0, 0, 0): a, (1, 1, 1, 1): a})
    w = _amps_from(
        {
            (0, 0, 1, 1): 1.0,
            (0, 1, 0, 1): 1.0,
            (0, 1, 1, 0): 1.0,
        }
    )
    return v, w, (-3.0, 1.0, 1.0, 1.0)


_FAMILIES = {
    "L_abc2": (_family_l_abc2, 3),
    "L_a2b2": (_family_l_a2b2, 2),
    "L_ab3": (_family_l_ab3, 2),
    "L_a4": (_family_l_a4, 1),
    "L_a2_0": (_family_l_a2_0, 1),
}

FOUR_QUBIT_FAMILY_NAMES = tuple(_FAMILIES)


def four_qubit_family_parts(
    name: str, params: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """Span component, transverse component, and the torus pattern killing it.

    The pattern entry ``s_p`` means party ``p`` evolves under
    ``diag(exp(s_p t), exp(-s_p t))``; all transverse weights are negative so
    the transverse component decays while the span component is fixed.
    """
    if name not in _FAMILIES:
        raise UnknownFamily(
            f"unknown family {name!r}; known: {', '.join(_FAMILIES)}"
        )
    builder, arity = _FAMILIES[name]
    if len(params) != arity:
        raise UnknownFamily(f"{name} takes {arity} parameters, got {len(params)}")
    return builder(*params)


def four_qubit_family(name: str, params: tuple[float, ...]) -> PureState:
    """Normalized representative state of a named four-qubit family."""
    v, w, _ = four_qubit_family_parts(name, params)
    return normalize(PureState(FOUR_QUBIT_SECTOR, v + w))
