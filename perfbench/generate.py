"""Fixed-seed inputs for the benchmark workloads.

Each workload is a list of operations.  An operation carries an ``id``, a
``spec`` that says what the input is (the oracle derives the known answer
from it) and, for classify operations, a ``state`` document in the README's
JSON format.  Moved states are built here with numpy alone, never through
``sloccflow.apply_local``: that call fills the embedding cache, and the
timed process must pay for every embedding it needs.

Usage: ``python3 perfbench/generate.py WORKLOAD SEED OUT.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

import numpy as np

WORKLOADS = ("classify-small", "classify-wide", "chamber-scan", "identical-sectors")

# Same amplitude tables as the three-qubit cases in tests/test_pipeline.py.
THREE_QUBIT_KETS = {
    "GHZ": [1, 0, 0, 0, 0, 0, 0, 1],
    "W": [0, 1, 1, 0, 1, 0, 0, 0],
    "B1": [1, 0, 0, 1, 0, 0, 0, 0],
    "B2": [1, 0, 0, 0, 0, 1, 0, 0],
    "B3": [1, 0, 0, 0, 0, 0, 1, 0],
    "SEP": [1, 0, 0, 0, 0, 0, 0, 0],
}
FOUR_QUBIT_FAMILIES = {
    "L_abc2": (1.0, 1.0, 1.0),
    "L_a2b2": (1.0, 1.0),
    "L_ab3": (1.0, 1.0),
    "L_a4": (1.0,),
    "L_a2_0": (1.0,),
}
THREE_QUBIT_SPREAD = 0.45
BIPARTITE_SPREAD = 0.4
DICKE_SPREAD = 0.35
PAIR_SPREAD = 0.3


def random_special_linear(rng: np.random.Generator, n: int, spread: float) -> np.ndarray:
    """``I + spread * G`` for complex Gaussian ``G``, scaled to unit determinant."""
    m = np.eye(n) + spread * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    return m / np.linalg.det(m) ** (1.0 / n)


def _unit(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


def _document(kind: str, parties: int, local_dim: int, amps: np.ndarray) -> dict:
    return {
        "sector": kind,
        "parties": parties,
        "local_dim": local_dim,
        "amplitudes": [[float(a.real), float(a.imag)] for a in _unit(amps)],
    }


def _moved_qudits(
    rng: np.random.Generator, amps, parties: int, local_dim: int, spread: float
) -> np.ndarray:
    """One random unit-determinant matrix per party, applied to the tensor."""
    tensor = np.asarray(amps, dtype=complex).reshape((local_dim,) * parties)
    for p in range(parties):
        g = random_special_linear(rng, local_dim, spread)
        tensor = np.moveaxis(np.tensordot(g, tensor, axes=([1], [p])), 0, p)
    return tensor.reshape(-1)


def moved_dicke(g: np.ndarray, parties: int, k: int) -> np.ndarray:
    """``g^(x L)`` on the k-excitation state, in the excitation basis.

    The symmetrized tensor of ``a^(L-k) b^k`` with ``a, b`` the columns of
    ``g`` has amplitude ``c_j / sqrt(C(L, j))`` on the j-excitation state,
    where ``c_j`` is the coefficient of ``x^j`` in ``(a0 + a1 x)^(L-k) (b0 + b1 x)^k``.
    """
    poly = np.array([1.0 + 0j])
    for col, power in ((0, parties - k), (1, k)):
        for _ in range(power):
            poly = np.convolve(poly, [g[0, col], g[1, col]])
    return np.array(
        [poly[j] / math.sqrt(math.comb(parties, j)) for j in range(parties + 1)]
    )


def _pair_labels(kind: str, local_dim: int) -> list[tuple[int, ...]]:
    """Basis labels of a two-particle sector, in the README's basis order."""
    if kind == "fermionic":
        return list(itertools.combinations(range(1, local_dim + 1), 2))
    occupations = [
        occ for occ in itertools.product(range(3), repeat=local_dim) if sum(occ) == 2
    ]
    return sorted(occupations, reverse=True)


def moved_pair(kind: str, g: np.ndarray, local_dim: int, k: int) -> np.ndarray:
    """Rank-k boson or fermion pair state moved by ``g (x) g``.

    The pair state is the matrix ``M`` of its two-particle tensor; the move is
    ``g M g^T``.  Occupation ``2 e_i`` reads ``M_ii`` and occupation
    ``e_i + e_j`` (or the ascending wedge ``i ^ j``) reads ``sqrt(2) M_ij``.
    """
    M = np.zeros((local_dim, local_dim), dtype=complex)
    for i in range(k):
        if kind == "fermionic":
            M[2 * i, 2 * i + 1], M[2 * i + 1, 2 * i] = 1.0, -1.0
        else:
            M[i, i] = 1.0
    M = g @ M @ g.T
    amps = []
    for label in _pair_labels(kind, local_dim):
        if kind == "fermionic":
            i, j = label[0] - 1, label[1] - 1
        else:
            i, j = [m for m, n in enumerate(label) for _ in range(n)]
        amps.append(M[i, i] if i == j else math.sqrt(2.0) * M[i, j])
    return np.array(amps)


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _w_ket(parties: int) -> np.ndarray:
    amps = np.zeros(2**parties, dtype=complex)
    for p in range(parties):
        amps[1 << p] = 1.0
    return amps


def _op(op_id: str, spec: dict, state: dict | None = None) -> dict:
    out = {"id": op_id, "spec": spec}
    if state is not None:
        out["state"] = state
    return out


def classify_small(rng: np.random.Generator) -> list[dict]:
    # Seven moved states per three-qubit class put the median (GHZ and B
    # classes) and the 75th percentile (W class) inside groups of like
    # operations rather than at the edge between two groups.
    ops = []
    for name, kets in THREE_QUBIT_KETS.items():
        for r in range(7):
            amps = _moved_qudits(rng, kets, 3, 2, THREE_QUBIT_SPREAD)
            ops.append(
                _op(f"three-{name}-{r}", {"kind": "three_qubit", "family": name},
                    _document("distinguishable", 3, 2, amps))
            )
    for parties, local_dim in ((3, 2), (4, 2), (4, 3)):
        for r in range(3):
            amps = _haar(rng, local_dim**parties)
            ops.append(
                _op(f"haar-{parties}x{local_dim}-{r}", {"kind": "zero_level"},
                    _document("distinguishable", parties, local_dim, amps))
            )
    for N in (3, 4):
        for k in range(1, N + 1):
            amps = np.zeros(N * N, dtype=complex)
            amps[[i * N + i for i in range(k)]] = 1.0
            amps = _moved_qudits(rng, amps, 2, N, BIPARTITE_SPREAD)
            ops.append(
                _op(f"bipartite-{N}-{k}", {"kind": "bipartite", "N": N, "k": k},
                    _document("distinguishable", 2, N, amps))
            )
    from sloccflow import four_qubit_family

    for name, params in FOUR_QUBIT_FAMILIES.items():
        amps = four_qubit_family(name, params).amplitudes
        ops.append(
            _op(f"four-qubit-{name}", {"kind": "zero_level"},
                _document("distinguishable", 4, 2, amps))
        )
    for parties in (4, 5):
        for spread in (1.0, 0.1):
            amps = _moved_qudits(rng, _w_ket(parties), parties, 2, spread)
            ops.append(
                _op(f"w{parties}-moved-{spread}", {"kind": "w", "L": parties},
                    _document("distinguishable", parties, 2, amps))
            )
    return ops


def classify_wide(rng: np.random.Generator) -> list[dict]:
    # Three random states per size put the median latency inside the random
    # group, whose times vary by seed, rather than between two single ones.
    ops = []
    for parties in (8, 9, 10):
        for r in range(3):
            ops.append(
                _op(f"haar-{parties}x2-{r}", {"kind": "zero_level"},
                    _document("distinguishable", parties, 2, _haar(rng, 2**parties)))
            )
    for parties in (8, 9, 10):
        ops.append(
            _op(f"w{parties}", {"kind": "w", "L": parties},
                _document("distinguishable", parties, 2, _w_ket(parties)))
        )
    return ops


def chamber_scan(seed: int) -> list[dict]:
    return [_op("scan-3", {"kind": "scan", "parties": 3, "max_denominator": 12, "seed": seed})]


def identical_sectors(rng: np.random.Generator) -> list[dict]:
    ops = []
    for L in range(5, 11):
        for k in range(L // 2 + 1):
            amps = moved_dicke(random_special_linear(rng, 2, DICKE_SPREAD), L, k)
            ops.append(
                _op(f"dicke-{L}-{k}", {"kind": "dicke", "L": L, "k": k},
                    _document("bosonic", L, 2, amps))
            )
    for kind, modes in (("fermionic", (6, 7, 8)), ("bosonic", (3, 4))):
        for N in modes:
            top = N // 2 if kind == "fermionic" else N
            for k in range(1, top + 1):
                g = random_special_linear(rng, N, PAIR_SPREAD)
                spec_kind = "fermion_pair" if kind == "fermionic" else "boson_pair"
                ops.append(
                    _op(f"{spec_kind}-{N}-{k}", {"kind": spec_kind, "N": N, "k": k},
                        _document(kind, 2, N, moved_pair(kind, g, N, k)))
                )
    for r in range(2):
        ops.append(
            _op(f"haar-bosonic-5x3-{r}", {"kind": "zero_level"},
                _document("bosonic", 5, 3, _haar(rng, math.comb(7, 5))))
        )
    return ops


def generate(workload: str, seed: int) -> list[dict]:
    """The operation list of ``workload`` for ``seed``; same seed, same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if workload == "chamber-scan":
        return chamber_scan(seed)
    by_name = {
        "classify-small": classify_small,
        "classify-wide": classify_wide,
        "identical-sectors": identical_sectors,
    }
    return by_name[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def write(workload: str, seed: int, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "operations": generate(workload, seed)}, fh)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[-1])
    write(sys.argv[1], int(sys.argv[2]), sys.argv[3])
