"""Critical-family enumeration for the worked sectors.

Each function returns one record per inequivalent critical family: the most
entangled representative of the family, its polytope distance, Morse index,
and stratum label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import (
    _level_screen,
    _weyl_grid_array,
    alpha_star_eigenspaces,
    qubit_spectrum_point,
    self_consistent_critical,
)
from .flow import FlowConfig, _on_zero_level, flow_to_critical
from .momentum import SpectrumPoint, _generator_block, _ordered_spectra, momentum
from .morse import _critical_spectrum, index_from_spectrum
from .statespace import (
    PureState,
    basis_state,
    bosonic,
    distinguishable,
    fermionic,
    normalize,
    random_state,
)


# Grid points screened per batch: bounds the screen's arrays at any grid size.
_SCREEN_ROWS = 1024


@dataclass(frozen=True)
class FamilyRecord:
    """One critical family: representative state and its invariants."""

    label: str
    state: PureState
    stratum: SpectrumPoint
    d_value: float
    morse_index: int

    @property
    def lambda_value(self) -> float:
        return self.d_value**2


def _record(
    label: str,
    state: PureState,
    index_tol: float = 1e-8,
    stratum: SpectrumPoint | None = None,
) -> FamilyRecord:
    """Record of a critical state; ``stratum`` overrides the ordered spectra."""
    state = normalize(state)
    # One momentum image and one column block give the level, the stratum and the index.
    point = momentum(state)
    block = _generator_block(state.sector, state.to_tensor())
    hess = _critical_spectrum(state, point, block, index_tol)
    return FamilyRecord(
        label=label,
        state=state,
        stratum=_ordered_spectra(point) if stratum is None else stratum,
        d_value=math.sqrt(max(point.norm_sq(), 0.0)),
        morse_index=index_from_spectrum(hess),
    )


def bipartite_rank_state(N: int, k: int) -> PureState:
    """Equal-weight rank-``k`` state ``sum_{i<=k} |i,i> / sqrt(k)``."""
    sector = distinguishable(2, N)
    amps = np.zeros(sector.dim, dtype=complex)
    for i in range(k):
        amps[i * N + i] = 1.0
    return normalize(PureState(sector, amps))


def bipartite_families(N: int) -> list[FamilyRecord]:
    """Rank-``k`` critical families of two ``N``-state distinguishable particles."""
    return [_record(f"rank-{k}", bipartite_rank_state(N, k)) for k in range(1, N + 1)]


def boson_pair_state(N: int, k: int) -> PureState:
    """Two-boson rank-``k`` critical state in doubly occupied modes."""
    sector = bosonic(2, N)
    labels = sector.basis_labels()
    amps = np.zeros(sector.dim, dtype=complex)
    for i in range(k):
        occ = tuple(2 if j == i else 0 for j in range(N))
        amps[labels.index(occ)] = 1.0
    return normalize(PureState(sector, amps))


def boson_pair_families(N: int) -> list[FamilyRecord]:
    return [_record(f"rank-{k}", boson_pair_state(N, k)) for k in range(1, N + 1)]


def fermion_pair_state(N: int, k: int) -> PureState:
    """Two-fermion rank-``k`` critical state on consecutive mode pairs."""
    sector = fermionic(2, N)
    labels = sector.basis_labels()
    amps = np.zeros(sector.dim, dtype=complex)
    for i in range(k):
        amps[labels.index((2 * i + 1, 2 * i + 2))] = 1.0
    return normalize(PureState(sector, amps))


def fermion_pair_families(N: int) -> list[FamilyRecord]:
    return [
        _record(f"rank-{k}", fermion_pair_state(N, k)) for k in range(1, N // 2 + 1)
    ]


def fermion_zero_level_empty(N: int, tol: float = 1e-10) -> bool:
    """Whether no two-fermion family reaches the zero momentum level."""
    return all(rec.d_value > tol for rec in fermion_pair_families(N))


def dicke_families(L: int) -> list[FamilyRecord]:
    """Inequivalent critical families of ``L`` two-state bosons.

    Every chamber operator is nondegenerate on the excitation basis, so the
    candidates are exactly the excitation eigenstates; those with chamber
    momentum image (at most half excited) represent the families.
    """
    sector = bosonic(L, 2)
    return [
        _record(f"dicke-{k}", basis_state(sector, (L - k, k))) for k in range(L // 2 + 1)
    ]


def dicke_rho_eigenvalues(record: FamilyRecord) -> tuple[float, float]:
    """Ordered reduced-density eigenvalues of a Dicke family representative."""
    spectrum = record.stratum.spectra[0]
    return (0.5 + float(spectrum[0]), 0.5 + float(spectrum[1]))


@dataclass(frozen=True)
class QubitScanResult:
    """Outcome of the chamber-grid scan over a distinguishable qubit sector.

    ``max_multiplicity`` is the longest eigenvalue block over the whole grid,
    off-level points included.
    """

    families: list[FamilyRecord]
    zero_family: FamilyRecord | None
    grid_size: int
    max_multiplicity: int


def scan_qubit_families(
    parties: int,
    max_denominator: int = 12,
    seed: int = 0,
    config: FlowConfig | None = None,
    self_consistency_tol: float = 1e-8,
) -> QubitScanResult:
    """Null-cone family scan for ``parties`` distinguishable qubits.

    Walks the rational chamber grid.  A batched product over the grid
    (``_level_screen``, ``_SCREEN_ROWS`` points at a time) keeps the points
    where some basis ket lies at the level ``||alpha||^2``, the only points
    that can carry a critical state, and reads the longest eigenvalue block
    of the whole grid.  At each kept point, in grid order,
    it enumerates the eigenvalue blocks of the chamber operator, flows
    ``||mu||^2`` inside every feasible block to a state whose momentum image
    is the chamber point (``self_consistent_critical``), and groups the
    critical states found by stratum.  The zero-level family, when present,
    is located by flowing a seeded random state; ``config`` sizes only that
    flow.
    """
    sector = distinguishable(parties, 2)
    grid = _weyl_grid_array(parties, max_denominator)
    on_level = np.zeros(len(grid), dtype=bool)
    max_multiplicity = 0
    for lo in range(0, len(grid), _SCREEN_ROWS):
        # Party p's spectrum is (l_p, -l_p), as in qubit_spectrum_point.
        tops = grid[lo : lo + _SCREEN_ROWS]
        spectra = np.stack([tops, -tops], axis=-1).reshape(len(tops), -1)
        on_level[lo : lo + len(tops)], longest = _level_screen(sector, spectra)
        max_multiplicity = max(max_multiplicity, longest)
    found: dict[tuple[float, ...], FamilyRecord] = {}
    for lambdas in map(tuple, grid[on_level].tolist()):
        alpha = qubit_spectrum_point(sector, lambdas)
        for report in alpha_star_eigenspaces(alpha):
            states = self_consistent_critical(
                report, tol=self_consistency_tol, seed=seed
            )
            for state in states:
                key = tuple(round(v, 9) for v in lambdas)
                if key not in found:
                    # Label with the exact scanned chamber point; the
                    # self-consistency filter already pinned psi to it.
                    found[key] = _record(f"alpha={key}", state, 1e-6, stratum=alpha)
    zero_family = None
    rng = np.random.default_rng(seed)
    probe = random_state(sector, rng)
    terminal, _ = flow_to_critical(probe, config)
    if _on_zero_level(momentum(terminal).norm_sq()):
        zero_family = FamilyRecord(
            label="alpha=0",
            state=terminal,
            stratum=SpectrumPoint(
                sector, tuple(np.zeros(2) for _ in range(parties))
            ),
            d_value=0.0,
            morse_index=0,
        )
    # Families at one distance differ in d only by rounding; list them by label.
    families = sorted(found.values(), key=lambda r: (round(r.d_value, 9), r.label))
    return QubitScanResult(families, zero_family, len(grid), max_multiplicity)
