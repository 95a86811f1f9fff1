"""Named reproduction demos: computed family invariants versus expected values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .canonical import (
    FOUR_QUBIT_FAMILY_NAMES,
    four_qubit_family,
    four_qubit_family_parts,
    gabcd,
    gabcd_span_distance,
)
from .critical import Stability, orbit_dimension, stability_class
from .errors import UnknownDemo
from .families import (
    bipartite_families,
    boson_pair_families,
    dicke_families,
    dicke_rho_eigenvalues,
    fermion_pair_families,
    scan_qubit_families,
)
from .flow import FlowConfig, one_param_limit, slocc_distance


@dataclass
class DemoTable:
    """Comparison table produced by one demo run."""

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(bool(row.get("ok", False)) for row in self.rows)

    def add(self, **kwargs) -> None:
        self.rows.append(kwargs)

    def to_text(self) -> str:
        lines = [f"demo: {self.name}"]
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows))
            if self.rows
            else len(c)
            for c in self.columns
        }
        lines.append("  ".join(c.ljust(widths[c]) for c in self.columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in self.columns)
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {'all rows pass' if self.all_ok else 'FAILURES present'}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row.get(c)) for c in self.columns))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "demo": self.name,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
            "all_ok": self.all_ok,
        }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def bipartite_distance_expected(N: int, k: int) -> float:
    return math.sqrt(2 * (k * (N - k) ** 2 + k * k * (N - k))) / (N * k)


def demo_bipartite(N: int, tol: float = 1e-6) -> DemoTable:
    table = DemoTable(
        f"bipartite N={N}",
        ["k", "d", "d_expected", "index", "index_expected", "ok"],
    )
    for k, rec in enumerate(bipartite_families(N), start=1):
        d_exp = bipartite_distance_expected(N, k)
        idx_exp = 2 * (N - k) ** 2
        ok = abs(rec.d_value - d_exp) <= tol and rec.morse_index == idx_exp
        table.add(
            k=k,
            d=rec.d_value,
            d_expected=d_exp,
            index=rec.morse_index,
            index_expected=idx_exp,
            ok=ok,
        )
    return table


THREE_QUBIT_EXPECTED = {
    (0.0, 0.0, 0.0): ("GHZ", 0.0, 0),
    (1 / 6, 1 / 6, 1 / 6): ("W", math.sqrt(1 / 6), 2),
    (0.5, 0.0, 0.0): ("B1", math.sqrt(1 / 2), 6),
    (0.0, 0.5, 0.0): ("B2", math.sqrt(1 / 2), 6),
    (0.0, 0.0, 0.5): ("B3", math.sqrt(1 / 2), 6),
    (0.5, 0.5, 0.5): ("SEP", math.sqrt(3 / 2), 8),
}


def _three_qubit_match(stratum, tol: float = 1e-6):
    """Closest expected family entry, or None when outside tolerance."""
    key = tuple(float(s[0]) for s in stratum.spectra)
    best = None
    for expected_key, entry in THREE_QUBIT_EXPECTED.items():
        dist = max(abs(a - b) for a, b in zip(key, expected_key))
        if dist <= tol and (best is None or dist < best[0]):
            best = (dist, entry)
    return None if best is None else best[1]


def demo_three_qubit(
    max_denominator: int = 12, seed: int = 0, tol: float = 1e-6
) -> DemoTable:
    table = DemoTable(
        "three-qubit",
        ["family", "d", "d_expected", "index", "index_expected", "ok"],
    )
    scan = scan_qubit_families(3, max_denominator=max_denominator, seed=seed)
    records = list(scan.families)
    if scan.zero_family is not None:
        records.insert(0, scan.zero_family)
    seen = set()
    for rec in records:
        expected = _three_qubit_match(rec.stratum)
        if expected is None:
            table.add(
                family=f"unexpected {rec.label}",
                d=rec.d_value,
                d_expected=float("nan"),
                index=rec.morse_index,
                index_expected=-1,
                ok=False,
            )
            continue
        name, d_exp, idx_exp = expected
        seen.add(name)
        ok = abs(rec.d_value - d_exp) <= tol and rec.morse_index == idx_exp
        table.add(
            family=name,
            d=rec.d_value,
            d_expected=d_exp,
            index=rec.morse_index,
            index_expected=idx_exp,
            ok=ok,
        )
    missing = {name for name, _, _ in THREE_QUBIT_EXPECTED.values()} - seen
    if missing:
        table.add(
            family=f"missing {sorted(missing)}",
            d=float("nan"),
            d_expected=float("nan"),
            index=-1,
            index_expected=-1,
            ok=False,
        )
    table.notes.append(f"chamber grid size {scan.grid_size}")
    return table


FOUR_QUBIT_DEMO_PARAMS: dict[str, tuple[float, ...]] = {
    "L_abc2": (1.0, 1.0, 1.0),
    "L_a2b2": (1.0, 1.0),
    "L_ab3": (1.0, 1.0),
    "L_a4": (1.0,),
    "L_a2_0": (1.0,),
}


def demo_four_qubit_families(
    config: FlowConfig | None = None,
    residual_tol: float = 1e-8,
    span_tol: float = 1e-8,
    distance_tol: float = 1e-4,
) -> DemoTable:
    table = DemoTable(
        "four-qubit-families",
        ["family", "limit_residual", "span_distance", "d_original", "ok"],
    )
    for name in FOUR_QUBIT_FAMILY_NAMES:
        params = FOUR_QUBIT_DEMO_PARAMS[name]
        state = four_qubit_family(name, params)
        _, _, pattern = four_qubit_family_parts(name, params)
        exponents = [np.array([s, -s]) for s in pattern]
        limit, residuals = one_param_limit(state, exponents)
        residual = residuals[-2] if len(residuals) > 1 else 0.0
        span = gabcd_span_distance(limit)
        d_orig = slocc_distance(state, config)
        ok = residual < residual_tol and span < span_tol and d_orig < distance_tol
        table.add(
            family=name,
            limit_residual=residual,
            span_distance=span,
            d_original=d_orig,
            ok=ok,
        )
    generic = gabcd(np.array([0.9, 0.55 + 0.2j, 0.31, 0.17 - 0.4j]))
    dim = orbit_dimension(generic)
    stab = stability_class(generic, config)
    table.add(
        family="G_abcd generic",
        limit_residual=0.0,
        span_distance=gabcd_span_distance(generic),
        d_original=slocc_distance(generic, config),
        ok=(dim == 24 and stab is Stability.STABLE),
    )
    table.notes.append(f"generic orbit dimension {dim}, stability {stab.value}")
    return table


def demo_bosons(N: int, parties: int = 2) -> DemoTable:
    if parties != 2:
        raise UnknownDemo(
            "boson demo covers particle pairs; use the dicke demo for many "
            "two-state bosons"
        )
    table = DemoTable(
        f"bosons N={N}", ["k", "d", "index", "index_expected", "ok"]
    )
    for k, rec in enumerate(boson_pair_families(N), start=1):
        idx_exp = (N - k) * (N - k + 1)
        table.add(
            k=k,
            d=rec.d_value,
            index=rec.morse_index,
            index_expected=idx_exp,
            ok=rec.morse_index == idx_exp,
        )
    return table


def demo_fermions(N: int, tol: float = 1e-10) -> DemoTable:
    table = DemoTable(
        f"fermions N={N}", ["k", "d", "index", "index_expected", "ok"]
    )
    records = fermion_pair_families(N)
    for k, rec in enumerate(records, start=1):
        idx_exp = (N - 2 * k) * (N - 2 * k - 1)
        table.add(
            k=k,
            d=rec.d_value,
            index=rec.morse_index,
            index_expected=idx_exp,
            ok=rec.morse_index == idx_exp,
        )
    d_min = min(rec.d_value for rec in records)
    empty = d_min > tol
    table.notes.append(
        f"zero momentum level {'empty' if empty else 'populated'} "
        f"({'expected empty' if N % 2 else 'expected populated'})"
    )
    table.add(
        k="zero-level",
        d=d_min,
        index=-1,
        index_expected=-1,
        ok=empty == bool(N % 2),
    )
    return table


def dicke_index_expected(L: int, k: int) -> int:
    """Verified second-variation index for the k-excitation family."""
    if 2 * k == L:
        return 0
    return 2 * (L - k - 1)


def demo_dicke(L: int, tol: float = 1e-10) -> DemoTable:
    table = DemoTable(
        f"dicke L={L}",
        ["k", "rho_top", "rho_top_expected", "index", "index_expected", "ok"],
    )
    for k, rec in enumerate(dicke_families(L)):
        top, bottom = dicke_rho_eigenvalues(rec)
        top_exp = (L - k) / L
        idx_exp = dicke_index_expected(L, k)
        ok = (
            abs(top - top_exp) <= tol
            and abs(bottom - k / L) <= tol
            and rec.morse_index == idx_exp
        )
        table.add(
            k=k,
            rho_top=top,
            rho_top_expected=top_exp,
            index=rec.morse_index,
            index_expected=idx_exp,
            ok=ok,
        )
    return table


def run_demo(name: str, args: list[str], seed: int = 0) -> list[DemoTable]:
    """Dispatch a named demo; its integer arguments, and no more, follow the name."""
    def _int(position: int, minimum: int = 1, default: int | None = None) -> int:
        if position < len(args):
            try:
                value = int(args[position])
            except ValueError as exc:
                raise UnknownDemo(f"bad demo argument {args[position]!r}") from exc
            if value < minimum:
                raise UnknownDemo(
                    f"demo {name!r} needs an argument >= {minimum}, got {value}"
                )
            return value
        if default is None:
            raise UnknownDemo(f"demo {name!r} needs an integer argument")
        return default

    demos = {  # name: (the most arguments it reads, the demo)
        "bipartite": (1, lambda: demo_bipartite(_int(0))),
        "three-qubit": (0, lambda: demo_three_qubit(seed=seed)),
        "four-qubit-families": (0, demo_four_qubit_families),
        "bosons": (2, lambda: demo_bosons(_int(0), _int(1, default=2))),
        "fermions": (1, lambda: demo_fermions(_int(0, minimum=2))),
        "dicke": (1, lambda: demo_dicke(_int(0))),
    }
    if name not in demos:
        raise UnknownDemo(
            f"unknown demo {name!r}; available: bipartite N, three-qubit, "
            "four-qubit-families, bosons N [2], fermions N, dicke L"
        )
    arity, demo = demos[name]
    if len(args) > arity:
        raise UnknownDemo(f"demo {name!r} takes {arity} at most; surplus: {' '.join(args[arity:])}")
    return [demo()]
