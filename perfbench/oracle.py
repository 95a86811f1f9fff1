"""Known answers for the benchmark operations, from theory the repo states.

Nothing here reads the program's output: every expected value is a closed
form of the operation's ``spec``.  ``d`` is compared within ``D_TOL`` (the
tolerance of ``tests/test_pipeline.py``); the Morse index only where a closed
form exists, and the stability class only where a test fixes it.
"""

from __future__ import annotations

import math
import re

D_TOL = 5e-5
SCAN_KEY_TOL = 1e-6

# Three-qubit class table (README, tests/test_pipeline.py): d, index, stability.
THREE_QUBIT = {
    "GHZ": (0.0, 0, "semistable"),
    "W": (math.sqrt(1 / 6), 2, "nullcone"),
    "B1": (math.sqrt(1 / 2), 6, "nullcone"),
    "B2": (math.sqrt(1 / 2), 6, "nullcone"),
    "B3": (math.sqrt(1 / 2), 6, "nullcone"),
    "SEP": (math.sqrt(3 / 2), 8, "nullcone"),
}
# Chamber point (top eigenvalue shift per party) -> family of the scan.
THREE_QUBIT_CHAMBER = {
    (0.0, 0.0, 0.0): "GHZ",
    (1 / 6, 1 / 6, 1 / 6): "W",
    (0.5, 0.0, 0.0): "B1",
    (0.0, 0.5, 0.0): "B2",
    (0.0, 0.0, 0.5): "B3",
    (0.5, 0.5, 0.5): "SEP",
}

# Operations that show the null-cone defect of ROADMAP item 4: the flow
# reaches the critical level, leaves it along its unstable directions and
# ends on the zero level.  They stay in the workloads and count in the wrong
# ratio; they do not make a run incorrect.  The biseparable three-qubit
# classes were seen to fail at seed 201 (three-B3-2).
KNOWN_DEFECTS = {
    r"w[45]-moved-.*": "ROADMAP item 4: moved W_4 and W_5 come back semistable with d ~ 0",
    r"dicke-(?:[5-9]|10)-\d+": "ROADMAP item 4: moved Dicke states with L >= 5 come back semistable with d ~ 0",
    r"three-B[123]-\d+": "ROADMAP item 4: a moved biseparable three-qubit state can come back semistable with d ~ 0",
}


def known_defect(op_id: str) -> str | None:
    """The ROADMAP defect an operation is labelled with, or None."""
    for pattern, defect in KNOWN_DEFECTS.items():
        if re.fullmatch(pattern, op_id):
            return defect
    return None


def w_index(L: int) -> int:
    """Morse index of ``W_L``: ``2 (2^L - 2L - 1)``.

    At ``W_L`` the frozen momentum operator is diagonal on the kets with value
    ``(L - 2w) c`` at Hamming weight ``w`` (``c = (L-2)/(2L)``) and Rayleigh
    value ``(L - 2) c``: every ket of weight two or more lies below it.  Of
    those ``2^L - L - 1`` complex directions the orbit tangent takes ``L``
    (one lowering per party), and each remaining one counts twice.
    """
    return 2 * (2**L - 2 * L - 1)


def expected(spec: dict) -> dict:
    """``{"d": float, "index": int | None, "stability": str | None}``."""
    kind = spec["kind"]
    if kind == "three_qubit":
        d, index, stability = THREE_QUBIT[spec["family"]]
        return {"d": d, "index": index, "stability": stability}
    if kind == "zero_level":
        return {"d": 0.0, "index": 0, "stability": None}
    if kind == "bipartite":
        N, k = spec["N"], spec["k"]
        d = math.sqrt(2 * (k * (N - k) ** 2 + k * k * (N - k))) / (N * k)
        return {"d": d, "index": 2 * (N - k) ** 2, "stability": None}
    if kind == "w":
        L = spec["L"]
        return {"d": (L - 2) / math.sqrt(2 * L), "index": w_index(L), "stability": None}
    if kind == "dicke":
        L, k = spec["L"], spec["k"]
        index = 0 if 2 * k == L else 2 * (L - k - 1)
        return {"d": (L - 2 * k) / math.sqrt(2.0), "index": index, "stability": None}
    if kind == "fermion_pair":
        N, k = spec["N"], spec["k"]
        d = 2.0 * math.sqrt((N - 2 * k) / (2 * k * N))
        return {"d": d, "index": (N - 2 * k) * (N - 2 * k - 1), "stability": None}
    if kind == "boson_pair":
        # d from the README's convention mu = L (rho - I/N) with rho the
        # uniform density on k of the N modes and L = 2 particles.
        N, k = spec["N"], spec["k"]
        d = 2.0 * math.sqrt((N - k) / (k * N))
        return {"d": d, "index": (N - k) * (N - k + 1), "stability": None}
    raise ValueError(f"no known answer for {kind!r}")


def check_classify(spec: dict, result: dict) -> list[str]:
    """Reasons the classify result differs from the known answer (empty if right)."""
    if "error" in result:
        return [f"raised {result['error']}"]
    want = expected(spec)
    problems = []
    if abs(result["d"] - want["d"]) > D_TOL:
        problems.append(f"d {result['d']:.6g} != {want['d']:.6g}")
    if want["index"] is not None and result["index"] != want["index"]:
        problems.append(f"index {result['index']} != {want['index']}")
    if want["stability"] is not None and result["stability"] != want["stability"]:
        problems.append(f"stability {result['stability']} != {want['stability']}")
    return problems


def check_scan(result: dict) -> list[str]:
    """Reasons the three-qubit scan differs from the six-family table."""
    if "error" in result:
        return [f"raised {result['error']}"]
    problems = []
    seen = set()
    for fam in result["families"]:
        name = next(
            (
                n
                for key, n in THREE_QUBIT_CHAMBER.items()
                if max(abs(a - b) for a, b in zip(fam["key"], key)) <= SCAN_KEY_TOL
            ),
            None,
        )
        if name is None:
            problems.append(f"unexpected family at {fam['key']}")
            continue
        if name in seen:
            problems.append(f"{name} reported twice")
        seen.add(name)
        d, index, _ = THREE_QUBIT[name]
        if abs(fam["d"] - d) > D_TOL or fam["index"] != index:
            problems.append(f"{name}: d {fam['d']:.6g}, index {fam['index']}")
    missing = sorted(set(THREE_QUBIT) - seen)
    if missing:
        problems.append(f"missing {missing}")
    return problems


def check(op: dict, result: dict) -> list[str]:
    if op["spec"]["kind"] == "scan":
        return check_scan(result)
    return check_classify(op["spec"], result)
