"""Block sweep: the chamber self-consistency search under two source trees.

Usage, from the root of a checkout::

    python3 tests/block_sweep.py BEFORE AFTER [--seed 0]

``BEFORE`` and ``AFTER`` are source trees (checkouts) of this repository.
For each tree, one fresh interpreter with that tree's ``src`` on its path
walks a fixed sample of Weyl-chamber points ``alpha``: the qubit grids
``qubit_weyl_grid(L, q)`` of ``QUBIT_GRIDS``, and the first
``POINTS_PER_SECTOR`` nonzero chamber points of each sector of ``SECTORS``
in order of their spectra's denominators.  Every eigenvalue block of
``alpha_star_eigenspaces(alpha)`` that lies at the level ``||alpha||^2`` and
passes the NNLS feasibility test (``critical._marginal_feasible``) goes
through that tree's ``self_consistent_critical``; a state it returns gives
``d`` and ``morse_index(v, tol=1e-6)``.

The sweep prints one line per block whose verdict, ``d`` (within ``D_TOL``)
or index differs, then the number of blocks, the blocks each tree found and
each tree's time in the search.  It exits with status 1 when a block that
BEFORE found is lost or changes ``d`` or its index; a block only AFTER finds
is reported but is not a failure.

It is not a test module (pytest does not collect it); one sweep takes under
a minute per tree with one BLAS thread on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

D_TOL = 1e-8
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
QUBIT_GRIDS = ((2, 12), (3, 12), (4, 6))
# (kind, parties, local dimension)
SECTORS = (
    ("bosonic", 5, 2),
    ("bosonic", 3, 3),
    ("bosonic", 4, 4),
    ("bosonic", 2, 4),
    ("fermionic", 2, 4),
    ("fermionic", 2, 5),
    ("fermionic", 3, 6),
    ("distinguishable", 2, 3),
    ("distinguishable", 3, 3),
)
POINTS_PER_SECTOR = 60
MAX_DENOMINATOR = 12


def _spectra(N: int, M: int) -> list[tuple[Fraction, ...]]:
    """Non-increasing eigenvalue lists ``n_i / M`` of ``N`` levels summing to 1."""
    return [
        tuple(Fraction(n, M) for n in reversed(parts))
        for parts in combinations_with_replacement(range(M + 1), N)
        if sum(parts) == M
    ]


def chamber_points(kind: str, parties: int, N: int) -> list[tuple[tuple[Fraction, ...], ...]]:
    """The first ``POINTS_PER_SECTOR`` nonzero points, by their spectra's denominators.

    A point is one shifted spectrum ``p_i - 1/N`` per acting factor.  Points
    whose largest denominator is ``M`` follow all points of smaller ``M``.
    """
    copies = parties if kind == "distinguishable" else 1
    seen: list[tuple[Fraction, ...]] = []
    points = []
    for M in range(1, MAX_DENOMINATOR + 1):
        new = [s for s in _spectra(N, M) if s not in seen]
        seen.extend(new)
        for combo in product(seen, repeat=copies):
            if not any(s in new for s in combo):
                continue
            shifted = tuple(tuple(p - Fraction(1, N) for p in s) for s in combo)
            if any(any(s) for s in shifted):
                points.append(shifted)
            if len(points) == POINTS_PER_SECTOR:
                return points
    return points


def collect(seed: int) -> dict:
    """Every at-level, feasible block of the sample: found, ``d`` and index."""
    import numpy as np

    from sloccflow import critical
    from sloccflow.momentum import SpectrumPoint, momentum
    from sloccflow.morse import morse_index
    from sloccflow.statespace import Sector, distinguishable

    def alphas():
        for parties, q in QUBIT_GRIDS:
            sector = distinguishable(parties, 2)
            for lambdas in critical.qubit_weyl_grid(parties, q):
                name = f"qubits({parties}, q={q}) {tuple(round(x, 9) for x in lambdas)}"
                yield name, critical.qubit_spectrum_point(sector, lambdas)
        for kind, parties, N in SECTORS:
            sector = Sector(kind, parties, N)
            for point in chamber_points(kind, parties, N):
                spectra = tuple(np.array([float(x) for x in s]) for s in point)
                text = ", ".join("(" + " ".join(str(x) for x in s) + ")" for s in point)
                yield f"{kind}({parties}, {N}) {text}", SpectrumPoint(sector, spectra)

    out = {}
    seconds = 0.0
    for name, alpha in alphas():
        for report in critical.alpha_star_eigenspaces(alpha):
            if not critical._marginal_feasible(report):
                continue
            start = time.perf_counter()
            states = critical.self_consistent_critical(report, seed=seed)
            seconds += time.perf_counter() - start
            entry = {"found": bool(states), "d": None, "index": None}
            if states:
                v = states[0]
                entry["d"] = math.sqrt(max(momentum(v).norm_sq(), 0.0))
                entry["index"] = morse_index(v, tol=1e-6)
            out[f"{name} block e={report.eigenvalue:.9f}"] = entry
    return {"blocks": out, "seconds": seconds}


def run_tree(tree: str, seed: int) -> dict:
    """``collect`` in a fresh interpreter on ``tree``'s sources."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINNED_THREADS)
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "blocks.json")
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--collect", out, "--seed", str(seed)],
            env=env,
            cwd=tree,
            check=True,
        )
        with open(out) as fh:
            return json.load(fh)


def _describe(entry: dict | None) -> str:
    if entry is None:
        return "absent"
    if not entry["found"]:
        return "not found"
    return f"d {entry['d']:.12g}, index {entry['index']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="BEFORE and AFTER")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random starts")
    parser.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        with open(args.collect, "w") as fh:
            json.dump(collect(args.seed), fh)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees: BEFORE AFTER")
    trees = [run_tree(tree, args.seed) for tree in args.trees]
    before, after = (tree["blocks"] for tree in trees)
    failed = 0
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        same = (
            a is not None
            and b is not None
            and a["found"] == b["found"]
            and (not a["found"] or (abs(a["d"] - b["d"]) <= D_TOL and a["index"] == b["index"]))
        )
        if same:
            continue
        print(f"{key}: {_describe(a)} -> {_describe(b)}")
        failed += a is not None and a["found"]
    found = [sum(e["found"] for e in side.values()) for side in (before, after)]
    print(
        f"{len(set(before) | set(after))} at-level feasible blocks, found {found[0]} -> {found[1]}, "
        f"search time {trees[0]['seconds']:.1f} s -> {trees[1]['seconds']:.1f} s"
    )
    print(f"{failed} blocks found BEFORE are lost or changed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
