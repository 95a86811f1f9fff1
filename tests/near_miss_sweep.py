"""Near-miss sweep: the flow's level for ``W_L + delta h`` under two source trees.

Usage, from the root of a checkout::

    python3 tests/near_miss_sweep.py BEFORE AFTER [--parties 3 4] [--draws 5]

``BEFORE`` and ``AFTER`` are source trees (checkouts) of this repository.
For each tree, one fresh interpreter with that tree's ``src`` on its path
flows ``W_L + delta h`` with ``sloccflow.flow.slocc_distance``, for ``h`` a
Haar unit vector drawn from ``numpy.random.default_rng(seed)``, seeds
``0 .. draws - 1``, and ``delta`` on the decades ``1e-12 .. 1e-2``.  In exact
arithmetic every such state lies in a lower stratum than ``W_L``, usually
the zero level, so a draw that reads the W level ``(L - 2)^2 / (2 L)`` --
the level of the unperturbed ``W_L`` -- is a resolution miss.

The sweep prints one line per ``L`` and ``delta``: for each tree, how many
draws read the W level, the zero level (``d^2 <= 1e-8``) and anything else.
It is not a test module (pytest does not collect it) and always exits 0;
one sweep takes a few seconds per tree with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

DELTAS = tuple(10.0**e for e in range(-12, -1))
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# ``d^2`` within this of the W level counts as the W level.
LEVEL_TOL = 1e-4


def collect(parties: list[int], draws: int) -> dict:
    """``d^2`` of every draw, keyed ``L/delta``, and each ``W_L``'s own level."""
    import numpy as np

    from sloccflow.flow import slocc_distance
    from sloccflow.statespace import PureState, distinguishable, normalize

    out = {}
    for L in parties:
        sector = distinguishable(L, 2)
        w = np.zeros(sector.dim, dtype=complex)
        w[[1 << p for p in range(L)]] = 1.0 / math.sqrt(L)
        out[f"{L}/level"] = [slocc_distance(PureState(sector, w)) ** 2]
        for delta in DELTAS:
            levels = []
            for seed in range(draws):
                rng = np.random.default_rng(seed)
                h = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
                state = normalize(PureState(sector, w + delta * h / np.linalg.norm(h)))
                levels.append(slocc_distance(state) ** 2)
            out[f"{L}/{delta:.0e}"] = levels
    return out


def run_tree(tree: str, parties: list[int], draws: int) -> dict:
    """``collect`` in a fresh interpreter on ``tree``'s sources."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINNED_THREADS)
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "levels.json")
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--collect", out,
             "--parties", *map(str, parties), "--draws", str(draws)],
            env=env,
            cwd=tree,
            check=True,
        )
        with open(out) as fh:
            return json.load(fh)


def _counts(levels: list[float], w_level: float) -> str:
    w = sum(abs(x - w_level) <= LEVEL_TOL for x in levels)
    zero = sum(x <= 1e-8 for x in levels)
    return f"W {w}/{len(levels)}, zero {zero}, other {len(levels) - w - zero}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="BEFORE and AFTER")
    parser.add_argument("--parties", nargs="+", type=int, default=[3, 4])
    parser.add_argument("--draws", type=int, default=5)
    parser.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        with open(args.collect, "w") as fh:
            json.dump(collect(args.parties, args.draws), fh)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees: BEFORE AFTER")
    before, after = (run_tree(tree, args.parties, args.draws) for tree in args.trees)
    for L in args.parties:
        w_level = after[f"{L}/level"][0]
        print(f"W_{L} + delta h, W level {w_level:.6g}, {args.draws} draws per delta")
        for delta in DELTAS:
            key = f"{L}/{delta:.0e}"
            print(
                f"  delta {delta:.0e}: BEFORE {_counts(before[key], w_level)}; "
                f"AFTER {_counts(after[key], w_level)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
