"""Layer timings: one flow move's layers under two source trees, side by side.

Usage, from the root of a checkout::

    python3 tests/layer_timings.py BEFORE AFTER [--rounds 5]

``BEFORE`` and ``AFTER`` are source trees (checkouts) of this repository.
In each round, one fresh interpreter per tree, with that tree's ``src`` on
its path and one BLAS thread, times the layers of a flow move on a
fixed-seed Haar state of each sector in ``SECTORS``: ``flow._at`` (embed,
axis views, densities), ``flow._gradient``, ``momentum._frame_gram``,
``flow._gauss_newton``, ``flow._advance`` and
``momentum._level_certificate``.  A round's figure for a layer is the
median of three samples of enough calls to fill ``SAMPLE_S``.  The trees
alternate which goes first, so that a drift of the host's speed falls on
both; the table shows the median over rounds of the microseconds per call
of each tree and their ratio.

It is not a test module (pytest does not collect it); five rounds take
about a minute and a half on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import tempfile
import time

# (kind, parties, local_dim)
SECTORS = (
    ("bosonic", 5, 2),
    ("bosonic", 8, 2),
    ("bosonic", 10, 2),
    ("fermionic", 2, 6),
    ("fermionic", 2, 8),
    ("bosonic", 2, 4),
    ("bosonic", 5, 3),
    ("distinguishable", 3, 2),
    ("distinguishable", 4, 3),
    ("distinguishable", 10, 2),
)
LAYERS = ("_at", "_gradient", "_frame_gram", "_gauss_newton", "_advance", "_level_certificate")
SAMPLE_S = 0.02
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _median(values: list[float]) -> float:
    return sorted(values)[len(values) // 2]


def _per_call(call, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def _call_us(call) -> float:
    """Median of three samples of one call's time, in microseconds."""
    call()
    number = 1
    while _per_call(call, number) * number < SAMPLE_S:
        number *= 2
    return 1e6 * _median([_per_call(call, number) for _ in range(3)])


def collect() -> dict:
    """Median microseconds per call of every layer on every sector of ``SECTORS``."""
    import numpy as np

    from sloccflow import flow, statespace

    # ``sloccflow.momentum`` is the function; the module is looked up by name.
    momentum = importlib.import_module("sloccflow.momentum")

    out = {}
    for kind, parties, local_dim in SECTORS:
        sector = statespace.Sector(kind, parties, local_dim)
        amps = statespace.random_state(sector, np.random.default_rng(0)).amplitudes
        tensor, views, mats = flow._at(sector, amps)
        mu2 = momentum._norm_sq(sector, mats)
        m, gram = momentum._frame_gram(sector, tensor)
        move = flow._gauss_newton(sector, m, gram, 1e-2)
        calls = {
            "_at": lambda: flow._at(sector, amps),
            "_gradient": lambda: flow._gradient(sector, mats, views, amps),
            "_frame_gram": lambda: momentum._frame_gram(sector, tensor),
            "_gauss_newton": lambda: flow._gauss_newton(sector, m, gram, 1e-2),
            "_advance": lambda: flow._advance(sector, move, tensor, 1.0),
            "_level_certificate": lambda: momentum._level_certificate(sector, tensor, mats, mu2),
        }
        out[str(sector)] = {name: _call_us(calls[name]) for name in LAYERS}
    return out


def run_tree(tree: str) -> dict:
    """``collect`` in a fresh interpreter on ``tree``'s sources."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), **PINNED_THREADS)
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "timings.json")
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--collect", out],
            env=env,
            cwd=tree,
            check=True,
        )
        with open(out) as fh:
            return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="BEFORE and AFTER")
    parser.add_argument("--rounds", type=int, default=5, help="fresh interpreters per tree")
    parser.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        with open(args.collect, "w") as fh:
            json.dump(collect(), fh)
        return 0
    if len(args.trees) != 2 or args.rounds < 1:
        parser.error("give two source trees, BEFORE AFTER, and at least one round")
    runs = [[], []]
    for round_ in range(args.rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            runs[side].append(run_tree(args.trees[side]))
    print(f"{'sector':<28} {'layer':<20} {'before us':>10} {'after us':>10} {'ratio':>7}")
    for sector in runs[0][0]:
        for name in LAYERS:
            a, b = (_median([run[sector][name] for run in side]) for side in runs)
            print(f"{sector:<28} {name:<20} {a:>10.1f} {b:>10.1f} {b / a:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
