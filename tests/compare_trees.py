"""Two-tree comparisons: the family invariants and the benchmark under two source trees.

Usage, from the root of a checkout::

    python3 tests/compare_trees.py BEFORE AFTER labels [--seeds 1-10] [--workloads NAME ...]
    python3 tests/compare_trees.py BEFORE AFTER blocks [--seed 0]
    python3 tests/compare_trees.py BEFORE AFTER near-miss [--parties 3 4] [--draws 5]
    python3 tests/compare_trees.py BEFORE AFTER layers [--rounds 5]
    python3 tests/compare_trees.py BEFORE AFTER demos
    python3 tests/compare_trees.py BEFORE AFTER bench [--seeds 3] [--workloads NAME ...]

``BEFORE`` and ``AFTER`` are source trees (checkouts) of this repository.
Each run is one fresh interpreter in a tree, with the tree's ``src`` (and
``perfbench`` for ``labels`` and ``bench``) on ``PYTHONPATH``, its root as
working directory and one BLAS thread.  Where a mode runs more than one
round, the trees alternate which goes first, so that a drift of the host's
speed falls on both.  ``labels``, ``blocks``, ``near-miss``, ``layers`` and
``demos`` run their collector of this file in each tree and compare the
results; ``bench`` runs each tree's ``perfbench/run.py``.  Each mode's
function below says what it prints and when it exits 1.  A tree without
``src/sloccflow/__init__.py`` (or without ``perfbench/`` for ``labels`` and
``bench``), or a run that fails in one tree, exits 2 with the tree named.

It is test tooling that pytest does not collect.  On a 2-vCPU host a mode
takes seconds to two minutes per tree, and ``bench`` ten minutes per
workload and seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product, zip_longest

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
# Runs one collector of this file in the tree's interpreter; its result is
# the last line of standard output.
CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import compare_trees; "
    "print(json.dumps(compare_trees.COLLECTORS[sys.argv[2]](**json.loads(sys.argv[3]))))"
)
WORKLOADS = ("classify-small", "classify-wide", "chamber-scan", "identical-sectors")
# Modes that import the tree's perfbench modules or run its benchmark.
PERFBENCH_MODES = ("labels", "bench")


class TreeError(Exception):
    """A tree that cannot be compared, or a run that failed in it: exit status 2."""


def check_tree(tree: str, mode: str) -> None:
    needed = ["src/sloccflow/__init__.py"]
    if mode in PERFBENCH_MODES:
        needed.append("perfbench")
    if mode == "bench":
        needed.append("BENCHMARK.json")
    for path in needed:
        if not os.path.exists(os.path.join(tree, path)):
            raise TreeError(f"{tree} is not a source tree for {mode}: no {path}")


def run(tree: str, mode: str, argv: list[str]) -> dict:
    """``python3 argv`` in a fresh interpreter on ``tree``: its last line of output, as JSON."""
    tree = os.path.abspath(tree)
    path = [os.path.join(tree, "src")]
    if mode in PERFBENCH_MODES:
        path.append(os.path.join(tree, "perfbench"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **PINNED_THREADS)
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=tree, stdout=subprocess.PIPE, text=True
    )
    if proc.returncode != 0:
        raise TreeError(f"{mode} failed in {tree} with exit status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def alternate(trees: list[str], rounds: int, run_one) -> tuple[list, list]:
    """``rounds`` results of ``run_one(tree)`` per tree, alternating which tree goes first."""
    runs: tuple[list, list] = ([], [])
    for round_ in range(rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            runs[side].append(run_one(trees[side]))
    return runs


def collect_both(args, rounds: int = 1, **params) -> tuple[list, list]:
    """The mode's collector, run ``rounds`` times in each tree."""
    argv = ["-c", CHILD, HERE, args.mode, json.dumps(params)]
    return alternate(args.trees, rounds, lambda tree: run(tree, args.mode, argv))


LABEL_D_TOL = 1e-4


def collect_labels(workloads: list[str], seeds: list[int]) -> dict:
    """Every operation's result and oracle problems, keyed ``workload/seed/id``."""
    import generate
    import oracle
    import worker

    import sloccflow

    out = {}
    for workload in workloads:
        for seed in seeds:
            for op in generate.generate(workload, seed):
                try:
                    state = sloccflow.state_from_json(op["state"]) if "state" in op else None
                    result = worker.run_operation(op, state)
                except Exception as exc:  # a raising operation is a label too
                    result = {"error": f"{type(exc).__name__}: {exc}"}
                out[f"{workload}/{seed}/{op['id']}"] = {
                    "result": result,
                    "problems": oracle.check(op, result),
                }
    return out


def _family_differences(before: list[dict], after: list[dict]) -> list[str]:
    if len(before) != len(after):
        return [f"{len(before)} families -> {len(after)}"]
    problems = []
    for a, b in zip(before, after):
        if max(abs(x - y) for x, y in zip(a["key"], b["key"])) > LABEL_D_TOL:
            problems.append(f"family {a['key']} -> {b['key']}")
        elif abs(a["d"] - b["d"]) > LABEL_D_TOL or a["index"] != b["index"]:
            problems.append(
                f"family {a['key']}: d {a['d']:.6g} -> {b['d']:.6g}, "
                f"index {a['index']} -> {b['index']}"
            )
    return problems


def label_differences(before: dict, after: dict) -> list[str]:
    """What changed between two entries of ``collect_labels`` for the same operation."""
    problems = []
    if bool(before["problems"]) != bool(after["problems"]):
        problems.append(f"oracle {before['problems'] or 'right'} -> {after['problems'] or 'right'}")
    a, b = before["result"], after["result"]
    if ("error" in a) or ("error" in b):
        if a.get("error") != b.get("error"):
            problems.append(f"error {a.get('error')} -> {b.get('error')}")
        return problems
    if "families" in a:
        return problems + _family_differences(a["families"], b["families"])
    if abs(a["d"] - b["d"]) > LABEL_D_TOL:
        problems.append(f"d {a['d']:.6g} -> {b['d']:.6g}")
    for name in ("index", "stability"):
        if a[name] != b[name]:
            problems.append(f"{name} {a[name]} -> {b[name]}")
    return problems


def _ds(entry: dict) -> list[float]:
    """The ``d`` values of one operation: its own, or its scan families'."""
    result = entry["result"]
    if "families" in result:
        return [f["d"] for f in result["families"]]
    return [result["d"]] if "d" in result else []


def _seeds(text: list[str]) -> list[int]:
    seeds = []
    for item in text:
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def labels(args) -> int:
    """Every operation of the benchmark workloads at the given seeds, through the oracle.

    Prints one line per operation whose oracle verdict, Morse index,
    stability, ``d`` (within ``LABEL_D_TOL``) or scan families differ, and
    per workload each tree's wrong operations and flow iterations and the
    largest change of ``d``.  Exits 1 when a label differs.
    """
    (before,), (after,) = collect_both(args, workloads=args.workloads, seeds=_seeds(args.seeds))
    changed = 0
    for key in sorted(set(before) ^ set(after)):
        print(f"{key}: only in {'BEFORE' if key in before else 'AFTER'}")
        changed += 1
    for workload in args.workloads:
        keys = [k for k in before if k in after and k.startswith(workload + "/")]
        for key in keys:
            for problem in label_differences(before[key], after[key]):
                print(f"{key}: {problem}")
                changed += 1
        wrong = [sum(bool(side[k]["problems"]) for k in keys) for side in (before, after)]
        moves = [
            sum(side[k]["result"].get("iterations", 0) for k in keys) for side in (before, after)
        ]
        shift = max(
            (abs(a - b) for k in keys for a, b in zip(_ds(before[k]), _ds(after[k]))),
            default=0.0,
        )
        print(
            f"{workload}: {len(keys)} operations, wrong {wrong[0]} -> {wrong[1]}, "
            f"flow iterations {moves[0]} -> {moves[1]}, "
            f"largest d change {shift:.1e}"
        )
    print(f"{changed} label differences over seeds {args.seeds}")
    return 1 if changed else 0


BLOCK_D_TOL = 1e-8
QUBIT_GRIDS = ((2, 12), (3, 12), (4, 6))
# (kind, parties, local dimension)
BLOCK_SECTORS = (
    ("bosonic", 5, 2), ("bosonic", 3, 3), ("bosonic", 4, 4), ("bosonic", 2, 4),
    ("fermionic", 2, 4), ("fermionic", 2, 5), ("fermionic", 3, 6),
    ("distinguishable", 2, 3), ("distinguishable", 3, 3),
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


def collect_blocks(seed: int) -> dict:
    """Every at-level, feasible block of the sample: found, ``d`` and index.

    The sample is the qubit grids of ``QUBIT_GRIDS`` and the points of
    ``chamber_points`` for each sector of ``BLOCK_SECTORS``.  A block of
    ``alpha_star_eigenspaces`` that passes ``_marginal_feasible`` goes through
    ``self_consistent_critical``; its state gives ``d`` and
    ``morse_index(v, tol=1e-6)``.
    """
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
        for kind, parties, N in BLOCK_SECTORS:
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


def _describe(entry: dict | None) -> str:
    if entry is None:
        return "absent"
    if not entry["found"]:
        return "not found"
    return f"d {entry['d']:.12g}, index {entry['index']}"


def blocks(args) -> int:
    """The chamber self-consistency search on the sample of ``collect_blocks``.

    Prints one line per block whose verdict, ``d`` (within ``BLOCK_D_TOL``)
    or index differs, the blocks each tree found and its search time.
    Exits 1 when a block BEFORE found is lost or changes; a block only
    AFTER finds is reported, not a failure.
    """
    trees = [runs[0] for runs in collect_both(args, seed=args.seed)]
    before, after = (tree["blocks"] for tree in trees)
    failed = 0
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        same = (
            a is not None
            and b is not None
            and a["found"] == b["found"]
            and (not a["found"] or (abs(a["d"] - b["d"]) <= BLOCK_D_TOL and a["index"] == b["index"]))
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


DELTAS = tuple(10.0**e for e in range(-12, -1))
# ``d^2`` within this of the W level counts as the W level.
LEVEL_TOL = 1e-4


def collect_near_miss(parties: list[int], draws: int) -> dict:
    """``d^2`` of every draw, keyed ``L/delta``, and each ``W_L``'s own flowed level."""
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


def _counts(levels: list[float], w_level: float) -> str:
    w = sum(abs(x - w_level) <= LEVEL_TOL for x in levels)
    zero = sum(x <= 1e-8 for x in levels)
    return f"W {w}/{len(levels)}, zero {zero}, other {len(levels) - w - zero}"


def near_miss(args) -> int:
    """``W_L + delta h`` for Haar unit vectors ``h`` (seeds ``0 .. draws - 1``).

    In exact arithmetic every such state lies in a lower stratum than
    ``W_L``, so a draw at the W level ``(L - 2)^2 / (2 L)`` is a resolution
    miss.  Prints, per ``L``, that level beside each tree's flowed level of
    ``W_L``, and per ``delta`` each tree's draws at the W level, at the zero
    level (``d^2 <= 1e-8``) and elsewhere.  Always exits 0.
    """
    (before,), (after,) = collect_both(args, parties=args.parties, draws=args.draws)
    for L in args.parties:
        w_level = (L - 2) ** 2 / (2 * L)
        print(
            f"W_{L} + delta h, W level {w_level:.6g} (flowed W_{L}: "
            f"BEFORE {before[f'{L}/level'][0]:.6g}, AFTER {after[f'{L}/level'][0]:.6g}), "
            f"{args.draws} draws per delta"
        )
        for delta in DELTAS:
            key = f"{L}/{delta:.0e}"
            print(
                f"  delta {delta:.0e}: BEFORE {_counts(before[key], w_level)}; "
                f"AFTER {_counts(after[key], w_level)}"
            )
    return 0


# (kind, parties, local_dim)
LAYER_SECTORS = (
    ("bosonic", 5, 2), ("bosonic", 8, 2), ("bosonic", 10, 2),
    ("fermionic", 2, 6), ("fermionic", 2, 8), ("bosonic", 2, 4), ("bosonic", 5, 3),
    ("distinguishable", 3, 2), ("distinguishable", 4, 3), ("distinguishable", 10, 2),
)
LAYERS = ("_at", "_generator_block", "_gauss_newton", "_advance", "_level_certificate")
SAMPLE_S = 0.02


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
    return 1e6 * statistics.median([_per_call(call, number) for _ in range(3)])


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} (IQR {q3 - q1:.2g})"


def collect_layers() -> dict:
    """Median microseconds per call of each of ``LAYERS`` on each sector of ``LAYER_SECTORS``."""
    import numpy as np

    from sloccflow import flow, statespace

    # ``sloccflow.momentum`` is the function; the module is looked up by name.
    momentum = importlib.import_module("sloccflow.momentum")

    out = {}
    for kind, parties, local_dim in LAYER_SECTORS:
        sector = statespace.Sector(kind, parties, local_dim)
        amps = statespace.random_state(sector, np.random.default_rng(0)).amplitudes
        tensor, mats = flow._at(sector, amps)
        mu2 = momentum._norm_sq(sector, mats)
        block = momentum._generator_block(sector, tensor)
        move = flow._gauss_newton(sector, block.m, block.gram, 1e-2)
        calls = {
            "_at": lambda: flow._at(sector, amps),
            "_generator_block": lambda: momentum._generator_block(sector, tensor),
            "_gauss_newton": lambda: flow._gauss_newton(sector, block.m, block.gram, 1e-2),
            "_advance": lambda: flow._advance(sector, move, tensor, 1.0),
            "_level_certificate": lambda: momentum._level_certificate(sector, tensor, mats, mu2),
        }
        out[str(sector)] = {name: _call_us(calls[name]) for name in LAYERS}
    return out


def layers(args) -> int:
    """Microseconds per call of each layer of ``LAYERS`` on each sector of ``LAYER_SECTORS``.

    A round's figure is the median of three samples of enough calls to fill
    ``SAMPLE_S``; the table shows each tree's median and IQR over rounds and
    the ratio of the medians.  Always exits 0.
    """
    runs = collect_both(args, rounds=args.rounds)
    print(f"{'sector':<28} {'layer':<18} {'before us':>20} {'after us':>20} {'ratio':>6}")
    for sector in runs[0][0]:
        for name in LAYERS:
            before, after = ([run[sector][name] for run in side] for side in runs)
            ratio = statistics.median(after) / statistics.median(before)
            print(
                f"{sector:<28} {name:<18} {_spread(before):>20} {_spread(after):>20} {ratio:>6.2f}"
            )
    return 0


# (name, arguments): the demos every change to the flow or the kernel keeps.
DEMOS = (
    ("three-qubit", []), ("four-qubit-families", []), ("dicke", ["8"]),
    ("bipartite", ["3"]), ("fermions", ["6"]), ("bosons", ["4"]),
)


def collect_demos() -> dict:
    """The text of each demo of ``DEMOS``, as ``sloccflow demo NAME ARGS`` prints it."""
    from sloccflow.demos import run_demo

    return {
        " ".join([name, *argv]): "\n\n".join(t.to_text() for t in run_demo(name, argv))
        for name, argv in DEMOS
    }


def demos(args) -> int:
    """The text of the demos of ``DEMOS``, line by line.

    Prints each line that differs, with the demo and line number, and the
    number of differing lines.  Exits 1 on any difference.
    """
    (before,), (after,) = collect_both(args)
    changed = 0
    for key in before:
        pairs = zip_longest(before[key].splitlines(), after[key].splitlines(), fillvalue="")
        for number, (a, b) in enumerate(pairs, start=1):
            if a != b:
                print(f"{key}, line {number}: BEFORE {a!r}, AFTER {b!r}")
                changed += 1
    print(f"{changed} demo differences")
    return 1 if changed else 0


BENCH_PAIRS = 10


def _wins(before: list[float], after: list[float], better: str) -> tuple[int, int]:
    """Pairs ``(before[i], after[i])`` won by BEFORE and by AFTER; a tie counts for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return (
        sum(sign * (a - b) > 0 for b, a in zip(before, after)),
        sum(sign * (b - a) > 0 for b, a in zip(before, after)),
    )


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """The gate on one end-to-end metric, from runs taken in pairs ``(before[i], after[i])``.

    ``better`` is the benchmark's direction (``"lower"`` or ``"higher"``)
    and ``bound`` the relative worsening it allows.  ``better`` needs at
    least nine tenths of the pairs won by AFTER and medians further apart
    than BEFORE's IQR; ``worse`` is AFTER's median beyond the bound;
    ``unresolved`` is BEFORE's IQR wider than the bound of its median,
    unless every AFTER run beats every BEFORE run.
    """
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (statistics.median(before) - statistics.median(after))
    q1, _, q3 = statistics.quantiles(before, n=4)
    scale = abs(statistics.median(before))
    if _wins(before, after, better)[1] >= 0.9 * len(before) and gain > q3 - q1:
        return "better"
    if -gain > bound * scale:
        return "worse"
    clear = max(sign * a for a in after) < min(sign * b for b in before)
    if q3 - q1 > bound * scale and not clear:
        return "unresolved"
    return "within bound"


def _bench_files(tree: str) -> dict:
    """``BENCHMARK.json`` and every file under ``perfbench/`` but byte code, by path."""
    paths = ["BENCHMARK.json"]
    for root, dirs, files in os.walk(os.path.join(tree, "perfbench")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.relpath(os.path.join(root, name), tree) for name in files]
    contents = {}
    for path in paths:
        with open(os.path.join(tree, path), "rb") as fh:
            contents[path] = fh.read()
    return contents


def bench(args) -> int:
    """Each tree's ``perfbench/run.py --trace 0`` in ``BENCH_PAIRS`` alternating pairs.

    The run length is ``run_seconds`` of ``BENCHMARK.json``.  Per workload
    and seed it prints each tree's failed and attempted operations and, for
    every end-to-end metric, each tree's median and IQR, the pairs each won
    (``wins BEFORE:AFTER``) and the ``verdict``.  The benchmark code must be
    the same on both sides: the trees' ``perfbench/`` files and
    ``BENCHMARK.json`` differing is exit status 2.  Exits 1 when a metric
    reads worse or AFTER fails a larger share of operations.
    """
    before_files, after_files = (_bench_files(tree) for tree in args.trees)
    if before_files != after_files:
        changed = sorted(p for p in set(before_files) | set(after_files)
                         if before_files.get(p) != after_files.get(p))
        raise TreeError(f"the benchmark code differs between the trees: {', '.join(changed)}")
    spec = json.loads(before_files["BENCHMARK.json"])
    worse = False
    for workload in args.workloads:
        for seed in _seeds(args.seeds):
            argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            runs = alternate(args.trees, BENCH_PAIRS, lambda tree: run(tree, "bench", argv))
            shares = [(sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
                      for side in runs]
            print(
                f"{workload} seed {seed}, {BENCH_PAIRS} pairs: failed "
                f"BEFORE {shares[0][0]}/{shares[0][1]}, AFTER {shares[1][0]}/{shares[1][1]}"
            )
            worse |= shares[1][0] * shares[0][1] > shares[0][0] * shares[1][1]
            for metric in spec["end_to_end"]:
                name = metric["name"]
                before, after = ([r["metrics"][name]["value"] for r in side] for side in runs)
                wins = _wins(before, after, metric["better"])
                result = verdict(before, after, metric["better"], metric["bound"])
                worse |= result == "worse"
                print(
                    f"  {name} [{metric['unit']}]: BEFORE {_spread(before)}, "
                    f"AFTER {_spread(after)}, wins {wins[0]}:{wins[1]}, {result}"
                )
    return 1 if worse else 0


COLLECTORS = {
    "labels": collect_labels,
    "blocks": collect_blocks,
    "near-miss": collect_near_miss,
    "layers": collect_layers,
    "demos": collect_demos,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", help="BEFORE and AFTER")
    modes = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    for run_mode, seeds in ((labels, "1-10"), (bench, "3")):
        mode = modes.add_parser(run_mode.__name__)
        mode.add_argument("--seeds", nargs="+", default=[seeds], help="seeds or ranges A-B")
        mode.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
        mode.set_defaults(run=run_mode)
    mode = modes.add_parser("blocks")
    mode.add_argument("--seed", type=int, default=0, help="seed of the random starts")
    mode.set_defaults(run=blocks)
    mode = modes.add_parser("near-miss")
    mode.add_argument("--parties", nargs="+", type=int, default=[3, 4])
    mode.add_argument("--draws", type=int, default=5)
    mode.set_defaults(run=near_miss)
    mode = modes.add_parser("layers")
    mode.add_argument("--rounds", type=int, default=5, help="fresh interpreters per tree")
    mode.set_defaults(run=layers)
    modes.add_parser("demos").set_defaults(run=demos)
    args = parser.parse_args(argv)
    if args.mode == "layers" and args.rounds < 2:
        parser.error("give at least two rounds: the table shows their spread")
    try:
        for tree in args.trees:
            check_tree(tree, args.mode)
        return args.run(args)
    except TreeError as exc:
        print(f"compare_trees: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
