"""Label sweep: the benchmark's labels under two source trees, side by side.

Usage, from the root of a checkout::

    python3 tests/label_sweep.py BEFORE AFTER [--seeds 1-10] [--workloads NAME ...]

``BEFORE`` and ``AFTER`` are source trees (checkouts) of this repository.
For each tree, one fresh interpreter with that tree's ``src`` and
``perfbench`` on its path generates every operation of the workloads at the
given seeds (``perfbench/generate.py``), runs it through
``perfbench/worker.run_operation`` and checks it with
``perfbench/oracle.check``.  The sweep then compares the two trees operation
by operation: the oracle verdict, the Morse index, the stability class, ``d``
within ``D_TOL`` and, for the chamber scan, the families (key, ``d`` and
index).  It prints one line per difference and one summary line per
workload with the wrong operations and the flow iterations of each tree and
the largest change of ``d``, and exits with status 1 when any label differs.

It is not a test module (pytest does not collect it); one sweep over seeds
1-10 takes one to two minutes with one BLAS thread on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("classify-small", "classify-wide", "chamber-scan", "identical-sectors")
D_TOL = 1e-4
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def collect(workloads: list[str], seeds: list[int]) -> dict:
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


def run_tree(tree: str, workloads: list[str], seeds: list[int]) -> dict:
    """``collect`` in a fresh interpreter on ``tree``'s sources."""
    tree = os.path.abspath(tree)
    path = os.pathsep.join([os.path.join(tree, "src"), os.path.join(tree, "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, **PINNED_THREADS)
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "labels.json")
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--collect", out,
             "--seeds", *map(str, seeds), "--workloads", *workloads],
            env=env,
            cwd=tree,
            check=True,
        )
        with open(out) as fh:
            return json.load(fh)


def _family_differences(before: list[dict], after: list[dict]) -> list[str]:
    if len(before) != len(after):
        return [f"{len(before)} families -> {len(after)}"]
    problems = []
    for a, b in zip(before, after):
        if max(abs(x - y) for x, y in zip(a["key"], b["key"])) > D_TOL:
            problems.append(f"family {a['key']} -> {b['key']}")
        elif abs(a["d"] - b["d"]) > D_TOL or a["index"] != b["index"]:
            problems.append(
                f"family {a['key']}: d {a['d']:.6g} -> {b['d']:.6g}, "
                f"index {a['index']} -> {b['index']}"
            )
    return problems


def differences(before: dict, after: dict) -> list[str]:
    """What changed between two entries of ``collect`` for the same operation."""
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
    if abs(a["d"] - b["d"]) > D_TOL:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="BEFORE and AFTER")
    parser.add_argument("--seeds", nargs="+", default=["1-10"], help="seeds or ranges A-B")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.collect:
        with open(args.collect, "w") as fh:
            json.dump(collect(args.workloads, seeds), fh)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees: BEFORE AFTER")
    before, after = (run_tree(tree, args.workloads, seeds) for tree in args.trees)
    changed = 0
    for key in sorted(set(before) ^ set(after)):
        print(f"{key}: only in {'BEFORE' if key in before else 'AFTER'}")
        changed += 1
    for workload in args.workloads:
        keys = [k for k in before if k in after and k.startswith(workload + "/")]
        for key in keys:
            for problem in differences(before[key], after[key]):
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


if __name__ == "__main__":
    sys.exit(main())
