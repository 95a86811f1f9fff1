"""sloccflow benchmark: fixed-seed workloads against the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify-small --seed 1 --seconds 25 --trace 0

The inputs are generated from ``--seed`` in this process and handed to the
timed process as state documents.  Each pass runs the workload's fixed list
of operations once, closed loop with one caller, in a fresh interpreter
(``worker.py``), so set-up and every lazily built cache are paid as a CLI call
pays them.  Passes repeat until the next one would end after ``--seconds``.
Every result is checked against ``oracle.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass and then traced passes, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is the result object;
the line before it records the environment, the wrong operations and the
latency percentiles with their sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def _worker(args: list[str]) -> float:
    """Start a worker; returns the seconds until it reported ``ready``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("worker failed during set-up")
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup


def spawn_pass(bundle: str, workload: str, traced: bool) -> tuple[float, dict]:
    """One pass in a fresh worker: its set-up time and its output."""
    out = os.path.join(WORK, f"{workload}.out.json")
    args = [bundle, out]
    if traced:
        args += ["--trace", os.path.join(WORK, f"{workload}.spans.jsonl")]
    setup = _worker(args)
    with open(out) as fh:
        return setup, json.load(fh)


def tail_percentile(n: int) -> float | None:
    """Highest listed percentile with at least MIN_BEYOND of n samples above it."""
    usable = [p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= MIN_BEYOND]
    return max(usable) if usable else None


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def latency(passes: list[dict]) -> tuple[float, float, dict]:
    """Median and tail latency in ms: per pass, then the median over passes.

    With fewer than 2 * MIN_BEYOND operations per pass no percentile has
    enough samples beyond it; the tail is then the slowest operation.
    """
    n = len(passes[0]["records"])
    tail_p = tail_percentile(n)
    p50s, tails = [], []
    for result in passes:
        ms = [r["ms"] for r in result["records"]]
        p50s.append(statistics.median(ms))
        tails.append(nearest_rank(ms, tail_p) if tail_p else max(ms))
    info = {"samples_per_pass": n, "passes": len(passes), "tail_percentile": tail_p or 100}
    return statistics.median(p50s), statistics.median(tails), info


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_pin": PINNED_THREADS,
    }


def layer_unit(name: str) -> str:
    if name.endswith("us_per_iteration"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sloccflow", "__init__.py")):
        print(f"sloccflow sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before numpy is imported, here and in the workers
    sys.path.insert(0, SRC)
    import generate
    import oracle

    if args.workload not in generate.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(generate.WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    # Each run overwrites the files of the last run of its workload.
    bundle = os.path.join(WORK, f"{args.workload}.json")
    generate.write(args.workload, args.seed, bundle)
    with open(bundle) as fh:
        ops = json.load(fh)["operations"]

    start = time.perf_counter()
    setups: list[float] = []
    if not args.trace:
        setups += [_worker([bundle, os.devnull, "--setup-only"]) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        pass_start = time.perf_counter()
        use_trace = bool(args.trace) and bool(plain)
        setup, result = spawn_pass(bundle, args.workload, use_trace)
        setups.append(setup)
        (traced if use_trace else plain).append(result)
        last = time.perf_counter() - pass_start
        done = traced if args.trace else plain
        if done and time.perf_counter() - start + last > args.seconds:
            break

    attempted = wrong = failed = 0
    wrong_ops: dict[str, dict] = {}
    for result in plain + traced:
        for op, record in zip(ops, result["records"]):
            attempted += 1
            problems = oracle.check(op, record["result"])
            if problems:
                wrong += 1
                wrong_ops[op["id"]] = {"defect": oracle.known_defect(op["id"]), "problems": problems}
                if "error" in record["result"] or not oracle.known_defect(op["id"]):
                    failed += 1

    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "wrong_ratio": {"value": wrong / attempted, "wrong": wrong, "attempted": attempted},
        "wrong_operations": wrong_ops,
    }
    if args.trace:
        layer_names = traced[0]["layers"]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": layer_unit(name)}
            for name in layer_names
        }
        overhead = statistics.median(r["wall_s"] for r in traced) - plain[0]["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        p50, tail, report["latency"] = latency(plain)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_tail_ms": {"value": tail, "unit": "ms"},
            "right_ratio": {"value": 1.0 - wrong / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
