"""The timed process: one pass over a workload's operations in a fresh interpreter.

Usage: ``python3 perfbench/worker.py BUNDLE OUT [--trace SPANS] [--setup-only]``.

Set-up (importing ``sloccflow`` and loading every state document through
``state_from_json``) ends with ``ready`` on standard output, so the caller can
time it from process start.  The pass then runs each operation once, in
order, and writes the results, per-operation latencies, the pass's wall time
and peak resident memory to ``OUT``.  With ``--trace`` the public functions
of each layer are wrapped and the per-layer metrics go to ``OUT`` as well;
the spans go to ``SPANS``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import sloccflow
from sloccflow import families  # the scan's module; the CLI imports it too


def load(bundle_path: str):
    """Operations of a bundle and the loaded state of each classify operation."""
    with open(bundle_path) as fh:
        ops = json.load(fh)["operations"]
    states = [
        sloccflow.state_from_json(op["state"]) if "state" in op else None for op in ops
    ]
    return ops, states


def run_operation(op: dict, state) -> dict:
    """Call the public API for one operation; the result as plain values."""
    spec = op["spec"]
    if spec["kind"] == "scan":
        scan = families.scan_qubit_families(
            spec["parties"], max_denominator=spec["max_denominator"], seed=spec["seed"]
        )
        found = list(scan.families)
        if scan.zero_family is not None:
            found.append(scan.zero_family)
        return {
            "families": [
                {
                    "key": [float(s[0]) for s in rec.stratum.spectra],
                    "d": rec.d_value,
                    "index": rec.morse_index,
                }
                for rec in found
            ]
        }
    record, trace = sloccflow.classify_with_trace(state)
    return {
        "d": record.d_value,
        "index": record.morse_index,
        "stability": record.stability.value,
        "stopped_on": trace.stopped_on,
        "iterations": trace.samples[-1][0],
    }


def run_pass(ops: list[dict], states: list, tracer=None) -> tuple[list[dict], float]:
    """Run every operation once; returns the records and the pass's wall time."""
    records = []
    start = time.perf_counter()
    for op, state in zip(ops, states):
        if tracer is not None:
            tracer.operation = op["id"]
        t0 = time.perf_counter()
        try:
            result = run_operation(op, state)
        except Exception as exc:  # a raising operation is counted, not fatal
            result = {"error": f"{type(exc).__name__}: {exc}"}
        records.append({"id": op["id"], "ms": 1e3 * (time.perf_counter() - t0), "result": result})
    return records, time.perf_counter() - start


def main(argv: list[str]) -> None:
    bundle_path, out_path = argv[0], argv[1]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    ops, states = load(bundle_path)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return
    layers = None
    if spans_path is None:
        records, wall = run_pass(ops, states)
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            records, wall = run_pass(ops, states, tracer)
        layers = layer_metrics(tracer.spans, tracer.counts)
        tracer.write_spans(spans_path)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as fh:
        json.dump(
            {"records": records, "wall_s": wall, "peak_rss_mb": peak_kb / 1024, "layers": layers},
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
