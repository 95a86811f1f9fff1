"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each traced public function with a wrapper in
every ``sloccflow`` module that binds it by name (``from .x import f`` makes
a second binding), and puts the originals back on exit.  Each call records a
span ``(name, start, end, parent, operation)`` in memory; counts are read from
return values.  ``layer_metrics`` turns one pass's spans into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from sloccflow.flow import ZERO_STRATUM_MU2

# (module that defines or imports it, attribute, span name)
TARGETS = (
    ("sloccflow.statespace", "embedding_isometry", "statespace.embedding_isometry"),
    ("sloccflow.momentum", "momentum", "momentum.momentum"),
    ("sloccflow.momentum", "mu_star_apply", "momentum.mu_star_apply"),
    ("sloccflow.momentum", "mu_star_matrix", "momentum.mu_star_matrix"),
    ("sloccflow.momentum", "total_variance", "momentum.total_variance"),
    ("sloccflow.momentum", "represented_generators", "momentum.represented_generators"),
    ("sloccflow.flow", "flow_to_critical", "flow.flow_to_critical"),
    ("sloccflow.flow", "gradient_norm", "flow.gradient_norm"),
    ("sloccflow.morse", "orbit_tangent_frame", "morse.orbit_tangent_frame"),
    ("sloccflow.morse", "complement_hessian_spectrum", "morse.complement_hessian_spectrum"),
    ("sloccflow.morse", "morse_index", "morse.morse_index"),
    ("sloccflow.critical", "classify_with_trace", "critical.classify_with_trace"),
    ("sloccflow.critical", "orbit_dimension", "critical.orbit_dimension"),
    ("sloccflow.critical", "alpha_star_eigenspaces", "critical.alpha_star_eigenspaces"),
    ("sloccflow.critical", "self_consistent_critical", "critical.self_consistent_critical"),
    ("sloccflow.critical", "nnls", "critical.nnls"),
    ("sloccflow.critical", "qubit_weyl_grid", "families.qubit_weyl_grid"),
    ("sloccflow.families", "scan_qubit_families", "families.scan_qubit_families"),
)
CALLS_AND_SELF = (
    "momentum.momentum",
    "momentum.mu_star_apply",
    "momentum.mu_star_matrix",
    "momentum.total_variance",
    "momentum.represented_generators",
    "flow.flow_to_critical",
    "flow.gradient_norm",
    "morse.orbit_tangent_frame",
    "morse.complement_hessian_spectrum",
    "morse.morse_index",
    "critical.classify_with_trace",
    "critical.orbit_dimension",
    "critical.alpha_star_eigenspaces",
    "critical.self_consistent_critical",
)
EXITS = ("gradient", "zero_level", "not_converged")
START, END, NAME, PARENT, OP = range(5)


def _last_iteration(flow_trace) -> int:
    return flow_trace.samples[-1][0] if flow_trace and flow_trace.samples else 0


class Tracer:
    """Spans and counts of one pass; ``operation`` tags the spans opened next."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.operation: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [0.0, 0.0, name, stack[-1] if stack else -1, self.operation]
            spans.append(span)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = time.perf_counter()
                if name == "flow.flow_to_critical" and hasattr(exc, "trace"):
                    counts["flow.exit.not_converged"] += 1
                    counts["flow.iterations"] += _last_iteration(exc.trace)
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            self._count(name, result)
            if cache_info and cache_info().misses > misses:
                counts[f"{name}.builds"] += 1
                counts[f"{name}.build_s"] += span[END] - span[START]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, result) -> None:
        counts = self.counts
        if name == "flow.flow_to_critical":
            _, flow_trace = result
            counts[f"flow.exit.{flow_trace.stopped_on}"] += 1
            counts["flow.iterations"] += _last_iteration(flow_trace)
        elif name == "critical.classify_with_trace":
            if result[0].lambda_value > ZERO_STRATUM_MU2:
                counts["classify.nonzero_level"] += 1
        elif name == "critical.alpha_star_eigenspaces":
            counts["critical.alpha_star_eigenspaces.blocks"] += len(result)
        elif name == "critical.self_consistent_critical":
            counts["critical.self_consistent_critical.found"] += bool(result)
        elif name == "families.scan_qubit_families":
            counts["families.grid_points"] += result.grid_size

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every target; restore the originals on exit."""
        homes = {home: importlib.import_module(home) for home, _, _ in TARGETS}
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "sloccflow" or key.startswith("sloccflow.")
        ]
        try:
            for home, attr, name in TARGETS:
                original = getattr(homes[home], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, original in reversed(self._restore):
                setattr(module, key, original)
            self._restore.clear()

    def write_spans(self, path: str) -> None:
        """One JSON array ``[name, start, end, parent, operation]`` per line."""
        with open(path, "w") as fh:
            for start, end, name, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one pass (values are counts, seconds or ratios)."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    for span in spans:
        duration = span[END] - span[START]
        calls[span[NAME]] += 1
        inclusive[span[NAME]] += duration
        self_time[span[NAME]] += duration
        if span[PARENT] >= 0:
            self_time[spans[span[PARENT]][NAME]] -= duration

    frames_in_classify = 0
    for span in spans:
        if span[NAME] != "morse.orbit_tangent_frame":
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != "critical.classify_with_trace":
            parent = spans[parent][PARENT]
        frames_in_classify += parent >= 0

    out: dict[str, float] = {
        "statespace.embed_builds": counts["statespace.embedding_isometry.builds"],
        "statespace.embed_build_s": counts["statespace.embedding_isometry.build_s"],
    }
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_time[name]
    iterations = counts["flow.iterations"]
    out["flow.iterations"] = iterations
    out["flow.us_per_iteration"] = (
        1e6 * self_time["flow.flow_to_critical"] / iterations if iterations else 0.0
    )
    for reason in EXITS:
        out[f"flow.exit.{reason}"] = counts[f"flow.exit.{reason}"]
    nonzero = counts["classify.nonzero_level"]
    out["morse.frames_per_classify"] = frames_in_classify / nonzero if nonzero else 0.0
    out["critical.alpha_star_eigenspaces.blocks"] = counts[
        "critical.alpha_star_eigenspaces.blocks"
    ]
    out["critical.nnls.calls"] = calls["critical.nnls"]
    out["critical.nnls.s"] = inclusive["critical.nnls"]
    searched = calls["critical.self_consistent_critical"]
    out["critical.blocks_with_critical_ratio"] = (
        counts["critical.self_consistent_critical.found"] / searched if searched else 0.0
    )
    out["families.scan_qubit_families.self_s"] = self_time["families.scan_qubit_families"]
    out["families.grid_points"] = counts["families.grid_points"]
    out["families.qubit_weyl_grid.s"] = inclusive["families.qubit_weyl_grid"]
    return out
