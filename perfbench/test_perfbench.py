"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repo root."""

import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

import sloccflow  # noqa: E402
from sloccflow.families import boson_pair_state, fermion_pair_state  # noqa: E402
from sloccflow.statespace import LocalOperator, apply_local, dicke, normalize  # noqa: E402


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_writes_identical_documents_for_one_seed(workload, tmp_path):
    first, second, other = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    generate.write(workload, 7, str(first))
    generate.write(workload, 7, str(second))
    generate.write(workload, 8, str(other))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_generated_moves_match_apply_local():
    rng = np.random.default_rng(3)
    for L, k in ((5, 1), (6, 3)):
        g = generate.random_special_linear(rng, 2, 0.35)
        want = normalize(apply_local([LocalOperator(0, g)], dicke(k, L))).amplitudes
        got = generate._unit(generate.moved_dicke(g, L, k))
        assert abs(abs(np.vdot(want, got)) - 1.0) < 1e-12
    for kind, build, N, k in (("fermionic", fermion_pair_state, 5, 2), ("bosonic", boson_pair_state, 4, 3)):
        g = generate.random_special_linear(rng, N, 0.3)
        want = normalize(apply_local([LocalOperator(0, g)], build(N, k))).amplitudes
        got = generate._unit(generate.moved_pair(kind, g, N, k))
        assert np.allclose(want, got, atol=1e-12)


def test_every_generated_spec_has_a_known_answer():
    for workload in ("classify-small", "classify-wide", "identical-sectors"):
        for op in generate.generate(workload, 0):
            oracle.expected(op["spec"])
            sloccflow.state_from_json(op["state"])


def test_oracle_flags_altered_d_altered_index_and_raise():
    spec = {"kind": "dicke", "L": 5, "k": 1}
    right = {"d": 3 / math.sqrt(2.0), "index": 6, "stability": "nullcone"}
    assert oracle.check_classify(spec, right) == []
    assert oracle.check_classify(spec, dict(right, d=right["d"] + 1e-4))
    assert oracle.check_classify(spec, dict(right, index=4))
    assert oracle.check_classify(spec, {"error": "NotConverged: cap"})
    three = {"kind": "three_qubit", "family": "GHZ"}
    ghz = {"d": 3e-5, "index": 0, "stability": "semistable"}
    assert oracle.check_classify(three, ghz) == []
    assert oracle.check_classify(three, dict(ghz, stability="stable"))


def test_oracle_checks_the_scan_against_the_class_table():
    families = [
        {"key": list(key), "d": oracle.THREE_QUBIT[name][0], "index": oracle.THREE_QUBIT[name][1]}
        for key, name in oracle.THREE_QUBIT_CHAMBER.items()
    ]
    assert oracle.check_scan({"families": families}) == []
    assert oracle.check_scan({"families": families[1:]})
    assert oracle.check_scan({"families": [dict(families[0], index=2)] + families[1:]})


def test_known_defects_label_only_the_roadmap_cases():
    assert oracle.known_defect("w4-moved-1.0")
    assert oracle.known_defect("dicke-10-3")
    assert oracle.known_defect("dicke-6-0")
    assert not oracle.known_defect("fermion_pair-6-1")
    assert not oracle.known_defect("w8")
    assert oracle.known_defect("three-B3-2")
    assert not oracle.known_defect("three-W-0")
    assert not oracle.known_defect("three-GHZ-0")


def _bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "sloccflow" or name.startswith("sloccflow.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_restore_the_original_module_attributes():
    import sloccflow.families  # noqa: F401

    before = _bindings()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert sloccflow.critical.nnls is not before[("sloccflow.critical", "nnls")]
            assert sloccflow.morse.complement_hessian_spectrum.__wrapped__ is (
                sloccflow.critical.complement_hessian_spectrum.__wrapped__
            )
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _small_bundle(tmp_path):
    ops = generate.generate("classify-small", 5)
    picked = [op for op in ops if op["id"] in ("three-W-0", "three-SEP-1", "bipartite-3-3")]
    picked += [op for op in generate.generate("identical-sectors", 5) if op["id"] == "boson_pair-3-2"]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"operations": picked}))
    return str(path)


def test_traced_and_untraced_passes_return_identical_records(tmp_path):
    ops, states = worker.load(_small_bundle(tmp_path))
    plain, _ = worker.run_pass(ops, states)
    tracer = Tracer()
    with tracer.installed():
        traced, _ = worker.run_pass(ops, states, tracer)
    assert [r["result"] for r in traced] == [r["result"] for r in plain]
    layers = layer_metrics(tracer.spans, tracer.counts)
    assert layers["critical.classify_with_trace.calls"] == len(ops)
    assert layers["flow.flow_to_critical.calls"] == len(ops)
    assert layers["flow.iterations"] == sum(r["result"]["iterations"] for r in plain)
    # Three of the four end on a nonzero level, with two frames each.
    assert layers["morse.frames_per_classify"] == 2.0
    assert {span[4] for span in tracer.spans} == {op["id"] for op in ops}


def test_self_time_subtracts_child_spans():
    spans = [
        [0.0, 10.0, "critical.classify_with_trace", -1, "a"],
        [1.0, 4.0, "flow.flow_to_critical", 0, "a"],
        [2.0, 3.0, "statespace.embedding_isometry", 1, "a"],
        [5.0, 9.0, "morse.orbit_tangent_frame", 0, "a"],
    ]
    layers = layer_metrics(spans, Counter({"classify.nonzero_level": 1, "flow.iterations": 4}))
    assert layers["critical.classify_with_trace.self_s"] == 3.0
    assert layers["flow.flow_to_critical.self_s"] == 2.0
    assert layers["flow.us_per_iteration"] == 0.5e6
    assert layers["morse.frames_per_classify"] == 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(46) == 75
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(6) is None
    assert run.nearest_rank([5.0, 1.0, 3.0, 2.0], 50) == 2.0
