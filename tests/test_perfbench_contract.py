"""Benchmark operations must still run and pass their oracle.

``perfbench/worker.py`` calls ``families.scan_qubit_families`` and reads the
families' strata, ``d`` and index; ``perfbench/oracle.py`` checks them against
the six three-qubit families.  Classify operations go through
``classify_with_trace`` and are checked against closed forms.  A change to a
signature or an output would otherwise show up only when the benchmark runs.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_operation_passes_oracle():
    worker, oracle = _load("worker"), _load("oracle")
    op = {"spec": {"kind": "scan", "parties": 3, "max_denominator": 6, "seed": 0}}
    result = worker.run_operation(op, None)
    assert oracle.check_scan(result) == []


# The four-qubit zero-level families, three Haar four-qubit states and one
# moved state of each three-qubit class.
CLASSIFY_SMALL_PICKS = r"four-qubit-.*|haar-4x2-\d+|three-\w+-0"


def test_classify_small_operations_pass_oracle():
    generate = _load("generate")
    ops = [
        op
        for op in generate.generate("classify-small", 3)
        if re.fullmatch(CLASSIFY_SMALL_PICKS, op["id"])
    ]
    assert len(ops) == 5 + 3 + 6
    for op in ops:
        assert _oracle_problems(op) == [], op["id"]


def test_identical_sector_operations_pass_oracle():
    # Every pair operation of the workload, and moved Dicke states with
    # L <= 4, which the workload (L >= 5, a known defect) does not reach.
    # ``dicke-4-1`` is a moved W_4, the known defect ``w4-moved-*``
    # (``test_moved_w4_dicke_state``).
    generate, oracle = _load("generate"), _load("oracle")
    ops = [
        op
        for op in generate.generate("identical-sectors", 3)
        if re.fullmatch(r"(?:boson|fermion)_pair-\d+-\d+", op["id"])
    ]
    assert len(ops) == 10 + 7
    ops += _moved_dicke_ops(generate, ((3, 0), (3, 1), (4, 0), (4, 2)))
    for op in ops:
        assert oracle.known_defect(op["id"]) is None, op["id"]
        assert _oracle_problems(op) == [], op["id"]


def _moved_dicke_ops(generate, cases):
    """Moved Dicke operations, one ``g`` per ``(L, k)`` drawn in order from seed 3."""
    rng = np.random.default_rng(3)
    ops = []
    for L, k in cases:
        g = generate.random_special_linear(rng, 2, generate.DICKE_SPREAD)
        ops.append(
            generate._op(f"dicke-{L}-{k}", {"kind": "dicke", "L": L, "k": k},
                         generate._document("bosonic", L, 2, generate.moved_dicke(g, L, k)))
        )
    return ops


def _oracle_problems(op):
    worker, oracle = _load("worker"), _load("oracle")
    result = worker.run_operation(op, worker.sloccflow.state_from_json(op["state"]))
    return oracle.check(op, result)


@pytest.mark.parametrize(
    "workload, op_id",
    [
        ("classify-small", "w4-moved-0.1"),
        ("classify-small", "w4-moved-1.0"),
        ("classify-small", "w5-moved-0.1"),
        ("classify-small", "w5-moved-1.0"),
        ("identical-sectors", "dicke-6-1"),
    ],
)
def test_moved_null_cone_state_at_seed_3(workload, op_id):
    (op,) = [op for op in _load("generate").generate(workload, 3) if op["id"] == op_id]
    assert _oracle_problems(op) == []


def test_moved_w4_dicke_state():
    # The draw after the three that ``test_identical_sector_operations_pass_oracle``
    # uses for (3, 0), (3, 1) and (4, 0): a moved W_4 in ``bosonic(4, 2)``.
    (*_, op) = _moved_dicke_ops(_load("generate"), ((3, 0), (3, 1), (4, 0), (4, 1)))
    assert _oracle_problems(op) == []


def test_dicke_9_2_at_seed_8_ends_in_few_moves():
    # Fixed-size gradient steps fall into a period-2 cycle here, at an
    # equal ``||mu||^2``; the move bound keeps the flow off any such cycle.
    (op,) = [op for op in _load("generate").generate("identical-sectors", 8) if op["id"] == "dicke-9-2"]
    worker, oracle = _load("worker"), _load("oracle")
    result = worker.run_operation(op, worker.sloccflow.state_from_json(op["state"]))
    assert oracle.check(op, result) == []
    assert result["iterations"] <= 20
