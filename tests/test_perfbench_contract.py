"""The benchmark's chamber-scan operation must still run and pass its oracle.

``perfbench/worker.py`` calls ``families.scan_qubit_families`` and reads the
families' strata, ``d`` and index; ``perfbench/oracle.py`` checks them against
the six three-qubit families.  A change to the scan's signature or output
would otherwise show up only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

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
