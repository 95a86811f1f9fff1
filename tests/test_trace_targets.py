"""The benchmark's traced functions must stay bound where it looks them up.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by module and attribute
name; a deleted or renamed function would break ``perfbench/run.py --trace 1``
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attribute,span", _targets())
def test_trace_target_is_bound(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span
