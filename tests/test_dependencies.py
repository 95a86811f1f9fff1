"""numpy is the package's only runtime dependency, and it says so."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sloccflow"


def test_import_loads_no_scipy():
    # A fresh interpreter: modules the other tests imported would mask a
    # stray import here.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import sloccflow, sloccflow.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random on first use, which the chamber scan's first
    # seeded draw pays for; an import-time use would add it to every start-up.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import sloccflow, sloccflow.families; "
        "print('numpy.random' in sys.modules)"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group() for req in project["dependencies"]}
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"sloccflow"}
    assert third_party == declared == {"numpy"}
