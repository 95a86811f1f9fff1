"""Family records read their invariants the way ``classify`` does.

Each record takes ``d``, the stratum and the Morse index from one momentum
image of its representative, through the same index path as ``classify``.
"""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sloccflow import families
from sloccflow.critical import (
    alpha_star_eigenspaces,
    classify,
    qubit_spectrum_point,
    qubit_weyl_grid,
    self_consistent_critical,
)
from sloccflow.families import (
    _record,
    bipartite_families,
    boson_pair_families,
    dicke_families,
    fermion_pair_families,
    scan_qubit_families,
)
from sloccflow.flow import flow_to_critical
from sloccflow.statespace import distinguishable, random_state

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "families,size,images", [(bipartite_families, 3, 3), (dicke_families, 6, 4)]
)
def test_one_momentum_image_per_record(monkeypatch, families, size, images):
    # ``sloccflow.momentum`` is the function; the module is looked up by name.
    modules = [
        importlib.import_module(f"sloccflow.{name}")
        for name in ("critical", "families", "flow", "morse", "momentum")
    ]
    original = modules[-1].momentum
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, "momentum", None) is original:
            monkeypatch.setattr(module, "momentum", counting)
    records = families(size)
    assert len(records) == images
    assert len(calls) == images


@pytest.mark.parametrize("seed", range(6))
def test_scan_lists_equal_distances_by_label(seed):
    # The three biseparable families share d = 1/sqrt(2) up to rounding.
    families = scan_qubit_families(3, 6, seed=seed).families
    keys = [(round(f.d_value, 9), f.label) for f in families]
    assert keys == sorted(keys)


def _walk_every_point(parties, q, seed=0):
    """The scan without the level screen: every grid point, every block."""
    sector = distinguishable(parties, 2)
    grid = qubit_weyl_grid(parties, q)
    found, longest = {}, 0
    for lambdas in grid:
        alpha = qubit_spectrum_point(sector, lambdas)
        for report in alpha_star_eigenspaces(alpha):
            longest = max(longest, report.multiplicity)
            key = tuple(round(v, 9) for v in lambdas)
            for state in self_consistent_critical(report, seed=seed):
                if key not in found:
                    found[key] = _record(f"alpha={key}", state, 1e-6, stratum=alpha)
    probe, _ = flow_to_critical(random_state(sector, np.random.default_rng(seed)))
    return found, probe, len(grid), longest


def _invariants(record):
    spectra = tuple(tuple(s.tolist()) for s in record.stratum.spectra)
    return record.label, record.d_value, record.morse_index, spectra


@pytest.mark.parametrize(
    "parties,q,batch", [(2, 12, None), (3, 6, None), (4, 4, None), (3, 6, 55)]
)
def test_scan_equals_a_walk_over_every_grid_point(monkeypatch, parties, q, batch):
    if batch is not None:
        # 171 points in four screen batches; the last six hold no block of
        # four kets, the longest on this grid.
        monkeypatch.setattr(families, "_SCREEN_ROWS", batch)
    scan = scan_qubit_families(parties, q)
    found, probe, size, longest = _walk_every_point(parties, q)
    assert scan.families
    assert sorted(map(_invariants, scan.families)) == sorted(map(_invariants, found.values()))
    assert scan.zero_family is not None
    assert np.array_equal(scan.zero_family.state.amplitudes, probe.amplitudes)
    assert (scan.grid_size, scan.max_multiplicity) == (size, longest)


def _records():
    scan = scan_qubit_families(3, 6)
    groups = {
        "bipartite-3": bipartite_families(3),
        "bosons-3": boson_pair_families(3),
        "fermions-6": fermion_pair_families(6),
        "dicke-6": dicke_families(6),
        "scan-3": scan.families,
    }
    return [
        pytest.param(rec, id=f"{group}-{rec.label}")
        for group, records in groups.items()
        for rec in records
    ]


@pytest.mark.parametrize("record", _records())
def test_records_agree_with_classify(record):
    got = classify(record.state)
    assert got.d_value == pytest.approx(record.d_value, abs=1e-12)
    assert got.morse_index == record.morse_index


def test_readme_library_sketch_runs_as_commented():
    text = README.read_text()
    block = re.search(r"## Library sketch\s+```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    commented = re.findall(r"^(\S.*?)\s+# ([\d/().a-z]+)$", block, re.M)
    assert [value for _, value in commented] == ["1/6", "sqrt(1/6)", "2"]
    for expression, value in commented:
        want = eval(value, {"sqrt": math.sqrt})
        assert eval(expression, namespace) == pytest.approx(want, abs=1e-8)
