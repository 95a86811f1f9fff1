"""The two-tree harness ``tests/compare_trees.py``: modes, exit statuses and the gate."""

import os

import pytest

import compare_trees

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree(path, init: str = "") -> str:
    """A source tree with only ``src/sloccflow/__init__.py``."""
    package = path / "src" / "sloccflow"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(init)
    return str(path)


def test_near_miss_on_one_tree_twice(capsys):
    assert compare_trees.main([ROOT, ROOT, "near-miss", "--parties", "3", "--draws", "1"]) == 0
    out = capsys.readouterr().out
    assert "W_3 + delta h, W level 0.166667 (flowed W_3: BEFORE 0.166667, AFTER 0.166667)" in out
    assert "delta 1e-12: BEFORE W 1/1, zero 0, other 0; AFTER W 1/1, zero 0, other 0" in out


def test_labels_on_one_tree_twice(capsys):
    argv = [ROOT, ROOT, "labels", "--seeds", "1", "--workloads", "chamber-scan"]
    assert compare_trees.main(argv) == 0
    assert "0 label differences" in capsys.readouterr().out


def test_demos_on_one_tree_twice(capsys):
    assert compare_trees.main([ROOT, ROOT, "demos"]) == 0
    assert capsys.readouterr().out == "0 demo differences\n"


def test_layers_needs_two_rounds_for_its_spread():
    with pytest.raises(SystemExit) as exit_:
        compare_trees.main([ROOT, ROOT, "layers", "--rounds", "1"])
    assert exit_.value.code == 2


def test_one_tree_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_:
        compare_trees.main([ROOT, "near-miss"])
    assert exit_.value.code == 2


def test_missing_tree_exits_2_and_names_it(tmp_path, capsys):
    missing = str(tmp_path / "absent")
    assert compare_trees.main([missing, ROOT, "near-miss"]) == 2
    assert f"{missing} is not a source tree for near-miss" in capsys.readouterr().err


def test_labels_needs_the_tree_perfbench(tmp_path, capsys):
    tree = _tree(tmp_path)
    assert compare_trees.main([ROOT, tree, "labels", "--seeds", "1"]) == 2
    assert f"{tree} is not a source tree for labels: no perfbench" in capsys.readouterr().err


def test_collector_crash_exits_2_with_tree_and_mode(tmp_path, capsys):
    tree = _tree(tmp_path, init="raise ImportError('broken tree')\n")
    assert compare_trees.main([ROOT, tree, "near-miss", "--parties", "3", "--draws", "1"]) == 2
    assert f"near-miss failed in {tree}" in capsys.readouterr().err


def test_bench_refuses_trees_whose_benchmark_differs(tmp_path, capsys):
    tree = _tree(tmp_path)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text("{}")
    assert compare_trees.main([ROOT, tree, "bench", "--workloads", "chamber-scan"]) == 2
    assert "BENCHMARK.json" in capsys.readouterr().err


TEN = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.055
WIDE = [float(i) for i in range(1, 11)]  # median 5.5, IQR 5.5


@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        # 10 of 10 pairs won, medians 0.2 apart against an IQR of 0.055.
        (TEN, [x - 0.2 for x in TEN], "lower", "better"),
        (TEN, [x + 0.2 for x in TEN], "higher", "better"),
        # The same gap with 8 of 10 pairs won.
        (TEN, [2.0, 2.0] + [x - 0.2 for x in TEN[2:]], "lower", "within bound"),
        # 8 pairs won and 2 tied: a tie counts for neither tree.
        (TEN, [x - 0.2 for x in TEN[:8]] + TEN[8:], "lower", "within bound"),
        (TEN, TEN, "lower", "within bound"),
        (TEN, [x * 1.5 for x in TEN], "lower", "worse"),
        (TEN, [x * 0.5 for x in TEN], "higher", "worse"),
        # An IQR as wide as the median: wider than the bound.
        (WIDE, WIDE[::-1], "lower", "unresolved"),
        # As wide, but every AFTER run beats every BEFORE run (gap 5 < IQR 5.5).
        (WIDE, [0.5] * 10, "lower", "within bound"),
    ],
)
def test_verdict(before, after, better, expected):
    assert compare_trees.verdict(before, after, better, 0.25) == expected
