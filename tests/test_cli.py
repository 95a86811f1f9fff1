import json
import math

import pytest

from sloccflow.cli import build_parser, main
from sloccflow.demos import DemoTable, run_demo
from sloccflow.errors import UnknownDemo


@pytest.fixture
def w3_file(tmp_path):
    doc = {
        "sector": "distinguishable",
        "parties": 3,
        "local_dim": 2,
        "amplitudes": [[0, 0], [1, 0], [1, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]],
    }
    path = tmp_path / "w3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ghz_class_file(tmp_path):
    doc = {
        "sector": "distinguishable",
        "parties": 3,
        "local_dim": 2,
        "amplitudes": [[2, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0]],
    }
    path = tmp_path / "ghz_class.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_w_report(self, w3_file, capsys):
        assert main(["classify", w3_file]) == 0
        report = json.loads(capsys.readouterr().out)
        record = report["record"]
        assert abs(record["d"] - math.sqrt(1 / 6)) < 1e-8
        assert record["morse_index"] == 2
        assert record["stability"] == "nullcone"
        assert report["trace_summary"]["converged"]

    def test_ghz_class_report(self, ghz_class_file, capsys):
        assert main(["classify", ghz_class_file]) == 0
        record = json.loads(capsys.readouterr().out)["record"]
        assert record["d"] < 1e-4
        assert record["morse_index"] == 0
        assert record["stability"] == "semistable"

    def test_report_round_trips(self, w3_file, capsys):
        main(["classify", w3_file])
        doc = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(doc)) == doc

    def test_reports_deterministic(self, w3_file, capsys):
        main(["classify", w3_file, "--seed", "5"])
        first = capsys.readouterr().out
        main(["classify", w3_file, "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["classify", str(bad)]) == 2
        missing_keys = tmp_path / "incomplete.json"
        missing_keys.write_text('{"sector": "distinguishable"}')
        assert main(["classify", str(missing_keys)]) == 2

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/state.json"]) == 2

    def test_non_finite_amplitude_rejected(self, tmp_path, capsys):
        doc = {
            "sector": "distinguishable",
            "parties": 2,
            "local_dim": 2,
            "amplitudes": [[float("nan"), 0], [0, 0], [0, 0], [1, 0]],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--max-iter", "50"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unallocatable_embedding_is_an_input_error(self, tmp_path, capsys):
        # A well-formed 40-boson qubit document: its 2^40 x 41 embedding
        # cannot be allocated, which the CLI reports as an input error.
        doc = {
            "sector": "bosonic",
            "parties": 40,
            "local_dim": 2,
            "amplitudes": [[1, 0]] * 41,
        }
        path = tmp_path / "bosons40.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bosonic(L=40, N=2)" in err and "1099511627776 x 41" in err

    def test_overflowing_norm_loads_as_scaled_state(self, tmp_path, capsys):
        records = []
        for scale in (1.0, 1e308):
            doc = {
                "sector": "distinguishable",
                "parties": 2,
                "local_dim": 2,
                "amplitudes": [[scale, 0], [0, 0], [0, 0], [scale, 0]],
            }
            path = tmp_path / f"bell_{scale:g}.json"
            path.write_text(json.dumps(doc))
            assert main(["classify", str(path)]) == 0
            records.append(json.loads(capsys.readouterr().out)["record"])
        assert records[0] == records[1]

    def test_not_converged_exit(self, ghz_class_file, capsys):
        assert main(["classify", ghz_class_file, "--max-iter", "2"]) == 3

    def test_out_and_terminal_files(self, w3_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        term = tmp_path / "terminal.json"
        code = main(
            ["classify", w3_file, "--out", str(out), "--save-terminal", str(term)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["record"]["morse_index"] == 2
        terminal = json.loads(term.read_text())
        assert terminal["parties"] == 3

    def test_hessian_dump(self, w3_file, tmp_path, capsys):
        hess = tmp_path / "hessian.csv"
        assert main(["classify", w3_file, "--dump-hessian", str(hess)]) == 0
        rows = hess.read_text().strip().splitlines()
        assert len(rows) == 2  # two transverse directions at the W point
        assert float(rows[0].split(",")[0]) == pytest.approx(-4 / 3, abs=1e-4)


class TestFlow:
    def test_trace_lines(self, ghz_class_file, capsys):
        assert main(["flow", ghz_class_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[0]["iteration"] == 0
        values = [r["mu_norm_sq"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_single_sample_for_critical_input(self, w3_file, capsys):
        assert main(["flow", w3_file]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestDemo:
    def test_dicke_demo_passes(self, capsys):
        assert main(["demo", "dicke", "3"]) == 0
        out = capsys.readouterr().out
        assert "all rows pass" in out

    def test_bipartite_csv(self, capsys):
        assert main(["demo", "bipartite", "2", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("k,")

    def test_bosons_json(self, capsys):
        assert main(["demo", "bosons", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_ok"] is True

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nope"]) == 2

    def test_run_demo_rejects_bad_args(self):
        with pytest.raises(UnknownDemo):
            run_demo("bipartite", ["x"])
        with pytest.raises(UnknownDemo):
            run_demo("dicke", [])


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["classify", "x.json", "--step", "0.1", "--tol", "1e-8",
             "--max-iter", "100", "--seed", "7", "--format", "csv"]
        )
        assert args.step == 0.1 and args.seed == 7


class TestDemoTable:
    def test_text_render_marks_failures(self):
        table = DemoTable("demo", ["a", "ok"])
        table.add(a=1.0, ok=False)
        text = table.to_text()
        assert "FAIL" in text and "FAILURES present" in text
