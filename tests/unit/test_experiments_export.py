"""Unit tests for result export and the CLI runner."""

import csv
import json

import pytest

from repro.experiments.common import ExperimentResult, Series
from repro.experiments.export import (
    export_result,
    result_from_dict,
    result_to_dict,
    result_to_json,
    write_csv,
    write_json,
)
from repro.experiments.runner import EXPERIMENTS, main


@pytest.fixture
def result():
    r = ExperimentResult("figX", "Title", "transactions", "messages")
    r.series.append(Series(name="a", x=[1, 2], y=[10.0, 20.0]))
    r.series.append(Series(name="b", x=[1, 2], y=[5.0, 2.5]))
    r.scalars["ratio"] = 0.5
    r.note("claim — HOLDS")
    return r


class TestExport:
    def test_dict_roundtrips_through_json(self, result):
        d = result_to_dict(result)
        assert json.loads(json.dumps(d)) == d
        assert d["series"][0]["y"] == [10.0, 20.0]
        assert d["scalars"]["ratio"] == 0.5

    def test_write_json(self, result, tmp_path):
        path = write_json(result, tmp_path / "x.json")
        loaded = json.loads(path.read_text())
        assert loaded["experiment_id"] == "figX"
        assert loaded["notes"] == ["claim — HOLDS"]

    def test_write_csv_long_format(self, result, tmp_path):
        path = write_csv(result, tmp_path / "x.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["series", "transactions", "messages"]
        assert ["a", "1", "10.0"] in rows
        assert ["b", "2", "2.5"] in rows
        assert len(rows) == 1 + 4

    def test_export_both(self, result, tmp_path):
        paths = export_result(result, tmp_path / "out")
        assert {p.suffix for p in paths} == {".json", ".csv"}
        assert all(p.exists() for p in paths)

    def test_creates_directories(self, result, tmp_path):
        path = write_json(result, tmp_path / "deep" / "dir" / "x.json")
        assert path.exists()

    def test_json_keys_are_sorted(self, result, tmp_path):
        loaded = json.loads(write_json(result, tmp_path / "x.json").read_text())
        assert list(loaded) == sorted(loaded)

    def test_json_bytes_stable_across_scalar_insertion_order(self, result):
        shuffled = ExperimentResult("figX", "Title", "transactions", "messages")
        shuffled.series = list(result.series)
        shuffled.notes = list(result.notes)
        shuffled.scalars["zz_last"] = 1.0
        shuffled.scalars["ratio"] = 0.5
        result.scalars["zz_last"] = 1.0  # same content, different order
        assert result_to_json(result) == result_to_json(shuffled)

    def test_from_dict_round_trip(self, result):
        clone = result_from_dict(result_to_dict(result))
        assert result_to_json(clone) == result_to_json(result)
        assert clone.get("a").y == [10.0, 20.0]
        assert clone.notes == result.notes
        assert clone.scalars == result.scalars


class TestRunnerCLI:
    def test_list_prints_ids(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Network size" in out
        assert "completed" in out

    def test_out_writes_files(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table1.csv").exists()

    def test_every_registered_experiment_has_small_kwargs(self):
        for name, (module, small, paper) in EXPERIMENTS.items():
            assert hasattr(module, "run")
            # hirep-experiments is the one entry point; only table1
            # keeps a main(), which prints its table.
            assert hasattr(module, "main") == (name == "table1")
            assert isinstance(small, dict) and isinstance(paper, dict)
