"""End-to-end CLI behavior: exit codes, output discipline, determinism."""

import json
import os
import subprocess
import sys

import pytest

import sqfr
from sqfr import GroupedScores, save_csv, save_json
from sqfr.cli import main

FIVE_GROUP_ROWS = {
    "one-strong": ([31.4, 84.4, 84.9, 85.2, 86.8], 0.85, 0.61),
    "two-strong": ([31.1, 26.7, 85.0, 85.1, 87.1], 0.72, 0.38),
    "one-slight": ([79.1, 85.6, 85.0, 85.1, 86.9], 0.98, 0.94),
    "two-slight": ([76.0, 77.5, 85.6, 86.9, 85.8], 0.96, 0.89),
    "similar": ([85.7, 87.5, 85.6, 86.6, 86.5], 0.99, 0.98),
    "equal": ([87.5] * 5, 1.0, 1.0),
    "different": ([87.5, 72.2, 25.0, 14.3, 47.3], 0.61, 0.22),
}


def singleton_component(cid, values):
    return GroupedScores(cid, {label: [v] for label, v in zip("ABCDE", values)})


@pytest.fixture
def q2_csv(tmp_path):
    path = tmp_path / "q2.csv"
    save_csv(singleton_component("q2", [76.6, 89.4, 90.2]), path)
    return path


class TestEval:
    def test_json_report_to_stdout(self, q2_csv, capsys):
        assert main(["eval", "--input", str(q2_csv), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["components"][0]["measures"]["mean-gc-sqfr"] == pytest.approx(0.95, abs=0.005)

    def test_report_written_to_file(self, q2_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["eval", "--input", str(q2_csv), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["metadata"]["input"] == str(q2_csv)

    def test_single_group_exits_2_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "single.csv"
        path.write_text("group,component,score\nA,q,1\nA,q,2\n")
        out = tmp_path / "report.json"
        code = main(["eval", "--input", str(path), "--out", str(out)])
        assert code == 2
        assert "n >= 2 required" in capsys.readouterr().err
        assert not out.exists()  # no partial report on failure

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert main(["eval", "--input", str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_score_strict_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,component,score\nA,q,1\nB,q,abc\n")
        assert main(["eval", "--input", str(path)]) == 1
        assert "row 3" in capsys.readouterr().err

    def test_bad_score_lenient_warns_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,component,score\nA,q,1\nB,q,abc\nB,q,2\n")
        assert main(["eval", "--input", str(path), "--lenient"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err and "row 3" in captured.err
        assert json.loads(captured.out)["components"][0]["component"] == "q"

    def test_json_integer_beyond_float_range_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"components": {"q": {"A": [1, 2], "B": [1%s]}}}' % ("0" * 400))
        assert main(["eval", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: components.q.B[0]: score is not finite\n"

    def test_unknown_measure_exits_2(self, q2_csv, capsys):
        assert main(["eval", "--input", str(q2_csv), "--measures", "bogus"]) == 2
        assert "valid measures" in capsys.readouterr().err

    def test_five_group_csv_matches_published_mean_columns(self, tmp_path, capsys):
        components = {cid: singleton_component(cid, vals) for cid, (vals, _, _) in FIVE_GROUP_ROWS.items()}
        path = tmp_path / "five_groups.json"
        save_json(components, path)
        code = main(
            ["eval", "--input", str(path), "--measures", "mean-gc-sqfr,mean-gc-csqfr",
             "--format", "csv", "--precision", "6"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "component,mean-gc-sqfr,mean-gc-csqfr"
        assert len(lines) == 8  # header + 7 scenario rows
        for line in lines[1:]:
            cid, s, c = line.split(",")
            _, want_s, want_c = FIVE_GROUP_ROWS[cid]
            assert float(s) == pytest.approx(want_s, abs=0.005)
            assert float(c) == pytest.approx(want_c, abs=0.005)

    def test_json_input_by_extension(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        save_json(singleton_component("q", [1.0, 2.0]), path)
        assert main(["eval", "--input", str(path)]) == 0

    def test_observed_thresholds_flag(self, q2_csv, capsys):
        assert main(["eval", "--input", str(q2_csv), "--thresholds", "observed"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["thresholds"] == "observed"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_eval_checks_each_component_at_most_twice(self, tmp_path, monkeypatch, capsys, suffix):
        # once when loading, once in the diagnostics; build_report reuses the load's check
        path = tmp_path / f"d{suffix}"
        save = save_csv if suffix == ".csv" else save_json
        save({cid: singleton_component(cid, [1.0, 2.0, 4.0]) for cid in ("q1", "q2", "q3")}, path)
        calls = []
        original = GroupedScores.problems
        monkeypatch.setattr(
            GroupedScores, "problems", lambda self: calls.append(self.component_id) or original(self)
        )
        assert main(["eval", "--input", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["components"]) == 3
        assert sorted(calls) == ["q1", "q1", "q2", "q2", "q3", "q3"]

    def test_precision_env_default(self, q2_csv, tmp_path):
        out = tmp_path / "r.csv"
        # the child imports the same sqfr as this process, installed or not
        src = os.path.dirname(os.path.dirname(sqfr.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, SQFR_PRECISION="1", PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-m", "sqfr.cli", "eval", "--input", str(q2_csv),
             "--format", "csv", "--out", str(out)],
            env=env,
            check=True,
        )
        assert ",0.9," in out.read_text()


class TestSimulate:
    def test_unknown_scenario_lists_available(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "available scenarios" in err and "q1" in err

    def test_scenario_roundtrip_anchor(self, tmp_path, capsys):
        data = tmp_path / "q1.csv"
        assert main(["simulate", "--scenario", "q1", "--seed", "42", "--out", str(data)]) == 0
        assert "mean" in capsys.readouterr().out
        assert main(["eval", "--input", str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        value = doc["components"][0]["measures"]["mean-gc-sqfr"]
        assert value == pytest.approx(0.98, abs=0.01)

    def test_all_equal_scenario_every_measure_one(self, tmp_path, capsys):
        data = tmp_path / "eq.csv"
        assert main(["simulate", "--scenario", "all-equal", "--seed", "7", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--input", str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v == 1.0 for v in doc["components"][0]["measures"].values())

    def test_spec_file_deterministic_output(self, tmp_path, capsys):
        spec = {
            "name": "custom",
            "seed": 99,
            "groups": [
                {"label": "A", "distribution": "normal",
                 "parameters": {"mean": 30, "stddev": 4}, "sample_count": 100},
                {"label": "B", "distribution": "normal",
                 "parameters": {"mean": 60, "stddev": 4}, "sample_count": 100},
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--spec", str(spec_path), "--seed", "1", "--out", str(out1)]) == 0
        assert main(["simulate", "--spec", str(spec_path), "--seed", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_output_format(self, tmp_path, capsys):
        data = tmp_path / "q5.json"
        assert main(["simulate", "--scenario", "q5", "--out", str(data)]) == 0
        doc = json.loads(data.read_text())
        assert set(doc["components"]["q5"]) == {"A", "B", "C"}


class TestPlotdata:
    def test_histogram_counts_conserved(self, tmp_path, capsys):
        data = tmp_path / "q1.csv"
        main(["simulate", "--scenario", "q1", "--out", str(data)])
        capsys.readouterr()
        assert main(["plotdata", "--input", str(data)]) == 0
        doc = json.loads(capsys.readouterr().out)
        for group in doc["components"][0]["groups"]:
            assert sum(group["counts"]) == group["count"] == 500

    def test_degenerate_group_warns(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        save_csv(GroupedScores("q", {"A": [5.0, 5.0], "B": [1.0, 9.0]}), path)
        assert main(["plotdata", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert "density omitted" in captured.err
        doc = json.loads(captured.out)
        groups = {g["label"]: g for g in doc["components"][0]["groups"]}
        assert groups["A"]["density"] is None and groups["B"]["density"] is not None


class TestFixturesCommand:
    def test_markdown_table(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "| q1-mean | mean | mean-gc-sqfr | 0.98 |" in out

    def test_json_format(self, capsys):
        assert main(["fixtures", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_name = {f["name"]: f for f in doc}
        assert by_name["five-all-equal"]["computed"]["mean-gc-sqfr"] == 1.0


class TestDeterminism:
    def test_pipeline_bytes_stable_across_runs(self, tmp_path, capsys):
        reports = []
        for run in ("x", "y"):
            data = tmp_path / f"{run}.csv"
            report = tmp_path / f"{run}.json"
            assert main(["simulate", "--scenario", "q5", "--out", str(data)]) == 0
            assert main(
                ["eval", "--input", str(data), "--out", str(report)]
            ) == 0
            # normalize the metadata input path, everything else must match
            reports.append(report.read_text().replace(str(data), "DATA"))
        capsys.readouterr()
        assert reports[0] == reports[1]
