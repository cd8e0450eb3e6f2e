"""End-to-end CLI behavior: exit codes, output discipline, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import sqfr
from sqfr import GroupedScores, save
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


def child_env(**extra):
    """The environment of a child Python that imports the same sqfr as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(sqfr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def summary_texts(out):
    """label -> (count, mean, median) as the summary of ``sqfr simulate`` prints them."""
    return {label: tuple(rest) for label, *rest in map(str.split, out.splitlines()[2:])}


def eval_group_texts(path, capsys):
    """label -> (count, mean, median) as the markdown report of ``sqfr eval``
    on ``path`` prints them, at the summary's three decimals."""
    assert main(["eval", "--input", str(path), "--format", "markdown",
                 "--thresholds", "observed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("| group | count | mean | median | lwm |") + 2
    rows = [line.strip("| ").split(" | ") for line in lines[start:lines.index("", start)]]
    return {label: (count, mean, median) for label, count, mean, median, _ in rows}


@pytest.fixture
def q2_csv(tmp_path):
    path = tmp_path / "q2.csv"
    save(singleton_component("q2", [76.6, 89.4, 90.2]), path)
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

    @pytest.mark.parametrize("text, where", [
        ('{"components": {"q": {"A": [1, 2], "B": [%s]}}}', " components.q.B[0]:"),
        ("-%s", " $:"),
        ('{"components": {"q": {"A": [%s], }}}', ""),  # read again, the file fails first
    ], ids=["in-a-group", "top-level", "no-path"])
    def test_json_integer_of_too_many_digits_exits_1(self, tmp_path, capsys, text, where):
        path = tmp_path / "long.json"
        path.write_text(text % ("9" * 5000))
        assert main(["eval", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{where} invalid JSON: integer of over 4300 digits\n")

    @pytest.mark.parametrize("name, data, where", [
        ("bad.csv", b"group,component,score\nA,q,1\nB,q,\xff2\n",
         "row 3: invalid UTF-8 at byte 32"),
        ("bad.json", b'{"components": {"q": {"A": [1], "B": [2\xc3]}}}',
         "invalid UTF-8 at byte 39"),
        ("big.csv", b"group,component,score\nA,q,1\nB,q,2" + b"0" * 200_000 + b"\n",
         "row 3: malformed CSV: field larger than field limit"),
    ])
    def test_unreadable_input_exits_1(self, tmp_path, capsys, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["eval", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {where}")

    def test_a_negative_zero_is_reported_as_zero(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("component,group,score\nq,A,-0\nq,B,-0.0\n")
        assert main(["eval", "--input", str(path), "--format", "markdown"]) == 0
        captured = capsys.readouterr()
        assert "| A | 1 | 0.000 | 0.000 | 0.000 |" in captured.out.splitlines()
        assert "all scores equal (0);" in captured.err
        assert main(["eval", "--input", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"median": 0.0' in out and '"lwm": 0.0' in out
        groups = json.loads(out)["components"][0]["groups"]
        signs = [math.copysign(1.0, g[key]) for g in groups for key in ("mean", "median", "lwm")]
        assert signs == [1.0] * 6

    def test_unknown_measure_exits_2(self, q2_csv, capsys):
        assert main(["eval", "--input", str(q2_csv), "--measures", "bogus"]) == 2
        assert "valid measures" in capsys.readouterr().err

    def test_five_group_csv_matches_published_mean_columns(self, tmp_path, capsys):
        components = {cid: singleton_component(cid, vals) for cid, (vals, _, _) in FIVE_GROUP_ROWS.items()}
        path = tmp_path / "five_groups.json"
        save(components, path)
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
        save(singleton_component("q", [1.0, 2.0]), path)
        assert main(["eval", "--input", str(path)]) == 0

    def test_observed_thresholds_flag(self, q2_csv, capsys):
        assert main(["eval", "--input", str(q2_csv), "--thresholds", "observed"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["thresholds"] == "observed"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_eval_checks_each_component_at_most_twice(self, tmp_path, monkeypatch, capsys, suffix):
        # once when loading; the diagnostics and build_report reuse the load's check
        path = tmp_path / f"d{suffix}"
        save({cid: singleton_component(cid, [1.0, 2.0, 4.0]) for cid in ("q1", "q2", "q3")}, path)
        calls = []
        original = GroupedScores.problems
        monkeypatch.setattr(
            GroupedScores, "problems", lambda self: calls.append(self.component_id) or original(self)
        )
        assert main(["eval", "--input", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["components"]) == 3
        assert sorted(calls) == ["q1", "q2", "q3"]

    @pytest.mark.parametrize("argv", [
        ["eval", "--input", "none.csv", "--strict"],
        ["plotdata", "--input", "none.csv", "--strict"],
        ["simulate", "--scenario", "q1", "--format", "csv"],
    ])
    def test_a_removed_flag_is_refused(self, tmp_path, capsys, argv):
        # argparse exits 2 before anything is read or written
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestCsvOnlyFlags:
    """--group-col, --component-col, --score-col and --lenient are load_csv's
    options; on JSON input each is refused, not ignored."""

    NAMES = ["--group-col", "--component-col", "--score-col", "--lenient"]
    ALL_FOUR = ["--group-col", "g", "--component-col", "c", "--score-col", "s", "--lenient"]

    @pytest.mark.parametrize("command", ["eval", "plotdata"])
    @pytest.mark.parametrize("flags", [
        ["--group-col", "g"],
        ["--component-col", "c"],
        ["--score-col", "s"],
        ["--lenient"],
        ALL_FOUR,
    ], ids=["group-col", "component-col", "score-col", "lenient", "all-four"])
    def test_json_input_exits_2_naming_each_flag(self, tmp_path, capsys, command, flags):
        path = tmp_path / "d.json"
        save(singleton_component("q", [1.0, 2.0]), path)
        out = tmp_path / "out.json"
        assert main([command, "--input", str(path), *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {path} ")
        assert [f for f in self.NAMES if f in line] == [f for f in flags if f in self.NAMES]
        assert not out.exists()

    def test_the_check_comes_before_the_file_is_read(self, tmp_path, capsys):
        # a missing JSON file would exit 1
        assert main(["eval", "--input", str(tmp_path / "none.json"), "--lenient"]) == 2
        assert "--lenient" in capsys.readouterr().err


class TestBadNumericParameters:
    """Each out-of-range numeric option exits 2 with one typed error line."""

    NARROW = "group,component,score\nA,q,1\nA,q,2\nB,q,3\nB,q,5\n"
    WIDE = "group,component,score\nA,q,0\nA,q,1\nB,q,2\nB,q,1e12\n"
    # floats 2 apart: 256 density points within 4 + 6 bandwidths coincide
    NEAR_1E16 = "group,component,score\nA,q,1e16\nA,q,1.0000000000000004e16\nB,q,1e16\n"
    # the last bin edge, a bin width above the pooled maximum, would overflow
    FLOAT_MAX = ("group,component,score\nA,q,1.7976931348623157e308\n"
                 "B,q,1.7976931348623157e308\nB,q,1.7976931348623155e308\n")

    @pytest.mark.parametrize("argv, data", [
        (["eval", "--threshold-step", "nan"], NARROW),
        (["eval", "--threshold-step", "inf"], NARROW),
        (["eval", "--threshold-step", "nan", "--thresholds", "observed"], NARROW),
        (["plotdata", "--bin-width", "nan"], NARROW),
        (["plotdata", "--bin-width", "inf"], NARROW),
        (["plotdata", "--bandwidth", "nan"], NARROW),
        (["plotdata", "--bandwidth", "inf"], NARROW),
        (["plotdata", "--grid-points", "2000000000"], NARROW),
        (["plotdata"], WIDE),
        (["eval"], WIDE),
        (["plotdata", "--bandwidth", "1e-320"], NARROW),
        (["plotdata", "--bandwidth", "1e308"], NARROW),
        (["plotdata", "--bin-width", "4", "--bandwidth", "1"], NEAR_1E16),
        (["plotdata", "--bin-width", "1e300", "--format", "json"], FLOAT_MAX),
        (["eval", "--measures", "mean-gc-sqfr", "--threshold-step", "nan"], NARROW),
        # rejected before the input is read: no file exists
        (["eval", "--threshold-step", "-1"], None),
        (["eval", "--threshold-step", "nan", "--thresholds", "observed"], None),
        (["plotdata", "--bin-width", "-1"], None),
        (["plotdata", "--grid-points", "1"], None),
        (["plotdata", "--bandwidth", "1e-320"], None),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv, data):
        path = tmp_path / "d.csv"
        if data is not None:
            path.write_text(data)
        assert main(argv + ["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[-1].startswith("error: ")
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["--precision", "-1"],
        ["--precision", "2147483648"],
    ])
    def test_bad_precision_exits_2(self, tmp_path, capsys, argv):
        # rejected before the input is read: no file exists
        missing = tmp_path / "none.csv"
        assert main(["eval", "--input", str(missing), "--format", "csv"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "precision" in captured.err.lower()


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

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("name: not json")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: invalid JSON")
        assert not out.exists()

    def test_spec_not_utf8_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"name": "x\xff"}')
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {spec}: invalid UTF-8 at byte 11"]
        assert not out.exists()

    def test_spec_with_a_repeated_key_exits_2(self, tmp_path, capsys):
        # json.load alone would keep the last seed and run with it
        spec = tmp_path / "spec.json"
        group = {"label": "A", "distribution": "constant", "parameters": {"value": 1},
                 "sample_count": 5}
        spec.write_text(
            '{"name": "x", "seed": 1, "seed": 2, "groups": [%s, %s]}'
            % (json.dumps(group), json.dumps({**group, "label": "B"}))
        )
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {spec}: $: duplicate key 'seed'"]
        assert not out.exists()

    def test_spec_integer_of_too_many_digits_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"name": "x", "seed": %s, "groups": []}' % ("1" * 5000))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {spec}: seed: invalid JSON: integer of over 4300 digits"]
        assert not out.exists()

    def test_mistyped_spec_field_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "x", "seed": 1,
            "groups": [{"label": "A", "distribution": "normal",
                        "parameters": {"mean": 50, "stddev": "x"}, "sample_count": 5}],
        }))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: scenario 'x', group 'A': parameter 'stddev' must be a finite number, got 'x'"
        ]
        assert not out.exists()

    def test_spec_over_the_total_sample_bound_exits_2(self, tmp_path, capsys):
        # six groups of 10**7 samples each: every group is within its bound
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "x", "seed": 1,
            "groups": [{"label": f"g{i}", "distribution": "constant", "parameters": {"value": 1},
                        "sample_count": 10**7} for i in range(6)],
        }))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: scenario 'x': sample_count sums to 60000000 over its groups;"
            " at most 50000000 in all"
        ]
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_summary_of_scores_near_the_float_maximum_is_finite(self, tmp_path, capsys):
        # sums of these scores overflow; numpy would print inf and warn
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "huge", "seed": 1, "clamp_range": [0, 1.7e308],
            "groups": [
                {"label": "A", "distribution": "constant", "parameters": {"value": 1.6e308},
                 "sample_count": 4},
                {"label": "B", "distribution": "normal",
                 "parameters": {"mean": 1.6e308, "stddev": 0}, "sample_count": 2},
                {"label": "C", "distribution": "mixture_of_normals",
                 "parameters": {"means": [1.6e308, 1.0], "stddevs": [0, 0],
                                "weights": [0.5, 0.5]}, "sample_count": 8},
            ],
        }))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
        summary = summary_texts(capsys.readouterr().out)
        c = np.array([float(line.split(",")[2]) for line in out.read_text().splitlines()
                      if line.startswith("huge,C,")])
        assert 0 < np.count_nonzero(c == 1.0) < c.size  # both modes drawn
        big = f"{1.6e308:.3f}"
        assert (summary["A"], summary["B"]) == (("4", big, big), ("2", big, big))
        assert summary == eval_group_texts(out, capsys)

    MIX = {"means": [60, 85], "stddevs": [4, 2], "weights": [0.5, 0.5]}

    @pytest.mark.parametrize("doc", [
        # odd and even counts, unquantized, so an even count's median, the
        # mean of its two middle values, is neither of them
        {"name": "s", "seed": 4, "quantize": False, "groups": [
            {"label": "odd", "distribution": "normal",
             "parameters": {"mean": 70, "stddev": 5}, "sample_count": 1001},
            {"label": "even", "distribution": "normal",
             "parameters": {"mean": 70, "stddev": 5}, "sample_count": 1000},
            {"label": "mixodd", "distribution": "mixture_of_normals",
             "parameters": MIX, "sample_count": 999},
            {"label": "mixeven", "distribution": "mixture_of_normals",
             "parameters": MIX, "sample_count": 998},
            {"label": "two", "distribution": "normal",
             "parameters": {"mean": 70, "stddev": 5}, "sample_count": 2},
        ]},
        # the rounded mean of three equal scores falls below them
        {"name": "c", "seed": 1, "clamp_range": [0, 1e18], "groups": [
            {"label": "A", "distribution": "constant",
             "parameters": {"value": 5.664746493386899e17}, "sample_count": 3},
            {"label": "B", "distribution": "constant", "parameters": {"value": 1},
             "sample_count": 3},
        ]},
        # a zero draws as -0 or 0 by its normal's sign; simulate writes
        # each as 0, and eval would read a -0 as 0 too
        {"name": "z", "seed": 2, "groups": [
            {"label": "A", "distribution": "normal",
             "parameters": {"mean": -0.0, "stddev": 0}, "sample_count": 7},
            {"label": "B", "distribution": "constant", "parameters": {"value": 1},
             "sample_count": 3},
        ]},
    ], ids=["unquantized", "constant-mean-rounds-out", "signed-zeros"])
    def test_summary_gives_evals_mean_and_median(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        for ext in ("csv", "json"):
            out = tmp_path / f"s.{ext}"
            assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
            summary = summary_texts(capsys.readouterr().out)
            assert summary == eval_group_texts(out, capsys), ext

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--scenario", "q1", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: scenario 'q1': seed must be a non-negative integer, got -1"]
        assert not out.exists()

    def test_simulate_holds_about_one_group(self, tmp_path, capsys):
        # four groups of 2e5 samples, two of them mixtures: each is drawn,
        # written and summarized before the next is drawn
        mix = {"means": [45, 75], "stddevs": [5, 10], "weights": [0.3, 0.7]}
        counts = {"A": 200_000, "B": 200_001, "C": 199_999, "D": 200_000}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "mem", "seed": 9, "groups": [
            {"label": label, "sample_count": n, **(
                {"distribution": "mixture_of_normals", "parameters": mix} if label in "BD"
                else {"distribution": "normal", "parameters": {"mean": 70, "stddev": 6}})}
            for label, n in counts.items()]}))
        assert main(["simulate", "--scenario", "q3", "--out", str(tmp_path / "warm.csv")]) == 0
        for ext in ("csv", "json"):
            tracemalloc.start()  # after a first run, so one-time set-up is not counted
            try:
                out = tmp_path / f"m.{ext}"
                assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the allowance covers one write block of quantized scores and its texts
            assert peak < 2 * 8 * max(counts.values()) + 4 * 2**20, ext
        capsys.readouterr()

    def test_simulate_lets_each_group_go_before_the_next_is_drawn(self, tmp_path, capsys,
                                                                   monkeypatch):
        # the writer and the summary keep no reference, not even a view, to a
        # written group: its buffer is freed when the next group is drawn
        buffers = []

        def draw(*args):
            assert [buf() for buf in buffers] == [None] * len(buffers)
            samples = draw_group(*args)
            owner = samples
            while owner.base is not None:
                owner = owner.base
            buffers.append(weakref.ref(owner))
            return samples

        draw_group = sqfr.scenarios._draw_group
        monkeypatch.setattr(sqfr.scenarios, "_draw_group", draw)
        saved = []  # the files written through the library writer
        save = sqfr.dataset.save
        monkeypatch.setattr(sqfr.dataset, "save",
                            lambda data, path: saved.append(path) or save(data, path))
        for name in ("q1", "q3", "all-equal"):
            for ext in ("csv", "json"):
                buffers.clear()
                out = tmp_path / f"x.{ext}"
                assert main(["simulate", "--scenario", name, "--out", str(out)]) == 0
                assert len(buffers) == len(sqfr.builtin_scenarios()[name].groups)
                assert buffers[-1]() is None
                assert saved.pop() == str(out)
        capsys.readouterr()

    def test_json_output_format(self, tmp_path, capsys):
        data = tmp_path / "q5.json"
        assert main(["simulate", "--scenario", "q5", "--out", str(data)]) == 0
        doc = json.loads(data.read_text())
        assert set(doc["components"]["q5"]) == {"A", "B", "C"}

    @pytest.mark.parametrize("name, label, err", [
        ("x", 'say "hi"', """error: group label 'say "hi"' contains quote"""),
        ("x", "two\nlines", r"error: group label 'two\nlines' contains quote"),
        ("x", "cr\r", r"error: group label 'cr\r' contains quote"),
        ('the "x"', "A", """error: scenario name 'the "x"' contains quote"""),
        ("x\r\ny", "A", r"error: scenario name 'x\r\ny' contains quote"),
    ])
    def test_csv_cannot_hold_a_label_that_load_csv_rejects(self, tmp_path, capsys, name, label, err):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": name, "seed": 1, "groups": [
            {"label": label, "distribution": "constant", "parameters": {"value": 1},
             "sample_count": 3},
            {"label": "B", "distribution": "constant", "parameters": {"value": 2},
             "sample_count": 3},
        ]}))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(err)
        assert not out.exists()
        # JSON escapes them, so the same spec round-trips through eval
        data = tmp_path / "x.json"
        assert main(["simulate", "--spec", str(spec), "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--input", str(data), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["component"] for c in doc["components"]] == [name]
        assert {g["label"] for g in doc["components"][0]["groups"]} == {label, "B"}


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
        save(GroupedScores("q", {"A": [5.0, 5.0], "B": [1.0, 9.0]}), path)
        assert main(["plotdata", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert "density omitted" in captured.err
        doc = json.loads(captured.out)
        groups = {g["label"]: g for g in doc["components"][0]["groups"]}
        assert groups["A"]["density"] is None and groups["B"]["density"] is not None

    def test_a_bin_width_below_the_float_spacing_exits_2(self, tmp_path, capsys):
        # at 1e16 floats are 2 apart: unit-width edges would round onto each
        # other and give bins of zero width, the CSV's mark of a density point
        path = tmp_path / "d.csv"
        path.write_text("component,group,score\nq,A,1e16\nq,A,1.0000000000000004e16\n"
                        "q,B,1e16\nq,B,1.0000000000000002e16\n")
        out = tmp_path / "p.csv"
        assert main(["plotdata", "--input", str(path), "--format", "csv",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith("error: bin width 1 is finer than the float spacing")
        assert main(["plotdata", "--input", str(path), "--format", "csv", "--bin-width", "4",
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        bins = [(float(x0), float(x1), int(n)) for _, g, series, x0, x1, n in rows
                if series == "histogram"]
        assert all(x0 < x1 for x0, x1, _ in bins)
        assert sum(n for *_, n in bins) == 4


class TestImports:
    """A fresh process running a command imports no numpy.ma: numpy's
    quantile, and a unique that asks for no counts, index or inverse,
    import it on their first call, and masked arrays cost about 1.2 MB of
    RSS that nothing uses."""

    # the first value tells whether numpy imported numpy.ma itself, as numpy 1.x does
    CHILD = ("import sys, numpy; eager = 'numpy.ma' in sys.modules; from sqfr.cli import main;"
             " code = main(sys.argv[1:]); print(eager, 'numpy.ma' in sys.modules, code)")

    @pytest.mark.parametrize("command", ["plotdata-csv", "plotdata-json", "simulate",
                                         "eval-sequence", "eval-observed"])
    def test_numpy_ma_stays_unimported(self, tmp_path, command):
        name, _, option = command.partition("-")
        argv = ["simulate", "--scenario", "q1", "--out", str(tmp_path / "s.csv")]
        if name != "simulate":
            path = tmp_path / ("d.json" if option == "json" else "d.csv")
            save(GroupedScores("q", {"A": np.arange(60.0) % 7, "B": np.arange(40.0) / 3}), path)
            argv = [name, "--input", str(path), "--out", str(tmp_path / "out.json")]
            if name == "eval":
                argv += ["--thresholds", option]
        child = subprocess.run([sys.executable, "-c", self.CHILD, *argv], env=child_env(),
                               capture_output=True, text=True, check=True)
        eager, imported, code = child.stdout.splitlines()[-1].split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.ma with numpy")
        assert (imported, code) == ("False", "0")


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

    def test_input_is_named_as_the_loader_resolved_it(self, tmp_path, monkeypatch, capsys):
        # eval and plotdata both report the path as loaded, not as typed
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", "q1", "--out", "q1.csv"]) == 0
        for command in ("eval", "plotdata"):
            outs = []
            for name in ("./q1.csv", "q1.csv"):
                capsys.readouterr()
                assert main([command, "--input", name]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], command
            assert json.loads(outs[0])["metadata"]["input"] == "q1.csv", command

    def test_eval_reads_no_environment_variable(self, q2_csv, tmp_path):
        # a report depends only on its input and its flags
        outs = {}
        for fmt in ("json", "csv"):
            for env in ({}, {"SQFR_PRECISION": "1"}):
                out = tmp_path / f"r-{fmt}-{len(env)}"
                subprocess.run(
                    [sys.executable, "-m", "sqfr.cli", "eval", "--input", str(q2_csv),
                     "--format", fmt, "--out", str(out)],
                    env=child_env(**env),
                    check=True,
                )
                outs[fmt, len(env)] = out.read_bytes()
            assert outs[fmt, 0] == outs[fmt, 1], fmt
        assert b",0.9," not in outs["csv", 0]
        assert json.loads(outs["json", 0])["metadata"]["precision"] == 3

    def test_simulate_writes_json_for_a_json_suffix_in_any_case(self, tmp_path, capsys):
        # the writer picks its format by the rule the loader reads by
        (tmp_path / "upper").mkdir()
        upper, lower = tmp_path / "upper" / "Q1.JSON", tmp_path / "q1.json"
        reports = []
        for data in (upper, lower):
            assert main(["simulate", "--scenario", "q1", "--out", str(data)]) == 0
            capsys.readouterr()
            assert main(["eval", "--input", str(data), "--format", "csv"]) == 0
            reports.append(capsys.readouterr().out)
        assert upper.read_bytes() == lower.read_bytes()
        assert list(json.loads(upper.read_bytes())["components"]) == ["q1"]
        assert reports[0] == reports[1]


#: sha256 of each CLI output for the builtin scenarios: refactors must keep
#: every byte. Every eval reads ``<scenario>.csv`` from the working
#: directory, so the input path in the report metadata is the same on every
#: machine.
GOLDEN_DIGESTS = {
    "all-equal": {
        "simulate.csv": "43cdfb5b872608dc902ec569ec08a624f4d96ecaf7301b94952c941b958d8801",
        "simulate.json": "ba981b732c08e52dc8cc0a5f73ac64ab0711cf7425a9c2a23984435fe8e4a827",
        "eval.json.sequence": "166145be805384c6e377849b02f1d7004420f947dfb01ed5071850a6d3c8ee26",
        "eval.json.observed": "6aad29791bb5ccf31af5eb0705ee812d9f75c10adcc04e3e85338a8497073783",
        "eval.csv.sequence": "8c6c207a083cabe39711fca5486c60514e740ea67b0939c9f3d655c4d208a9ac",
        "eval.csv.observed": "8c6c207a083cabe39711fca5486c60514e740ea67b0939c9f3d655c4d208a9ac",
        "eval.markdown.sequence": "180100aacb17a3bee5b0ce392b82b3f0941a90a0cd64390426df5797852025fd",
        "eval.markdown.observed": "7b66465269077adff47e937886fe1182e683959927201ae7600c5212243fbe71",
        "plotdata": "9978d0b319c2b930c863cd19c87ef876e60edade0ce6f636baeaad271e025b9a",
        "stderr": "a14cd470e60264c94855fe67bb5a4ed441b7f8a7c2d04472e3b79e97f14be70e",
    },
    "q1": {
        "simulate.csv": "5d33e8836ecc23f108380c7e52394381b51c8099f09cec24e1629acd09ee5c34",
        "simulate.json": "f2966b222a74821383a27fedd66a63aeb11e7258d47974bb789323f656d81b7f",
        "eval.json.sequence": "e79691f30053b9bb11a495b656f875791fb8d16df11cb85c0723aa3d5c10a6c2",
        "eval.json.observed": "d8177b63dc0b35fe010cd4154fb60b7c8259d4378b542a02255ba83ffa0532ae",
        "eval.csv.sequence": "39dfcaadbb5928e3783a2b04290cf602074f9b96d36cc81892660fbd56dfb667",
        "eval.csv.observed": "39dfcaadbb5928e3783a2b04290cf602074f9b96d36cc81892660fbd56dfb667",
        "eval.markdown.sequence": "72803e57cb65c17a109e0c2f8f8b72905d6de6bcdfba28924f53e101d9c7ebbc",
        "eval.markdown.observed": "92cf6c96e97fe426c186c5eff9c21371a5978cb3853fd3a3ee9aa86334036a1a",
        "plotdata": "baf6dc1eddd4a78c5b74b4707f363ab22376dc380a23acd807795a5036a2b460",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "q2": {
        "simulate.csv": "8e54e08e84361570195c3c28cf8ee1b8b1a24c593be5fb8ce5ed08942aba84d5",
        "simulate.json": "2571b740e5c6b2ba194dcc71fbf037eb4f2ebff3a7397255b6251a3ae53522c9",
        "eval.json.sequence": "0ef99fa6ec93bdf26ce99275a13b9fc700471bf8ac8a3548513b1558a57d5024",
        "eval.json.observed": "f6fd5d147a364a638bac8394c6ae67823173c9659a2cf2e7ed8282e7d8f1ff99",
        "eval.csv.sequence": "2b1e9d2963a3971db42fef7aea997172242c62f532c8d460c7bbc1fa13d72e94",
        "eval.csv.observed": "2b1e9d2963a3971db42fef7aea997172242c62f532c8d460c7bbc1fa13d72e94",
        "eval.markdown.sequence": "04a688088ec0a9c02ac50141305b19f21ff10a0de79778f996cb08c713ac89c4",
        "eval.markdown.observed": "ccca34b047905c00633c42c7d64d2c51b7833fbb25c70465a0facb3d99eae4f9",
        "plotdata": "33ed43ac75299f318f85b39f237ae83e0f27de227d0d7c2e0cfa6e71cd1eade8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "q3": {
        "simulate.csv": "0fe640ee1e197553c5c2dc9dde5c0479366524147776996c0cd71a8aa0fee8fa",
        "simulate.json": "dbf08f00602ab2b937073b7a9fc9643978e0a6d25905075a8d84c75462b94768",
        "eval.json.sequence": "285617d1ff5a0f7d4eabb575bab7dfc814b73bfd3e0cb517256e30ef2755a9a0",
        "eval.json.observed": "ae0e0bee9a071580389297985d962ca450b906a7aeab8a6ba03ead210e040685",
        "eval.csv.sequence": "fd676e36e831a7b8493c3d1dfb72b2273faf9159b5937807a32375fcd795958b",
        "eval.csv.observed": "fd676e36e831a7b8493c3d1dfb72b2273faf9159b5937807a32375fcd795958b",
        "eval.markdown.sequence": "7c5faa5e95a6bb63f9799c356450119ac5d2c451fab98922e4fef241a1954793",
        "eval.markdown.observed": "4f16d5af894398445e67e721e2a27d687a06dc8be25c3b00f161029356dad356",
        "plotdata": "28b0e42cf2e22b0f122478dad00379737ffbbabb9cabf56963fa50a8ddc65c3b",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "q5": {
        "simulate.csv": "fd51f7df0a76bdaca5ad325050db5d0b5a551c3d83a8aa26ce34e8429e070db4",
        "simulate.json": "ae45b9a480dc8fa4597c849e98b2f8bda9f6e63c409e184e43d06935525e86ad",
        "eval.json.sequence": "d238b6db619b33afaa25960f9fd87d399a5c7f52b60a197fc8ba32a3398cda06",
        "eval.json.observed": "11bd24d055120e76711985a03d9696db3e26f327b5dc12a527055fb9c5a6cc9b",
        "eval.csv.sequence": "861dfcc0a1f7985b74bd52dd380514e98c9280e1cf8a719149ed820eb40c10e0",
        "eval.csv.observed": "861dfcc0a1f7985b74bd52dd380514e98c9280e1cf8a719149ed820eb40c10e0",
        "eval.markdown.sequence": "46fb0ae9638a423c50f2595833c6edfb6e248658a25f83701e8fe2649d062b5a",
        "eval.markdown.observed": "8c3aef736bd7c80eca63b4fcc398225c52a0d7caa254115a87125f76aaaae55b",
        "plotdata": "54f2243849747907794e0348ef0d2f293538ee29465bfe0fc02bd54bf667805b",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


#: sha256 of ``sqfr plotdata --format csv`` on each builtin scenario's
#: ``<scenario>.csv``, and of ``sqfr fixtures`` in each format.
PLOTDATA_CSV_DIGESTS = {
    "all-equal": "1af6c6fc134d31ab884da52b4d4c05b493e4923167fdac739684d3cf6205fd99",
    "q1": "de42208bed3846b7555f64d7326eb718a2628ea29b89a6c0a425c54a5d0c0ae5",
    "q2": "41d0755d46899fb2b3e30c038feb668fb3a164ce71652b3d73cdf682d9847183",
    "q3": "56f631472d59e94cd8e8eb76d415c3407f530ba762cf8450e84e0143c70887c6",
    "q5": "b7422316bee54822819312c807a088faa0570a5bce88318abc18d9fe09754c9e",
}
FIXTURES_DIGESTS = {
    "json": "923d16efd16ed1cc0631c0d0a046557e4821fb2345c8fec7eddc8fafb332324a",
    "csv": "0db2fc560d2ec389e1c8f8d2bcdc902065a473209ec280cdfd1a024f0f4d789d",
    "markdown": "fd2f2038fb61314c1c5d09abe1ceeddbf4b2023084b2977f7e0a2aee34b8562b",
}

def cli_output_digests(name, capsys):
    """Output name -> sha256 for one builtin scenario simulated and evaluated.

    ``stderr`` is the digest of the diagnostics of every eval and plotdata
    run, in run order.
    """
    digests = {}
    for fmt in ("csv", "json"):
        assert main(["simulate", "--scenario", name, "--out", f"{name}.{fmt}"]) == 0
        with open(f"{name}.{fmt}", "rb") as fh:
            digests[f"simulate.{fmt}"] = hashlib.sha256(fh.read()).hexdigest()
    capsys.readouterr()
    runs = {
        f"eval.{fmt}.{mode}": ["eval", "--format", fmt, "--thresholds", mode,
                               "--precision", "17"]
        for fmt in ("json", "csv", "markdown")
        for mode in ("sequence", "observed")
    }
    runs["plotdata"] = ["plotdata"]
    stderr = []
    for key, argv in runs.items():
        assert main(argv + ["--input", f"{name}.csv"]) == 0
        captured = capsys.readouterr()
        digests[key] = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        stderr.append(captured.err)
    digests["stderr"] = hashlib.sha256("".join(stderr).encode("utf-8")).hexdigest()
    return digests


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(sqfr.builtin_scenarios()))
    def test_outputs_match_recorded_digests(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_output_digests(name, capsys) == GOLDEN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(sqfr.builtin_scenarios()))
    def test_plotdata_csv_matches_recorded_digest(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", name, "--out", f"{name}.csv"]) == 0
        capsys.readouterr()
        assert main(["plotdata", "--format", "csv", "--input", f"{name}.csv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PLOTDATA_CSV_DIGESTS[name]

    @pytest.mark.parametrize("fmt", sorted(FIXTURES_DIGESTS))
    def test_fixtures_match_recorded_digest(self, fmt, capsys):
        assert main(["fixtures", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == FIXTURES_DIGESTS[fmt]
