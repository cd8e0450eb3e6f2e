"""Loading, validation and round-trip behavior of the dataset formats."""

import csv
import re

import numpy as np
import pytest

from sqfr import (
    ConfigError,
    Dataset,
    GroupedScores,
    ParseError,
    ValidationError,
    load_csv,
    load_json,
    save_csv,
    save_json,
    validate,
)
from sqfr.dataset import dumps_csv, dumps_json
from sqfr.report import build_report, to_json


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASIC_CSV = (
    "group,component,score\n"
    "A,q1,10\nB,q1,20\n"
    "A,q2,30\nB,q2,40\n"
    "A,q1,12\nB,q2,44\n"
)


class TestLoadCsv:
    def test_six_rows_two_components(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", BASIC_CSV))
        assert sorted(ds.components) == ["q1", "q2"]
        assert ds.components["q1"].groups["A"].tolist() == [10, 12]
        assert ds.provenance.row_count == 6
        assert ds.total_scores() == 6

    def test_unparsable_score_strict_cites_row(self, tmp_path):
        bad = "group,component,score\nA,q,1\nB,q,2\nA,q,abc\n"
        with pytest.raises(ParseError, match="row 4"):
            load_csv(write(tmp_path / "d.csv", bad))

    def test_lenient_skips_and_records(self, tmp_path):
        bad = "group,component,score\nA,q,1\nB,q,2\nA,q,abc\nB,q,-3\n"
        ds = load_csv(write(tmp_path / "d.csv", bad), strict=False)
        assert ds.total_scores() == 2
        assert ds.provenance.row_count == 4
        locations = [d.location for d in ds.provenance.warnings]
        assert locations == ["row 4", "row 5"]
        # counts reconcile: every row is either in a bucket or a diagnostic
        assert ds.total_scores() + len(ds.provenance.warnings) == ds.provenance.row_count

    def test_missing_column_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="'score'"):
            load_csv(write(tmp_path / "d.csv", "group,component,points\nA,q,1\n"))

    def test_column_remapping(self, tmp_path):
        text = "who,what,points\nA,q,1\nB,q,2\n"
        ds = load_csv(
            write(tmp_path / "d.csv", text),
            group_col="who",
            component_col="what",
            score_col="points",
        )
        assert ds.components["q"].groups["B"].tolist() == [2]

    def test_single_group_component_rejected(self, tmp_path):
        text = "group,component,score\nA,q,1\nA,q,2\n"
        with pytest.raises(ValidationError, match="component 'q'.*n >= 2 required"):
            load_csv(write(tmp_path / "d.csv", text))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_csv(write(tmp_path / "d.csv", ""))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no score records"):
            load_csv(write(tmp_path / "d.csv", "group,component,score\n"))

    def test_quoted_labels_roundtrip(self, tmp_path):
        text = 'group,component,score\n"young, urban",q,1\nother,q,2\n'
        ds = load_csv(write(tmp_path / "d.csv", text))
        assert "young, urban" in ds.components["q"].groups

    def test_missing_field_cites_row(self, tmp_path):
        text = "group,component,score\nA,q,1\nB,q\n"
        with pytest.raises(ParseError, match="row 3"):
            load_csv(write(tmp_path / "d.csv", text))

    def test_nonfinite_score_rejected(self, tmp_path):
        text = "group,component,score\nA,q,1\nB,q,inf\n"
        with pytest.raises(ParseError, match="not finite"):
            load_csv(write(tmp_path / "d.csv", text))

    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC_CSV.encode())
        assert sorted(load_csv(path).components) == ["q1", "q2"]

    def test_sample_id_column_listed_but_unused_for_grouping(self, tmp_path):
        text = "group,component,score,sample_id\nA,q,1,s1\nB,q,2,s2\nA,q,3,\n"
        ds = load_csv(write(tmp_path / "d.csv", text))
        assert ds.components["q"].groups["A"].tolist() == [1, 3]

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("rows", [b"A,q,1\nB,q,2\n" * 5000, b"".join(
        b"A,q,%d.5\nB,q,%d.25\n" % (k, k) for k in range(5000))], ids=["repeated", "distinct"])
    def test_invalid_utf8_cites_row_and_byte(self, tmp_path, rows, strict):
        path = tmp_path / "d.csv"
        path.write_bytes(b"group,component,score\r\n" + rows + b"A,q,\xff\n" + rows)
        offset = 23 + len(rows) + 4
        with pytest.raises(ParseError, match=rf": row 10002: invalid UTF-8 at byte {offset}$"):
            load_csv(path, strict=strict)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("rows", [b"A,q,1\nB,q,2\n" * 5000, b"".join(
        b"A,q,%d.5\nB,q,%d.25\n" % (k, k) for k in range(5000))], ids=["repeated", "distinct"])
    def test_field_over_the_size_limit_cites_row(self, tmp_path, rows, strict):
        path = tmp_path / "d.csv"
        path.write_bytes(b"group,component,score\n" + rows + b"A,q,1" + b"0" * 200_000 + b"\n")
        limit = csv.field_size_limit()
        with pytest.raises(ParseError, match=rf": row 10002: malformed CSV: field larger than"
                                             rf" field limit \({limit}\)$"):
            load_csv(path, strict=strict)

    def test_repeated_column_name_is_config_error(self, tmp_path):
        # csv.DictReader would read the last 'group' column: X and Y, not A and B
        text = "group,component,score,group\nA,s,1,X\nB,s,2,Y\n"
        with pytest.raises(ConfigError, match="'group' appear more than once"):
            load_csv(write(tmp_path / "d.csv", text))


class TestLoadJson:
    def test_minimal_document(self, tmp_path):
        path = write(tmp_path / "d.json", '{"components":{"q":{"A":[1,2],"B":[3]}}}')
        ds = load_json(path)
        assert list(ds.components) == ["q"]
        assert ds.components["q"].groups["A"].tolist() == [1, 2]

    def test_empty_components_rejected(self, tmp_path):
        path = write(tmp_path / "d.json", '{"components":{}}')
        with pytest.raises(ValidationError, match="no score records"):
            load_json(path)

    def test_bad_value_cites_json_path(self, tmp_path):
        path = write(tmp_path / "d.json", '{"components":{"q":{"A":[1,2,"x"],"B":[3]}}}')
        with pytest.raises(ParseError, match=r"components\.q\.A\[2\]"):
            load_json(path)

    def test_negative_cites_json_path(self, tmp_path):
        path = write(tmp_path / "d.json", '{"components":{"q":{"A":[1],"B":[-3]}}}')
        with pytest.raises(ParseError, match=r"components\.q\.B\[0\]"):
            load_json(path)

    def test_invalid_json_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_json(write(tmp_path / "d.json", "{nope"))

    def test_wrong_shapes_rejected(self, tmp_path):
        for doc in ("[1]", "{}", '{"components": 3}', '{"components":{"q": []}}'):
            with pytest.raises(ParseError):
                load_json(write(tmp_path / "d.json", doc))

    @pytest.mark.parametrize(
        "doc, where, key",
        [
            ('{"components":{"s":{"A":[1],"B":[2]}},"components":{}}', "$", "components"),
            ('{"components":{"s":{"A":[1],"B":[2]},"s":{"A":[3],"B":[4]}}}', "components", "s"),
            ('{"components":{"s":{"A":[1,2],"B":[5,6],"A":[50,60]}}}', "components.s", "A"),
            ('{"components":{"q":{"A":[{"x":1,"x":2}],"B":[1]}}}', "components.q.A[0]", "x"),
        ],
        ids=["top", "components", "groups", "array-element"],
    )
    def test_duplicate_key_cites_json_path(self, tmp_path, doc, where, key):
        with pytest.raises(ParseError, match=rf"d\.json: {re.escape(where)}: duplicate key '{key}'"):
            load_json(write(tmp_path / "d.json", doc))

    def test_invalid_utf8_cites_byte(self, tmp_path):
        path = tmp_path / "d.json"
        data = b'{"components": {"q": {"A": [1], "B": [2]}}}\n\xe9'
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf": invalid UTF-8 at byte {data.index(0xe9)}$"):
            load_json(path)

    def test_integer_beyond_float_range_is_not_finite(self, tmp_path):
        doc = '{"components": {"q": {"A": [1, 2], "B": [1%s]}}}' % ("0" * 400)
        with pytest.raises(ParseError, match=r"components\.q\.B\[0\]: score is not finite$"):
            load_json(write(tmp_path / "d.json", doc))

    def test_empty_group_list_rejected(self, tmp_path):
        path = write(tmp_path / "d.json", '{"components":{"q":{"A":[],"B":[1]}}}')
        with pytest.raises(ValidationError, match="group 'A' has no scores"):
            load_json(path)

    def test_every_problem_of_every_component_in_one_message(self, tmp_path):
        doc = '{"components":{"r":{"A":[1]},"q":{"A":[],"B":[1],"C":[]}}}'
        with pytest.raises(ValidationError) as info:
            load_json(write(tmp_path / "d.json", doc))
        assert str(info.value) == (
            "component 'q': group 'A' has no scores; component 'q': group 'C' has no scores;"
            " component 'r': fairness needs at least 2 demographic groups (n >= 2 required, got 1)"
        )


class TestRoundTrip:
    def test_csv_roundtrip(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", BASIC_CSV))
        save_csv(ds, tmp_path / "out.csv")
        assert load_csv(tmp_path / "out.csv").components == ds.components

    def test_json_roundtrip(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", BASIC_CSV))
        save_json(ds, tmp_path / "out.json")
        assert load_json(tmp_path / "out.json").components == ds.components

    def test_saved_files_hold_the_dumped_text(self, tmp_path):
        # larger than one write slice, with a non-ASCII label
        gs = GroupedScores("q", {"Å": np.linspace(0, 100, 150_001), "B": [1.0]})
        save_csv(gs, tmp_path / "out.csv")
        save_json(gs, tmp_path / "out.json")
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == dumps_csv(gs)
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == dumps_json(gs)

    def test_fractional_scores_roundtrip_exactly(self, tmp_path):
        gs = GroupedScores("q", {"A": [0.1, 1 / 3], "B": [99.999999]})
        save_csv(gs, tmp_path / "out.csv")
        back = load_csv(tmp_path / "out.csv")
        assert np.array_equal(back.components["q"].groups["A"], np.sort([0.1, 1 / 3]))

    def test_cross_format_reports_identical(self, tmp_path):
        csv_ds = load_csv(write(tmp_path / "d.csv", BASIC_CSV))
        save_json(csv_ds, tmp_path / "d.json")
        json_ds = load_json(tmp_path / "d.json")
        a = to_json(build_report(csv_ds, input_path="x"))
        b = to_json(build_report(json_ds, input_path="x"))
        assert a == b

    def test_row_order_does_not_matter(self, tmp_path):
        lines = BASIC_CSV.strip().split("\n")
        shuffled = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
        a = load_csv(write(tmp_path / "a.csv", BASIC_CSV))
        b = load_csv(write(tmp_path / "b.csv", shuffled))
        assert a.components == b.components
        assert to_json(build_report(a, input_path="x")) == to_json(build_report(b, input_path="x"))

    def test_loaded_arrays_are_frozen(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", BASIC_CSV))
        with pytest.raises(ValueError):
            ds.components["q1"].groups["A"][0] = 99.0


class TestValidate:
    def test_clean_dataset_no_diagnostics(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", BASIC_CSV))
        assert validate(ds) == []

    def test_single_group_error_diagnostic(self):
        ds = Dataset({"q": GroupedScores("q", {"A": [1.0, 2.0]})})
        diags = validate(ds)
        assert [d.severity for d in diags] == ["error"]
        assert "n >= 2 required" in diags[0].message

    def test_each_problem_is_one_error_in_check_order(self):
        bad = GroupedScores("q", {"A": [1.0, float("nan")], "B": []})
        ds = Dataset({"q": bad, "r": GroupedScores("r", {"A": [5.0], "B": [5.0]})})
        diags = validate(ds)
        assert [(d.severity, d.message) for d in diags[:2]] == [
            ("error", "component 'q': group 'A' contains non-finite scores"),
            ("error", "component 'q': group 'B' has no scores"),
        ]
        assert [d.severity for d in diags[2:]] == ["warning"]  # r is still checked

    def test_unbalanced_groups_warning(self):
        ds = Dataset(
            {"q": GroupedScores("q", {"A": np.ones(1000), "B": np.full(50, 2.0)})}
        )
        diags = validate(ds)
        assert len(diags) == 1
        assert diags[0].severity == "warning"
        assert "20.0" in diags[0].message

    def test_single_valued_component_warning(self):
        ds = Dataset({"q": GroupedScores("q", {"A": [5.0], "B": [5.0]})})
        assert any("trivially 1" in d.message for d in validate(ds))

    def test_out_of_scale_warning(self):
        ds = Dataset({"q": GroupedScores("q", {"A": [50.0], "B": [150.0]})})
        assert any("[0, 100]" in d.message for d in validate(ds))

    def test_validate_never_mutates(self):
        gs = GroupedScores("q", {"A": [1.0], "B": [2.0]})
        ds = Dataset({"q": gs})
        validate(ds)
        assert ds.components["q"].groups["A"].tolist() == [1.0]
