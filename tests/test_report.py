"""Report assembly, serialization determinism and format equivalence."""

import csv
import io
import json

import pytest

from sqfr import ConfigError, Dataset, DomainError, GroupedScores, measures
from sqfr.report import (
    build_report,
    cli_measure_name,
    measure_key,
    parse_measure_list,
    render,
    to_csv,
    to_json,
    to_markdown,
)
from sqfr.types import ALL_MEASURES


@pytest.fixture
def dataset():
    return Dataset(
        {
            "q1": GroupedScores("q1", {"A": [10.0, 12.0], "B": [20.0, 22.0]}),
            "q2": GroupedScores("q2", {"A": [76.6], "B": [89.4], "C": [90.2]}),
        }
    )


class TestNames:
    def test_cli_spelling(self):
        assert cli_measure_name("mean_gc_sqfr") == "mean-gc-sqfr"
        assert measure_key("lwm-gc-csqfr") == "lwm_gc_csqfr"

    def test_unknown_measure(self):
        with pytest.raises(ConfigError, match="valid measures"):
            measure_key("mean-gc")

    def test_parse_list_keeps_canonical_order(self):
        assert parse_measure_list("mdg-sqfr,mean-gc-sqfr") == ("mean_gc_sqfr", "mdg_sqfr")
        assert parse_measure_list(None) is None
        with pytest.raises(ConfigError, match="empty"):
            parse_measure_list(",")


class TestBuild:
    def test_every_component_exactly_once(self, dataset):
        result = build_report(dataset)
        assert [c.component for c in result.components] == ["q1", "q2"]

    def test_all_scores_in_range(self, dataset):
        for c in build_report(dataset).components:
            assert set(c.measures) == set(ALL_MEASURES)
            assert all(0.0 <= v <= 1.0 for v in c.measures.values())

    def test_group_summary_fields(self, dataset):
        groups = {g.label: g for g in build_report(dataset).components[0].groups}
        assert groups["A"].count == 2
        assert groups["A"].mean == 11.0
        assert groups["A"].median == 11.0
        assert 10.0 <= groups["A"].lwm <= 12.0

    def test_selected_measures_only(self, dataset):
        result = build_report(dataset, selected=("mean_gc_sqfr", "mdg_sqfr"))
        assert list(result.components[0].measures) == ["mean_gc_sqfr", "mdg_sqfr"]
        assert result.metadata["measures"] == ["mean-gc-sqfr", "mdg-sqfr"]

    def test_repeated_and_reordered_selection_lists_each_measure_once(self, dataset):
        result = build_report(dataset, selected=["mdg_sqfr", "mean_gc_sqfr", "mdg_sqfr"])
        names = ["mean-gc-sqfr", "mdg-sqfr"]
        assert result.metadata["measures"] == names
        assert all(list(c.measures) == ["mean_gc_sqfr", "mdg_sqfr"] for c in result.components)
        doc = json.loads(to_json(result))
        assert doc["metadata"]["measures"] == names
        assert all(list(c["measures"]) == names for c in doc["components"])
        assert to_csv(result).splitlines()[0] == "component,mean-gc-sqfr,mdg-sqfr"
        cli_names = {cli_measure_name(k) for k in ALL_MEASURES}
        cells = [line.split(" | ")[0].removeprefix("| ") for line in to_markdown(result).splitlines()]
        assert [cell for cell in cells if cell in cli_names] == names * len(result.components)

    @pytest.mark.parametrize("key", ["mean_gc", "mean-gc-sqfr"])
    def test_unknown_key_raises_before_any_component(self, dataset, monkeypatch, key):
        calls = []
        original = measures.mean_aggregate
        monkeypatch.setattr(measures, "mean_aggregate",
                            lambda scores: calls.append(scores) or original(scores))
        with pytest.raises(DomainError, match="unknown measures"):
            build_report(dataset, selected=["mdg_sqfr", key])
        assert calls == []


    @pytest.mark.parametrize("kwargs, error, match", [
        ({"precision": -1}, ConfigError, "precision must be >= 0, got -1"),
        ({"precision": 2.0}, ConfigError, "precision must be an integer, got 2.0"),
        ({"precision": True}, ConfigError, "precision must be an integer, got True"),
        ({"threshold_step": "1"}, DomainError, "threshold step must be finite and positive, got '1'"),
        ({"threshold_step": True}, DomainError, "threshold step must be finite and positive, got True"),
        ({"threshold_step": float("nan"), "selected": ["mean_gc_sqfr"]}, DomainError,
         "threshold step must be finite and positive, got nan"),
        ({"thresholds_mode": "all"}, DomainError, "unknown thresholds mode 'all'"),
    ])
    def test_bad_parameter_raises_before_any_component(self, dataset, monkeypatch, kwargs,
                                                       error, match):
        monkeypatch.setattr(measures, "mean_aggregate", None)  # any evaluation fails untyped
        with pytest.raises(error, match=match):
            build_report(dataset, **kwargs)


class TestSerialization:
    def test_json_is_deterministic(self, dataset):
        a = to_json(build_report(dataset, input_path="d.csv"))
        b = to_json(build_report(dataset, input_path="d.csv"))
        assert a == b

    def test_json_carries_raw_doubles(self, dataset):
        doc = json.loads(to_json(build_report(dataset)))
        value = doc["components"][1]["measures"]["mean-gc-sqfr"]
        # oracle: 1 - 27.2 / (2 * 256.2) via the literal double loop
        assert value == pytest.approx(0.9469164715066354, rel=1e-15)

    def test_csv_rounds_to_precision(self, dataset):
        text = to_csv(build_report(dataset, precision=2))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "component"
        assert rows[2][rows[0].index("mean-gc-sqfr")] == "0.95"

    def test_csv_and_json_agree_cell_by_cell(self, dataset):
        report = build_report(dataset, precision=4)
        doc = json.loads(to_json(report))
        rows = list(csv.DictReader(io.StringIO(to_csv(report))))
        for json_comp, csv_row in zip(doc["components"], rows):
            assert json_comp["component"] == csv_row["component"]
            for name, raw in json_comp["measures"].items():
                assert csv_row[name] == f"{raw:.4f}"

    def test_markdown_contains_groups_and_measures(self, dataset):
        text = to_markdown(build_report(dataset))
        assert "## Component q1" in text and "## Component q2" in text
        assert "| mdg-sqfr |" in text
        assert "| A | 2 |" in text

    def test_markdown_escapes_a_pipe_in_a_group_label(self):
        report = build_report(Dataset({"c": GroupedScores("c", {"A|1": [2.0, 2.0], "B": [1.0]})}))
        rows = [line for line in to_markdown(report).splitlines() if line.startswith("| A")]
        assert rows == [r"| A\|1 | 2 | 2.000 | 2.000 | 2.000 |"]

    def test_render_dispatch(self, dataset):
        report = build_report(dataset)
        assert render(report, "json") == to_json(report)
        assert render(report, "csv") == to_csv(report)
        assert render(report, "markdown") == to_markdown(report)
        with pytest.raises(ConfigError, match="format"):
            render(report, "yaml")

    def test_metadata_fields(self, dataset):
        meta = build_report(
            dataset, threshold_step=0.5, thresholds_mode="observed",
            precision=2, input_path="x.csv",
        ).metadata
        assert meta["input"] == "x.csv"
        assert meta["threshold_step"] == 0.5
        assert meta["thresholds"] == "observed"
        assert meta["precision"] == 2
        assert meta["tool"].startswith("sqfr ")
