"""Fairness report assembly and serialization.

A report holds, per quality component, a per-group summary (count, mean,
median, low-weighted mean) and the computed fairness measures. Output is
deterministic: components and groups keep the dataset's canonical order
and keys are emitted in fixed order, so identical inputs and flags produce
byte-identical reports.

JSON carries raw doubles; CSV and markdown round to the configured
precision (default 3 decimal places). Measure names are serialized in
their hyphenated CLI spelling.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Iterable

from . import __version__, measures
from .dataset import Dataset
from .errors import ConfigError
from .types import ALL_MEASURES, is_int

FORMATS = ("json", "csv", "markdown")


def cli_measure_name(key: str) -> str:
    return key.replace("_", "-")


def measure_key(name: str) -> str:
    """Map a CLI spelling like 'mean-gc-sqfr' to its canonical key."""
    key = name.strip().lower().replace("-", "_")
    if key not in ALL_MEASURES:
        valid = ", ".join(cli_measure_name(m) for m in ALL_MEASURES)
        raise ConfigError(f"unknown measure {name!r}; valid measures: {valid}")
    return key


def parse_measure_list(spec: str | None) -> tuple[str, ...] | None:
    """Parse a comma-separated CLI measure list; None means all measures."""
    if spec is None:
        return None
    keys = [measure_key(part) for part in spec.split(",") if part.strip()]
    if not keys:
        raise ConfigError("empty measure list")
    return measures.select_measures(keys)


def check_precision(precision: int) -> None:
    """Raise ConfigError unless ``precision``, the decimal places of csv and
    markdown output, is an int >= 0 (a bool is not an int here)."""
    if not is_int(precision):
        raise ConfigError(f"precision must be an integer, got {precision!r}")
    if precision < 0:
        raise ConfigError(f"precision must be >= 0, got {precision}")


@dataclass
class GroupSummary:
    label: str
    count: int
    mean: float
    median: float
    lwm: float


@dataclass
class ComponentResult:
    component: str
    groups: list[GroupSummary]
    measures: dict[str, float]  # canonical keys, canonical order


@dataclass
class FairnessReport:
    metadata: dict
    components: list[ComponentResult]


def build_report(
    dataset: Dataset,
    selected: Iterable[str] | None = None,
    threshold_step: float = 1.0,
    thresholds_mode: str = "sequence",
    precision: int = 3,
    input_path: str | None = None,
) -> FairnessReport:
    """Evaluate every component of the dataset into one report.

    ``selected`` names canonical measure keys; :func:`measures.select_measures`
    drops repeats and puts them in canonical order, which every render
    follows. The measures, the sweep and the precision are checked before
    any component is evaluated, so an unknown key raises DomainError and a
    bad parameter never reaches the output.
    """
    keys = measures.select_measures(selected)
    measures.check_sweep(threshold_step, thresholds_mode)
    check_precision(precision)
    components = []
    for cid, grouped in dataset.components.items():
        grouped = grouped.validated()
        mean = measures.mean_aggregate(grouped)
        median = measures.median_aggregate(grouped)
        lwm = measures.lwm_aggregate(grouped)
        sizes = grouped.group_sizes()
        summary = [
            GroupSummary(label, sizes[label], mean.values[label], median.values[label],
                         lwm.values[label])
            for label in grouped.groups
        ]
        scores = measures.evaluate_component(
            grouped, step=threshold_step, thresholds_mode=thresholds_mode, measures=keys,
            aggregates={"mean": mean, "median": median, "lwm": lwm},
        )
        components.append(
            ComponentResult(cid, summary, {s.measure: s.value for s in scores})
        )
    metadata = {
        "tool": f"sqfr {__version__}",
        "input": input_path if input_path is not None else dataset.provenance.source,
        "threshold_step": threshold_step,
        "thresholds": thresholds_mode,
        "precision": precision,
        "measures": [cli_measure_name(k) for k in keys],
    }
    return FairnessReport(metadata, components)


def to_json(report: FairnessReport) -> str:
    doc = {
        "metadata": report.metadata,
        "components": [
            {
                "component": c.component,
                "groups": [asdict(g) for g in c.groups],
                "measures": {cli_measure_name(k): v for k, v in c.measures.items()},
            }
            for c in report.components
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def to_csv(report: FairnessReport) -> str:
    precision = report.metadata["precision"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["component"] + report.metadata["measures"])
    for c in report.components:
        writer.writerow([c.component] + [f"{v:.{precision}f}" for v in c.measures.values()])
    return buf.getvalue()


def to_markdown(report: FairnessReport) -> str:
    precision = report.metadata["precision"]
    lines = ["# Fairness report", ""]
    lines += [f"- {k}: {v}" for k, v in report.metadata.items() if k != "measures"]
    for c in report.components:
        lines += ["", f"## Component {c.component}", ""]
        lines.append("| group | count | mean | median | lwm |")
        lines.append("| --- | --- | --- | --- | --- |")
        for g in c.groups:
            label = g.label.replace("|", r"\|")  # a bare | would end the cell
            lines.append(
                f"| {label} | {g.count} | {g.mean:.{precision}f}"
                f" | {g.median:.{precision}f} | {g.lwm:.{precision}f} |"
            )
        lines += ["", "| measure | value |", "| --- | --- |"]
        for k, v in c.measures.items():
            lines.append(f"| {cli_measure_name(k)} | {v:.{precision}f} |")
    return "\n".join(lines) + "\n"


def render(report: FairnessReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "markdown":
        return to_markdown(report)
    raise ConfigError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
