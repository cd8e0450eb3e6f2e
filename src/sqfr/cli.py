"""Command-line interface.

Subcommands: eval (dataset -> fairness report), simulate (scenario ->
dataset file), plotdata (dataset -> histogram/density series), fixtures
(print the builtin golden aggregates). Exit codes: 0 success, 1 I/O or
parse failure, 2 validation or configuration failure. A report or plot is
built in full before anything is written, so a non-zero exit never leaves a
partial one behind. simulate checks its spec before it opens the output,
then draws, writes and summarizes one group at a time, so it holds about
one group; a failed write can leave the file partial.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__, dataset as dataset_io, plotdata, report, scenarios
from .errors import ConfigError, DomainError, ParseError, ValidationError
from .measures import THRESHOLD_MODES, check_sweep, group_mean, group_median


#: The flags only CSV input takes, by the ``load_csv`` parameter each sets.
_CSV_FLAGS = {"group_col": "--group-col", "component_col": "--component-col",
              "score_col": "--score-col", "strict": "--lenient"}


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset file: JSON if it ends in .json, else CSV")
    # no defaults here: load_csv holds them, and JSON input takes none of these
    csv_only = p.add_argument_group("CSV input only", argument_default=argparse.SUPPRESS)
    csv_only.add_argument("--group-col", help="CSV column with the group label")
    csv_only.add_argument("--component-col", help="CSV column with the quality component id")
    csv_only.add_argument("--score-col", help="CSV column with the quality score")
    csv_only.add_argument("--lenient", dest="strict", action="store_false",
                          help="skip malformed CSV rows with a warning")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqfr",
        description="Demographic fairness measures for quality-score datasets.",
    )
    parser.add_argument("--version", action="version", version=f"sqfr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="compute fairness measures for a dataset")
    _add_input_flags(p_eval)
    p_eval.add_argument("--out", help="output file (default: stdout)")
    p_eval.add_argument("--format", choices=report.FORMATS, default="json")
    p_eval.add_argument("--measures",
                        help="comma-separated measures (default: all), e.g. mean-gc-sqfr,mdg-sqfr")
    p_eval.add_argument("--threshold-step", type=float, default=1.0,
                        help="step of the discard threshold sweep (default 1)")
    p_eval.add_argument("--thresholds", choices=THRESHOLD_MODES, default="sequence",
                        help="sweep thresholds: fixed-step sequence (default) or observed scores")
    p_eval.add_argument("--precision", type=int, default=3,
                        help="decimal places in csv/markdown output (default 3)")
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset file")
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="builtin scenario name (see error message for the list)")
    src.add_argument("--spec", help="scenario spec JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p_sim.add_argument("--out", required=True,
                       help="dataset file to write: JSON if it ends in .json, else CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plot = sub.add_parser("plotdata", help="export histogram and density series")
    _add_input_flags(p_plot)
    p_plot.add_argument("--out", help="output file (default: stdout)")
    p_plot.add_argument("--format", choices=plotdata.FORMATS, default="json")
    p_plot.add_argument("--bin-width", type=float, default=1.0)
    p_plot.add_argument("--grid-points", type=int, default=256)
    p_plot.add_argument("--bandwidth", type=float, default=None,
                        help="fixed KDE bandwidth (default: Silverman's rule)")
    p_plot.set_defaults(func=_cmd_plotdata)

    p_fix = sub.add_parser("fixtures", help="print the builtin golden aggregate fixtures")
    p_fix.add_argument("--format", choices=report.FORMATS, default="markdown")
    p_fix.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


def _load(args) -> dataset_io.Dataset:
    path = Path(args.input)
    given = {key: getattr(args, key) for key in _CSV_FLAGS if key in args}
    if not dataset_io.is_json(path):
        ds = dataset_io.load_csv(path, **given)
    elif given:
        flags = ", ".join(_CSV_FLAGS[key] for key in given)
        raise ConfigError(f"{path} is JSON; only CSV input takes {flags}")
    else:
        ds = dataset_io.load_json(path)
    _print_diagnostics(ds.provenance.warnings)
    return ds


def _print_diagnostics(diagnostics) -> None:
    """Write each diagnostic to stderr as '<severity>: <diagnostic>'; no other code does."""
    for diag in diagnostics:
        print(f"{diag.severity}: {diag}", file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    report.check_precision(args.precision)
    selected = report.parse_measure_list(args.measures)
    check_sweep(args.threshold_step, args.thresholds)
    ds = _load(args)
    # a loaded component has passed its check, so these are warnings
    _print_diagnostics(dataset_io.validate(ds))
    result = report.build_report(
        ds,
        selected=selected,
        threshold_step=args.threshold_step,
        thresholds_mode=args.thresholds,
        precision=args.precision,
    )
    _emit(report.render(result, args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.scenario:
        catalog = scenarios.builtin_scenarios()
        if args.scenario not in catalog:
            raise ConfigError(
                f"unknown scenario {args.scenario!r};"
                f" available scenarios: {', '.join(sorted(catalog))}"
            )
        spec = catalog[args.scenario]
    else:
        spec = scenarios.ScenarioSpec.from_json_file(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    if not dataset_io.is_json(args.out):
        dataset_io.check_csv_label(spec.name, "scenario name")
        for g in spec.groups:
            dataset_io.check_csv_label(g.label, "group label")
    # the spec is checked here, before --out is opened; its groups are drawn as they are written
    drawn = scenarios.draw_groups(spec)
    summary = [f"wrote {args.out} (scenario '{spec.name}', seed {spec.seed})",
               "group  count  mean     median"]
    dataset_io.save({spec.name: _summarized(drawn, summary)}, args.out)
    print("\n".join(summary))
    return 0


def _summarized(groups, lines: list[str]):
    """The ``(label, samples)`` pairs of ``groups``, passed on one at a time.
    When the next is asked for, the one passed on before is sorted in place
    and summarized in a line appended to ``lines``: its mean and median, as
    ``sqfr eval`` reports them for the file written. A drawn group holds no
    -0, so its sorted samples are the ascending group eval reads."""
    for label, values in groups:
        yield label, values
        values.sort()
        lines.append(f"{label:<6} {values.size:<6d} {group_mean(values):<8.3f}"
                     f" {group_median(values):<8.3f}")
        del values  # let the group go before the next is drawn


def _cmd_plotdata(args) -> int:
    plotdata.check_options(args.bin_width, args.grid_points, args.bandwidth)
    # no name holds the dataset, so its scores go once the plot, all lists, is built
    plot = plotdata.build_plotdata(
        _load(args),
        bin_width=args.bin_width,
        grid_points=args.grid_points,
        bandwidth=args.bandwidth,
    )
    _print_diagnostics(plot.warnings)
    _emit(plotdata.render(plot, args.format), args.out)
    return 0


def _cmd_fixtures(args) -> int:
    fixtures = scenarios.builtin_fixtures()
    if args.format == "json":
        doc = [
            {
                "name": f.name,
                "aggregator": f.aggregator_kind,
                "group_values": f.group_values,
                "expected": {report.cli_measure_name(k): v for k, v in f.expected.items()},
                "computed": {report.cli_measure_name(k): v for k, v in f.evaluate().items()},
                "tolerance": f.tolerance,
                "source": f.source,
            }
            for f in fixtures
        ]
        print(json.dumps(doc, indent=2))
        return 0

    rows = []
    for f in fixtures:
        computed = f.evaluate()
        for key, expected in f.expected.items():
            rows.append(
                (f.name, f.aggregator_kind, report.cli_measure_name(key),
                 f"{expected:g}", f"{computed[key]:.6f}", f"{f.tolerance:g}", f.source)
            )
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["fixture", "aggregator", "measure", "expected", "computed",
                         "tolerance", "source"])
        writer.writerows(rows)
        return 0

    print("| fixture | aggregator | measure | expected | computed | tolerance | source |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    entry()
