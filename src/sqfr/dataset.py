"""Loading, validating and writing per-sample quality-score datasets.

Two interchangeable on-disk formats:

* CSV: UTF-8 with a header row, RFC-4180 quoting. Default columns
  ``group``, ``component``, ``score`` and optional ``sample_id``; names are
  remappable. Scores use Python ``float()`` syntax; blank lines are
  skipped. Row numbers in diagnostics are 1-based physical lines (the
  header is line 1).
* JSON: ``{"components": {"<component>": {"<group>": [score, ...]}}}``.
  Diagnostics carry the JSON path of the offending element.

Loaders canonicalize: components and group labels are ordered
lexicographically, and each component is in the canonical form of
``GroupedScores.validated`` (checked, each group ascending and read-only),
so reports do not depend on input row order, no measure checks a loaded
component again, and score arrays are safe to share across threads.

I/O is columnar: scores go into one typed buffer or array per
(component, group), not a list of Python floats. Quality scores are
conventionally integers in 0-100, so a CSV file usually holds a few
thousand distinct lines however many rows it has. ``load_csv`` therefore
counts the distinct lines after the header (in C, with ``Counter``),
checks each distinct line once, and expands each group's sorted distinct
scores by their counts into an array that is already ascending. It reads
the file again from line 1, row by row, when over half of the lines read
are distinct or more than 2**15 lines are (checked every 2**16 lines, so
the count never holds more than about 10**5 lines), when any line holds a
``"`` (a quoted field can span lines), or when any distinct line fails its
check; so every CSV diagnostic comes from the row-by-row reading. Either
way a row or line is checked inline (field count, a score in [0, float
max], labels once per new (component, group)); ``load_json`` converts and
checks each group's list as one array. Only input that fails those cheap
checks is checked again, row by row or element by element, by the full
check, which produces every diagnostic and cites its row or JSON path.
The writers quote the labels once per group and format the scores in
blocks of ``_WRITE_BLOCK``. ``dumps_csv`` and ``dumps_json`` collect the
blocks into one string; ``save_csv`` and ``save_json`` stream them block by
block into the file, so a save never holds the whole text.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .types import GroupedScores

_FORBIDDEN_LABEL_CHARS = ('"', "\n", "\r")

#: Group-size ratio above which validate() flags a component as unbalanced.
UNBALANCE_RATIO = 10.0

_FLOAT_MAX = sys.float_info.max

#: Rows of one group that the writers format with one string join; bounds
#: the Python floats and strings alive at once.
_WRITE_BLOCK = 65536

#: Lines load_csv counts between checks that most of them repeat; at most
#: half as many distinct lines are counted before it reads row by row.
_COUNT_BLOCK = 1 << 16


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    location: str | None = None

    def __str__(self) -> str:
        prefix = f"{self.location}: " if self.location else ""
        return f"{prefix}{self.message}"


@dataclass
class Provenance:
    source: str
    row_count: int
    warnings: list[Diagnostic] = field(default_factory=list)


@dataclass
class Dataset:
    """All quality components of one source file, plus parse provenance."""

    components: dict[str, GroupedScores]
    provenance: Provenance = field(compare=False, default_factory=lambda: Provenance("", 0))

    def total_scores(self) -> int:
        return sum(g.size for c in self.components.values() for g in c.groups.values())


def load_csv(
    path,
    group_col: str = "group",
    component_col: str = "component",
    score_col: str = "score",
    sample_col: str = "sample_id",
    strict: bool = True,
) -> Dataset:
    """Parse a CSV score file into a Dataset.

    In strict mode (default) any malformed row raises ParseError citing its
    row number; in lenient mode malformed rows are skipped and recorded as
    warnings in the provenance. Silent data loss can corrupt fairness
    conclusions, hence the strict default. ``sample_col`` is not read; it
    is named only so that a header repeating it is rejected. A file that is
    not UTF-8, or a row the CSV reader cannot split (a field over
    ``csv.field_size_limit()``), is a ParseError in either mode.

    The rows after the header are first counted as distinct lines (see
    ``_counted_buckets``), and each distinct line is parsed once. The file
    is read again row by row, from line 1, when that count finds too many
    distinct lines, when a line holds a ``"`` (a quoted field can span
    lines), or when a distinct line fails its check. So every diagnostic,
    row number and row count is that of the row-by-row reading.
    """
    path = Path(path)
    warnings: list[Diagnostic] = []
    try:
        # utf-8-sig: tolerate the BOM spreadsheet exports tend to prepend
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            columns = _read_header(reader, path, group_col, component_col, score_col, sample_col)
            counted = _counted_buckets(fh, columns)
            if counted is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                buckets, rows = _read_rows(reader, columns, strict, warnings)
            else:
                buckets, rows = counted
    except UnicodeDecodeError:
        raise ParseError(f"{path}: {_utf8_error(path)}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {reader.line_num}: malformed CSV: {exc}") from None
    components = _canonical_components(buckets, str(path))
    return Dataset(components, Provenance(str(path), rows, warnings))


def _read_header(reader, path: Path, group_col, component_col, score_col, sample_col):
    """(name, index) of the group, component and score columns of the header row."""
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    missing = [c for c in (group_col, component_col, score_col) if c not in header]
    if missing:
        raise ConfigError(
            f"{path}: missing required column(s) {', '.join(map(repr, missing))};"
            f" found {header}"
        )
    repeated = sorted(
        {c for c in (group_col, component_col, score_col, sample_col) if header.count(c) > 1}
    )
    if repeated:
        raise ConfigError(
            f"{path}: column(s) {', '.join(map(repr, repeated))} appear more than once"
            f" in the header; found {header}"
        )
    return tuple((c, header.index(c)) for c in (group_col, component_col, score_col))


def _counted_buckets(fh, columns):
    """(score arrays by component and group, row count) from the distinct
    lines left in ``fh`` and how often each occurs; None when the file must
    be read row by row instead.

    Lines are counted in blocks of ``_COUNT_BLOCK``, and counting stops
    once over half of the lines read, or over half a block, are distinct.
    So the count holds at most one and a half blocks of distinct lines,
    whatever the file's length. Every distinct line must be one complete
    record (no ``"``) that passes ``_parse_row``. The arrays come out
    ascending, each distinct line's score repeated as often as it occurs.
    """
    counts: Counter[str] = Counter()
    read = 0
    while True:
        # update() from the iterator keeps only new lines alive, not a block of them
        counts.update(islice(fh, _COUNT_BLOCK))
        before, read = read, counts.total()
        if 2 * len(counts) > min(read, _COUNT_BLOCK):
            return None
        if read - before < _COUNT_BLOCK:  # the end of the file
            break
    if any('"' in line for line in counts):
        return None
    # each distinct line checked as _read_rows checks a row
    (_, gi), (_, ci), (_, si) = columns
    scores: dict[tuple[str, str], tuple[array, array]] = {}
    rows = 0
    try:
        # one record per line, as no line holds a quote
        for record, n in zip(csv.reader(counts), counts.values()):
            if not record:  # a blank line
                continue
            try:
                values, repeats = scores[record[ci], record[gi]]
                score = float(record[si])
            except (IndexError, KeyError, ValueError):
                try:
                    score = _parse_row(record, 0, columns)
                except ParseError:
                    return None
                values, repeats = scores.setdefault(
                    (record[ci], record[gi]), (array("d"), array("q"))
                )
            if not 0.0 <= score <= _FLOAT_MAX:  # false for nan, inf and negatives
                return None
            rows += n
            values.append(score)
            repeats.append(n)
    except csv.Error:
        return None
    buckets: dict[str, dict[str, np.ndarray]] = {}
    for (cid, label), (values, repeats) in scores.items():
        values = np.frombuffer(values, np.float64)
        order = np.argsort(values)
        buckets.setdefault(cid, {})[label] = np.repeat(
            values[order], np.frombuffer(repeats, np.int64)[order]
        )
    return buckets, rows


def _read_rows(reader, columns, strict: bool, warnings: list[Diagnostic]):
    """(score buffers by component and group, row count), one row at a time."""
    (_, gi), (_, ci), (_, si) = columns
    buffers: dict[tuple[str, str], array] = {}
    rows = 0
    for row in reader:
        if not row:  # a blank line
            continue
        rows += 1
        try:
            buf = buffers[row[ci], row[gi]]
            score = float(row[si])
        except (IndexError, KeyError, ValueError):
            pass
        else:
            if 0.0 <= score <= _FLOAT_MAX:  # false for nan, inf and negatives
                buf.append(score)
                continue
        # the first row of a (component, group), or a faulty one
        line = reader.line_num
        try:
            score = _parse_row(row, line, columns)
        except ParseError as exc:
            if strict:
                raise
            warnings.append(Diagnostic("warning", f"skipped row: {exc}", f"row {line}"))
            continue
        buffers.setdefault((row[ci], row[gi]), array("d")).append(score)
    buckets: dict[str, dict[str, array]] = {}
    for (cid, label), buf in buffers.items():
        buckets.setdefault(cid, {})[label] = buf
    return buckets, rows


def _utf8_error(path: Path) -> str:
    """The row and byte offset of the first byte of ``path`` that is not UTF-8."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return f"row {line}: invalid UTF-8 at byte {exc.start}"
    return "invalid UTF-8"  # the file changed since it was read


def _parse_row(row: list[str], line: int, columns) -> float:
    """The score of one CSV row, checking everything; ParseError names the first fault.

    ``columns`` holds the (name, index) of the group, component and score
    columns, in that order.
    """
    values = [(name, row[i] if i < len(row) else None) for name, i in columns]
    for name, value in values:
        if not value:
            raise ParseError(f"row {line}: missing value in column {name!r}")
    for name, value in values[:2]:
        if any(ch in value for ch in _FORBIDDEN_LABEL_CHARS):
            raise ParseError(f"row {line}: column {name!r} contains quote or newline characters")
    raw_score = values[2][1]
    try:
        score = float(raw_score)
    except ValueError:
        raise ParseError(f"row {line}: score {raw_score!r} is not a number") from None
    if not math.isfinite(score):
        raise ParseError(f"row {line}: score {raw_score!r} is not finite")
    if score < 0:
        raise ParseError(f"row {line}: negative score {raw_score!r}")
    return score


def load_json(path) -> Dataset:
    """Parse a JSON score file into a Dataset (see module docstring for the schema)."""
    path = Path(path)
    repeated: dict[int, tuple[dict, str]] = {}

    def keep_repeats(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            # the object is kept alive with its key, so its id stays unique
            repeated[id(obj)] = (obj, key)
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=keep_repeats)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:  # the whole file is decoded at once
            raise ParseError(f"{path}: invalid UTF-8 at byte {exc.start}") from None
    if repeated:
        where, key = _first_repeat(doc, "", repeated)
        raise ParseError(f"{path}: {where or '$'}: duplicate key {key!r}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: $: expected a top-level object")
    if "components" not in doc:
        raise ParseError(f"{path}: $: missing 'components' key")
    comps = doc["components"]
    if not isinstance(comps, dict):
        raise ParseError(f"{path}: components: expected an object")
    buckets: dict[str, dict[str, np.ndarray]] = {}
    count = 0
    for cid, groups in comps.items():
        if not isinstance(groups, dict):
            raise ParseError(f"{path}: components.{cid}: expected an object of groups")
        buckets[cid] = {}
        for label, values in groups.items():
            where = f"{path}: components.{cid}.{label}"
            if not isinstance(values, list):
                raise ParseError(f"{where}: expected an array of scores")
            buckets[cid][label] = _json_scores(values, where)
            count += len(values)
    components = _canonical_components(buckets, str(path))
    return Dataset(components, Provenance(str(path), count))


def _json_scores(values: list, where: str) -> np.ndarray:
    """One JSON score array as float64; ParseError cites its first bad element."""
    if set(map(type, values)) <= {int, float}:  # exact types: bools take the loop below
        try:
            scores = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if scores.size == 0 or (scores.min() >= 0.0 and scores.max() <= _FLOAT_MAX):
                return scores
    # the same checks one element at a time, to cite the first bad one
    parsed = []
    for idx, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{where}[{idx}]: expected a number")
        try:
            score = float(value)
        except OverflowError:
            score = math.inf
        if not math.isfinite(score):
            raise ParseError(f"{where}[{idx}]: score is not finite")
        if score < 0:
            raise ParseError(f"{where}[{idx}]: negative score {value}")
        parsed.append(score)
    return np.array(parsed, dtype=np.float64)


def _first_repeat(node, where: str, repeated: dict):
    """(JSON path, key) of the first object, in document order, listed in ``repeated``."""
    if isinstance(node, dict):
        if id(node) in repeated:
            return where, repeated[id(node)][1]
        children = ((f"{where}.{k}" if where else k, v) for k, v in node.items())
    elif isinstance(node, list):
        children = ((f"{where}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for child_where, child in children:
        found = _first_repeat(child, child_where, repeated)
        if found is not None:
            return found
    return None


def _canonical_components(buckets, source: str) -> dict[str, GroupedScores]:
    """Components in canonical form from per-(component, group) score buffers,
    each made by ``GroupedScores.validated``; ValidationError names every
    problem of every component.

    Each component's buffers are removed from ``buckets`` as it is made, so
    the two never hold the whole dataset at once.
    """
    if not buckets:
        raise ValidationError(f"{source}: dataset contains no score records")
    components: dict[str, GroupedScores] = {}
    problems: list[str] = []
    for cid in sorted(buckets):
        groups = buckets.pop(cid)
        loaded = GroupedScores(cid, {label: groups[label] for label in sorted(groups)})
        try:
            components[cid] = loaded.validated()
        except ValidationError as exc:
            problems.append(str(exc))
    if problems:
        raise ValidationError("; ".join(problems))
    return components


def validate(dataset: Dataset) -> list[Diagnostic]:
    """Non-mutating health check; returns diagnostics instead of raising.

    Errors are invariant breaches, one per problem (possible on hand-built
    datasets; loaders reject them at parse time). Warnings flag inputs that
    are legal but deserve attention: strongly unbalanced group sizes,
    single-valued components, and scores outside the conventional 0-100
    scale. Each component goes through ``GroupedScores.validated``, so a
    loaded one, already canonical, is not checked again.
    """
    out: list[Diagnostic] = []
    for cid, grouped in dataset.components.items():
        where = f"component '{cid}'"
        try:
            grouped = grouped.validated()
        except ValidationError:
            out.extend(Diagnostic("error", p) for p in grouped.problems())
            continue
        sizes = grouped.group_sizes()
        ratio = max(sizes.values()) / min(sizes.values())
        if ratio > UNBALANCE_RATIO:
            out.append(
                Diagnostic(
                    "warning",
                    f"group sizes are severely unbalanced (max/min ratio "
                    f"{ratio:.1f} > {UNBALANCE_RATIO:g}): {sizes}",
                    where,
                )
            )
        lo, hi = grouped.pooled_range()
        if lo == hi:
            out.append(
                Diagnostic(
                    "warning",
                    f"all scores equal ({lo:g}); every measure is trivially 1",
                    where,
                )
            )
        if hi > 100:
            out.append(
                Diagnostic(
                    "warning",
                    f"scores outside the conventional [0, 100] scale "
                    f"(min {lo:g}, max {hi:g})",
                    where,
                )
            )
    return out


def _as_components(data) -> dict[str, GroupedScores]:
    if isinstance(data, Dataset):
        return data.components
    if isinstance(data, GroupedScores):
        return {data.component_id: data}
    return dict(data)


def dumps_csv(data) -> str:
    """Serialize components to CSV text (component, group, score rows)."""
    buf = io.StringIO()
    _write_csv(data, buf)
    return buf.getvalue()


def dumps_json(data) -> str:
    """Serialize components to the JSON dataset schema, as the text of
    ``json.dumps(doc, indent=2)`` with one score per line."""
    buf = io.StringIO()
    _write_json(data, buf)
    return buf.getvalue()


def save_csv(data, path) -> None:
    """Write ``dumps_csv(data)`` to ``path`` as UTF-8, block by block."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_csv(data, fh)


def save_json(data, path) -> None:
    """Write ``dumps_json(data)`` to ``path`` as UTF-8, block by block. Like
    ``json.dump``, a save that fails part way (TypeError for a key JSON
    cannot spell, or OSError) may leave a partial file."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(data, fh)


def _write_csv(data, out) -> None:
    out.write("component,group,score\n")
    for cid, grouped in _as_components(data).items():
        for label, scores in grouped.groups.items():
            # quote the labels once per group; a float's repr needs no quoting
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow([cid, label, ""])
            prefix = line.getvalue()[:-1]
            sep = "\n" + prefix
            for start in range(0, scores.size, _WRITE_BLOCK):
                block = scores[start:start + _WRITE_BLOCK].tolist()
                out.write(prefix)
                out.write(sep.join(map(repr, block)))
                out.write("\n")


def _write_json(data, out) -> None:
    components = _as_components(data)
    out.write('{\n  "components": {')
    for i, (cid, grouped) in enumerate(components.items()):
        out.write(f'{"," if i else ""}\n    {_json_key(cid)}: {{')
        for j, (label, scores) in enumerate(grouped.groups.items()):
            out.write(f'{"," if j else ""}\n      {_json_key(label)}: [')
            # json.dumps spells nan and inf as NaN and Infinity; repr suffices otherwise
            number = repr if np.isfinite(scores).all() else json.dumps
            for start in range(0, scores.size, _WRITE_BLOCK):
                block = scores[start:start + _WRITE_BLOCK].tolist()
                out.write(",\n        " if start else "\n        ")
                out.write(",\n        ".join(map(number, block)))
            out.write("\n      ]" if scores.size else "]")
        out.write("\n    }" if grouped.groups else "}")
    out.write("\n  }\n}\n" if components else "}\n}\n")


def _json_key(key) -> str:
    """``key`` as ``json.dumps`` writes an object key: a str quoted and
    escaped, an int, float, bool or None spelled as JSON first."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)
