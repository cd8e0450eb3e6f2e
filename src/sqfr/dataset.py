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
reads each distinct line once, and expands each group's sorted distinct
scores by their counts into an array that is already ascending. It reads
the file again from line 1, row by row, when over half of the lines read
are distinct or more than 2**15 lines are (checked every 2**16 lines, so
the count never holds more than about 10**5 lines), when any line holds a
``"`` (a quoted field can span lines), or when any distinct line fails its
check; so every CSV diagnostic comes from the row-by-row reading.

CSV rows have one check, in ``_read_rows``, which reads the distinct lines
of the counted pass and the rows of the row-by-row reading alike: a cheap
inline test (field count, a score in [0, float max]), and the full check
of ``_parse_row`` for the first row of each (component, group) and any row
the inline test refuses. ``load_json`` converts and checks each group's
list as one array, and checks element by element only a list that fails.
The full checks produce every diagnostic and cite its row or JSON path.
The writers quote the labels once per group and format the scores in
blocks of ``_WRITE_BLOCK``. In a block whose values repeat, as quantized
scores do, each distinct score is formatted once and its text reused for
every row that holds it; a block with few repeats is formatted score by
score. ``dumps_csv`` and ``dumps_json`` collect the blocks into one string;
``save_csv`` and ``save_json`` stream them block by block into the file, so
a save never holds the whole text.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
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
#: the Python floats and strings alive at once, and the scores one
#: ``np.unique`` sorts to find the distinct values it spells once.
_WRITE_BLOCK = 65536

#: Leading scores of a write block counted to tell whether its values repeat.
_SAMPLE = 1024

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
    ``_counted_buckets``), and the distinct lines are read once, through
    the same row reader and check as the rows of the file. The file is
    read again row by row, from line 1, when that count finds too many
    distinct lines, when a line holds a ``"`` (a quoted field can span
    lines), or when a distinct line fails the check. So every diagnostic,
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
    if len({group_col, component_col, score_col}) < 3:
        raise ConfigError(
            f"{path}: the group, component and score columns must be three different"
            f" columns; got {group_col!r}, {component_col!r} and {score_col!r}"
        )
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
    record (no ``"``), and together they must pass ``_read_rows`` in strict
    mode. The arrays come out ascending, each distinct line's score
    repeated as often as it occurs.
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
    try:
        # one record per line, as no line holds a quote
        buckets, _ = _read_rows(csv.reader(counts), columns, True, [])
    except (ParseError, csv.Error):
        return None
    # _read_rows keeps each group's lines in the order they are counted
    (_, gi), (_, ci), _ = columns
    repeats: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for record, n in zip(csv.reader(counts), counts.values()):
        if record:  # not a blank line
            repeats[record[ci], record[gi]].append(n)
    for cid, groups in buckets.items():
        for label, values in groups.items():
            values = np.frombuffer(values, np.float64)
            order = np.argsort(values)
            groups[label] = np.repeat(values[order], np.array(repeats[cid, label])[order])
    return buckets, sum(map(sum, repeats.values()))


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
    doc = read_json(path, ParseError)
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
    # every list the fast path refuses holds a bad element: find the first, to cite it
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
    raise AssertionError(f"{where}: no bad element in a list the fast path refused")


def read_json(path, error: type[Exception]):
    """The document in the UTF-8 JSON file ``path``. Raises ``error`` for
    bytes that are not UTF-8, invalid JSON, an integer of more digits than
    ``int()`` takes, or a key repeated within one object, citing the JSON
    path (``$`` for the top level) where it can be found."""
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
            found = _first_path(doc, "", lambda node: id(node) in repeated) if repeated else None
        except UnicodeDecodeError as exc:  # the whole file is decoded at once
            raise error(f"{path}: invalid UTF-8 at byte {exc.start}") from None
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from None
        except ValueError:  # only an integer of more digits than int() takes
            where = _long_integer_path(path)
            at = "" if where is None else f" {where or '$'}:"
            raise error(f"{path}:{at} invalid JSON: integer of over"
                        f" {sys.get_int_max_str_digits()} digits") from None
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply to read") from None
    if found:
        where, obj = found
        raise error(f"{path}: {where or '$'}: duplicate key {repeated[id(obj)][1]!r}")
    return doc


def _long_integer_path(path):
    """JSON path of the first integer in ``path`` of more digits than
    ``int()`` takes, or None if reading the file again cannot place one."""
    too_long = object()
    limit = sys.get_int_max_str_digits()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=lambda s: too_long if len(s.lstrip("-")) > limit else 0)
        found = _first_path(doc, "", lambda node: node is too_long)
    except (ValueError, RecursionError):  # a later fault of the file
        return None
    return None if found is None else found[0]


def _first_path(node, where: str, hit):
    """(JSON path, node) of the first node in document order for which
    ``hit`` holds, or None."""
    if hit(node):
        return where, node
    if isinstance(node, dict):
        children = ((f"{where}.{k}" if where else k, v) for k, v in node.items())
    elif isinstance(node, list):
        children = ((f"{where}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for child_where, child in children:
        found = _first_path(child, child_where, hit)
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


def check_csv_label(value, what: str) -> None:
    """Raise ConfigError if ``value``, a component id or group label, holds a
    quote, CR or LF: :func:`save_csv` would write it, quoted, but
    :func:`load_csv` rejects it."""
    if any(ch in str(value) for ch in _FORBIDDEN_LABEL_CHARS):
        raise ConfigError(f"{what} {value!r} contains quote or newline characters,"
                          " which a CSV dataset cannot hold; write JSON instead")


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
                block = scores[start:start + _WRITE_BLOCK]
                out.write(prefix)
                out.write(sep.join(_score_texts(block, repr)))
                out.write("\n")


def _write_json(data, out) -> None:
    components = _as_components(data)
    out.write('{\n  "components": {')
    for i, (cid, grouped) in enumerate(components.items()):
        out.write(f'{"," if i else ""}\n    {_json_key(cid)}: {{')
        for j, (label, scores) in enumerate(grouped.groups.items()):
            out.write(f'{"," if j else ""}\n      {_json_key(label)}: [')
            for start in range(0, scores.size, _WRITE_BLOCK):
                block = scores[start:start + _WRITE_BLOCK]
                out.write(",\n        " if start else "\n        ")
                out.write(",\n        ".join(_score_texts(block, _json_number)))
            out.write("\n      ]" if scores.size else "]")
        out.write("\n    }" if grouped.groups else "}")
    out.write("\n  }\n}\n" if components else "}\n}\n")


def _json_number(value: float) -> str:
    """``value`` as ``json.dumps`` spells it: NaN and Infinity are not reprs."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _score_texts(block: np.ndarray, number) -> list[str]:
    """The texts of ``block``'s scores in row order, each as ``number``
    spells it; ``number`` must spell a finite score as its repr.

    Quantized scores repeat: a block of them holds a few dozen distinct
    values, so each distinct bit pattern (-0.0 is not 0.0, and NaN payloads
    stay apart) is spelled once and the texts are gathered back into row
    order. A finite block that looks at least half distinct, as unquantized
    scores are, is spelled score by score, the faster way when all differ.
    The look counts the repeats among its first ``n`` of ``N`` scores. With
    a share ``s`` of the block distinct, in random order, that is about
    ``n**2 / (2 * N) * (1 / s - 1)``, and exactly ``N - s * N`` when
    ``n == N``; so at most ``n**2 / (2 * N)`` repeats reads as ``s >= 1/2``.
    """
    bits = block.view(np.int64)
    head = bits[:_SAMPLE]
    repeats = head.size - np.unique(head).size
    if 2 * repeats * bits.size <= head.size ** 2 and np.isfinite(block).all():
        return list(map(repr, block.tolist()))
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(number, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _json_key(key) -> str:
    """``key`` as ``json.dumps`` writes an object key: a str quoted and
    escaped, an int, float, bool or None spelled as JSON first."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)
