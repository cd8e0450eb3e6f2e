"""The columnar CSV/JSON loaders and CSV writer against per-row oracles.

The oracles below are the earlier per-score implementations: a
``csv.DictReader`` loop that checks and stores one row at a time, a JSON
loop that checks one value at a time, a CSV writer that quotes every row
and a JSON writer that converts one score at a time.
The columnar code must load the same datasets (component and group order,
float64 bits, frozen arrays, row counts) and raise the same errors and
lenient warnings, and write the same bytes. ``load_csv`` has two paths, a
count of distinct lines and a row-by-row reading; each CSV case runs on
both, and the tests check which path a file takes.
"""

import csv
import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sqfr.dataset
from sqfr import GroupedScores, ParseError, ValidationError, builtin_scenarios, generate
from sqfr.dataset import (
    Dataset,
    Diagnostic,
    Provenance,
    _first_path,
    dumps_csv,
    dumps_json,
    load_csv,
    load_json,
    save_csv,
    save_json,
)

# --- oracles: one Python object per score --------------------------------


def oracle_load_csv(path, group_col="group", component_col="component", score_col="score",
                    sample_col="sample_id", strict=True):
    from sqfr.errors import ConfigError

    warnings = []
    buckets = {}
    rows = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file, expected a header row")
        missing = [c for c in (group_col, component_col, score_col) if c not in reader.fieldnames]
        if missing:
            raise ConfigError(
                f"{path}: missing required column(s) {', '.join(map(repr, missing))};"
                f" found {reader.fieldnames}"
            )
        repeated = sorted(
            {c for c in (group_col, component_col, score_col, sample_col)
             if reader.fieldnames.count(c) > 1}
        )
        if repeated:
            raise ConfigError(
                f"{path}: column(s) {', '.join(map(repr, repeated))} appear more than once"
                f" in the header; found {reader.fieldnames}"
            )
        for row in reader:
            rows += 1
            line = reader.line_num
            try:
                group, component, score = _oracle_parse_row(
                    row, line, group_col, component_col, score_col)
            except ParseError as exc:
                if strict:
                    raise
                warnings.append(Diagnostic("warning", f"skipped row: {exc}", f"row {line}"))
                continue
            buckets.setdefault(component, {}).setdefault(group, []).append(score)
    return Dataset(_oracle_canonical(buckets, str(path)), Provenance(str(path), rows, warnings))


def _oracle_parse_row(row, line, group_col, component_col, score_col):
    group = row.get(group_col)
    component = row.get(component_col)
    raw_score = row.get(score_col)
    for name, value in ((group_col, group), (component_col, component), (score_col, raw_score)):
        if value is None or value == "":
            raise ParseError(f"row {line}: missing value in column {name!r}")
    for name, value in ((group_col, group), (component_col, component)):
        if any(ch in value for ch in ('"', "\n", "\r")):
            raise ParseError(f"row {line}: column {name!r} contains quote or newline characters")
    try:
        score = float(raw_score)
    except ValueError:
        raise ParseError(f"row {line}: score {raw_score!r} is not a number") from None
    if not math.isfinite(score):
        raise ParseError(f"row {line}: score {raw_score!r} is not finite")
    if score < 0:
        raise ParseError(f"row {line}: negative score {raw_score!r}")
    return group, component, score


def oracle_load_json(path):
    repeated = {}

    def keep_repeats(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            repeated[id(obj)] = (obj, key)
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=keep_repeats)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if repeated:
        where, obj = _first_path(doc, "", lambda node: id(node) in repeated)
        raise ParseError(f"{path}: {where or '$'}: duplicate key {repeated[id(obj)][1]!r}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: $: expected a top-level object")
    if "components" not in doc:
        raise ParseError(f"{path}: $: missing 'components' key")
    comps = doc["components"]
    if not isinstance(comps, dict):
        raise ParseError(f"{path}: components: expected an object")
    buckets = {}
    count = 0
    for cid, groups in comps.items():
        if not isinstance(groups, dict):
            raise ParseError(f"{path}: components.{cid}: expected an object of groups")
        buckets[cid] = {}
        for label, values in groups.items():
            where = f"components.{cid}.{label}"
            if not isinstance(values, list):
                raise ParseError(f"{path}: {where}: expected an array of scores")
            parsed = []
            for idx, value in enumerate(values):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ParseError(f"{path}: {where}[{idx}]: expected a number")
                if not math.isfinite(value):  # OverflowError on an int beyond the float range
                    raise ParseError(f"{path}: {where}[{idx}]: score is not finite")
                if value < 0:
                    raise ParseError(f"{path}: {where}[{idx}]: negative score {value}")
                parsed.append(float(value))
            buckets[cid][label] = parsed
            count += len(parsed)
    return Dataset(_oracle_canonical(buckets, str(path)), Provenance(str(path), count))


def _oracle_canonical(buckets, source):
    if not buckets:
        raise ValidationError(f"{source}: dataset contains no score records")
    components = {}
    problems = []
    for cid in sorted(buckets):
        groups = {}
        for label in sorted(buckets[cid]):
            arr = np.asarray(buckets[cid][label], dtype=np.float64)
            arr = arr[np.lexsort((~np.signbit(arr), arr))]  # ascending, -0 before 0
            arr.flags.writeable = False
            groups[label] = arr
        grouped = GroupedScores(cid, groups)
        problems.extend(grouped.problems())
        components[cid] = grouped
    if problems:
        raise ValidationError("; ".join(problems))
    return components


def oracle_dumps_csv(components):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["component", "group", "score"])
    for cid, grouped in components.items():
        for label, scores in grouped.groups.items():
            for score in scores:
                writer.writerow([cid, label, repr(float(score))])
    return buf.getvalue()


def oracle_dumps_json(components):
    doc = {
        "components": {
            cid: {label: [float(s) for s in scores] for label, scores in grouped.groups.items()}
            for cid, grouped in components.items()
        }
    }
    return json.dumps(doc, indent=2) + "\n"


# --- comparison -----------------------------------------------------------


def outcome(load, *args, **kwargs):
    """A load's result, or its exception, in a form that compares exactly."""
    try:
        ds = load(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc).__name__, str(exc))
    comps = []
    for cid, grouped in ds.components.items():
        groups = []
        for label, arr in grouped.groups.items():
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
            groups.append((label, arr.tobytes()))
        comps.append((cid, grouped.component_id, groups))
    warnings = [(d.severity, d.message, d.location) for d in ds.provenance.warnings]
    return ("loaded", comps, ds.provenance.source, ds.provenance.row_count, warnings)


def assert_csv_parity(path, **kwargs):
    for strict in (True, False):
        new = outcome(load_csv, path, strict=strict, **kwargs)
        assert new == outcome(oracle_load_csv, path, strict=strict, **kwargs)
    return new


def write(path, text, encoding="utf-8"):
    path.write_bytes(text.encode(encoding))
    return path


HEADER = "group,component,score\n"

CSV_CASES = {
    # the malformed and edge inputs of test_dataset.py
    "basic": HEADER + "A,q1,10\nB,q1,20\nA,q2,30\nB,q2,40\nA,q1,12\nB,q2,44\n",
    "unparsable": HEADER + "A,q,1\nB,q,2\nA,q,abc\n",
    "lenient-two-bad": HEADER + "A,q,1\nB,q,2\nA,q,abc\nB,q,-3\n",
    "missing-column": "group,component,points\nA,q,1\n",
    "single-group": HEADER + "A,q,1\nA,q,2\n",
    "empty-file": "",
    "header-only": HEADER,
    "quoted-comma-label": HEADER + '"young, urban",q,1\nother,q,2\n',
    "missing-field": HEADER + "A,q,1\nB,q\n",
    "inf": HEADER + "A,q,1\nB,q,inf\n",
    "bom": "\ufeff" + HEADER + "A,q,1\nB,q,2\n",
    "sample-id": "group,component,score,sample_id\nA,q,1,s1\nB,q,2,s2\nA,q,3,\n",
    "repeated-column": "group,component,score,group\nA,s,1,X\nB,s,2,Y\n",
    "repeated-sample-column": "group,component,score,sample_id,sample_id\nA,s,1,x,y\nB,s,2,x,y\n",
    # blank lines, here and there
    "blank-lines": HEADER + "A,q,1\n\nB,q,2\n\n\nA,q,3\n\n",
    "blank-after-header": HEADER + "\n\nA,q,1\nB,q,2\n",
    "blank-then-bad": HEADER + "A,q,1\n\n\nB,q,x\nB,q,2\nA,q,y\n\nA,q,-1\n",
    "blank-first-line": "\n" + HEADER + "A,q,1\nB,q,2\n",
    "crlf": HEADER.replace("\n", "\r\n") + "A,q,1\r\n\r\nB,q,x\r\nB,q,2\r\n",
    # row shapes
    "short-rows": HEADER + "A,q,1\nB\nB,q\nB,q,2\n",
    "extra-columns": HEADER + "A,q,1,extra,more\nB,q,2,\n",
    "reordered-columns": "score,x,component,group\n1,,q,A\n2,,q,B\n",
    "empty-fields": HEADER + ",q,1\nA,,1\nA,q,\nA,q,1\nB,q,2\n",
    "forbidden-label": HEADER + '"A""x",q,1\n"multi\nline",q,2\nA,"c\rr",3\nA,q,1\nB,q,2\n',
    "multiline-then-bad": HEADER + '"B\nC",q,1\nA,q,1\nB,q,bad\nB,q,2\n',
    "whitespace-label": HEADER + " A,q,1\nA ,q,2\nA,q,3\n",
    # score spellings
    "spaced-score": HEADER + "A,q, 1 \nB,q,2\t\n",
    "underscore-score": HEADER + "A,q,1_0\nB,q,2\n",
    "nan-score": HEADER + "A,q,nan\nA,q,NaN\nA,q,1\nB,q,2\n",
    "negative-zero": HEADER + "A,q,-0\nA,q,-0.0\nB,q,0\n",
    "overflowing-float": HEADER + "A,q,1e309\nA,q,-1e309\nA,q,1\nB,q,2\n",
    "beyond-2-53": HEADER + f"A,q,{2**53 + 1}\nB,q,{2**64 + 3}\n",
    "ten-to-308": HEADER + f"A,q,{10**308}\nB,q,1\n",
    "ten-to-309": HEADER + f"A,q,{10**309}\nA,q,1\nB,q,2\n",
    "exponent-forms": HEADER + "A,q,1e3\nA,q,.5\nA,q,5.\nB,q,+2\nB,q,0x10\nB,q,infinity\n",
    "negative": HEADER + "A,q,-3\nA,q,-1e-300\nA,q,1\nB,q,2\n",
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_load_parity(tmp_path, name):
    assert_csv_parity(write(tmp_path / "d.csv", CSV_CASES[name]))


def test_csv_remapped_columns_parity(tmp_path):
    path = write(tmp_path / "d.csv", "who,what,points,id\nA,q,1,x\nB,q,2,y\nB,q,z,\n")
    assert_csv_parity(path, group_col="who", component_col="what", score_col="points",
                      sample_col="id")


def test_rows_after_blank_lines_keep_their_line_numbers(tmp_path):
    path = write(tmp_path / "d.csv", HEADER + "A,q,1\n\n\nB,q,x\n")
    with pytest.raises(ParseError, match=r"^row 5: score 'x' is not a number$"):
        load_csv(path)


# --- the counted pass -----------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Whether each load_csv call took the counted pass (True) or read row by row."""
    taken = []
    count = sqfr.dataset._counted_buckets

    def spy(*args):
        result = count(*args)
        taken.append(result is not None)
        return result

    monkeypatch.setattr(sqfr.dataset, "_counted_buckets", spy)
    return taken


def repeated(text, times=4):
    """The first line of ``text``, then the rest of it ``times`` times."""
    head, sep, body = text.partition("\n")
    return head + sep + body * times


#: Cases whose repeated body must still be read row by row: a quote or a row
#: that fails its check.
ROW_BY_ROW = {
    "blank-then-bad", "crlf", "empty-fields", "exponent-forms", "forbidden-label", "inf",
    "lenient-two-bad", "missing-field", "multiline-then-bad", "nan-score", "negative",
    "overflowing-float", "quoted-comma-label", "short-rows", "ten-to-309",
    "unparsable",
}
#: Cases that stop at the header, before either path.
HEADER_ONLY = {
    "blank-first-line", "empty-file", "missing-column", "repeated-column", "repeated-sample-column",
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_repeated_csv_load_parity(tmp_path, counted, name):
    assert_csv_parity(write(tmp_path / "d.csv", repeated(CSV_CASES[name])))
    if name in HEADER_ONLY:
        assert counted == []
    else:
        assert counted == [name not in ROW_BY_ROW] * 2


def rows_of(*pairs):
    return "".join(f"{group},q,{score}\n" for group, score in pairs)


DISTINCT = rows_of(*((g, repr(0.5 + k / 7)) for k in range(3000) for g in "AB"))

COUNTED_CASES = {
    # (text, whether the counted pass keeps it)
    "crlf": ((HEADER + rows_of(("A", 1), ("B", 2))).replace("\n", "\r\n")
             + "A,q,3\r\n\r\nB,q,4\r\n" * 50, True),
    "bom": ("\ufeff" + HEADER + rows_of(("A", 1), ("B", 2)) * 50, True),
    "bom-row-by-row": ("\ufeff" + HEADER + DISTINCT, False),
    "blank-lines": (HEADER + "\nA,q,1\n\n\nB,q,2\n\r\n\r" * 50 + "B,q,3\n\n", True),
    "no-final-newline": (HEADER + rows_of(("A", 1), ("B", 2)) * 50 + "A,q,1", True),
    "lf-and-crlf-mixed": (HEADER + "A,q,1\nA,q,1\r\nB,q,2\rB,q,2\n" * 50, True),
    "spellings-of-one-score": (HEADER + "A,q,1\nA,q,1.0\nA,q, 1\nA,q,1e0\nB,q,2\n" * 50,
                               True),
    "several-components": (HEADER + "".join(
        f"{g},c{k % 3},{k % 101}\n" for k in range(5000) for g in "ABC"), True),
    "bad-line-deep": (HEADER + rows_of(("A", 1), ("B", 2)) * 600 + "B,q,x\n"
                      + rows_of(("A", 3), ("B", 4)) * 600 + "A,q,-1\n" + "A,q,1\n" * 10, False),
    "quoted-fields": (HEADER + '"A",q,1\nB,q,2\n' * 50, False),
    "quote-in-score": (HEADER + 'A,q,1\nB,q,"2"\n' * 50, False),
    "mostly-distinct": (HEADER + DISTINCT, False),
    # gives up in the second block of lines: over half a block is distinct,
    # though not over half of the lines read
    "repeated-prefix-distinct-tail": (HEADER + rows_of(("A", 1), ("B", 2)) * 35_000
                                      + rows_of(*((g, repr(k / 3)) for k in range(1, 40_000)
                                                  for g in "AB")), False),
    "repeated-prefix-short-distinct-tail": (HEADER + rows_of(("A", 1), ("B", 2)) * 50_000
                                            + DISTINCT, True),
    # 40 % distinct lines throughout, so the count would grow with the file
    "mostly-repeated-but-long": (HEADER + "".join(
        f"A,q,{k / 7!r}\n" if k % 5 < 2 else f"B,q,{k % 101}\n" for k in range(100_000)),
        False),
    "negative-zero-mixed": (HEADER + "A,q,-0\nA,q,0\nB,q,0\nA,q,-0.0\nA,q,0.0\nB,q,-0\n" * 50,
                            True),
    "negative-zero-only": (HEADER + "A,q,-0\nB,q,1\n" * 50, True),
    "negative-zero-row-by-row": (HEADER + "A,q,-0\nB,q,0\nA,q,0\n" + DISTINCT, False),
}


@pytest.mark.parametrize("name", sorted(COUNTED_CASES))
def test_csv_paths_load_parity(tmp_path, counted, name):
    text, kept = COUNTED_CASES[name]
    assert_csv_parity(write(tmp_path / "d.csv", text))
    assert counted == [kept] * 2


def test_bad_line_deep_in_a_repeated_file_keeps_its_row_number(tmp_path):
    path = write(tmp_path / "d.csv", COUNTED_CASES["bad-line-deep"][0])
    with pytest.raises(ParseError, match=r"row 1202: score 'x' is not a number$"):
        load_csv(path)
    warnings = [(d.location, d.message) for d in load_csv(path, strict=False).provenance.warnings]
    assert warnings == [
        ("row 1202", "skipped row: row 1202: score 'x' is not a number"),
        ("row 2403", "skipped row: row 2403: negative score '-1'"),
    ]


def test_negative_zeros_keep_their_sign_and_come_first(tmp_path):
    text = HEADER + "A,q,0\nA,q,-0\nA,q,0\nB,q,-0.0\nB,q,1\n" * 3
    loaded = load_csv(write(tmp_path / "d.csv", text))
    signs = {label: np.signbit(g).tolist() for label, g in loaded.components["q"].groups.items()}
    assert signs == {"A": [True] * 3 + [False] * 6, "B": [True] * 3 + [False] * 3}


def test_counted_groups_are_ascending_views(tmp_path):
    rows = rows_of(*((g, (7 * k) % 101) for k in range(2000) for g in "AB"))
    grouped = load_csv(write(tmp_path / "d.csv", HEADER + rows)).components["q"]
    for g in grouped.groups.values():
        assert np.all(g[1:] >= g[:-1])
        assert g.base is not None  # a view: the canonicalizer did not sort it again


JSON_CASES = {
    "minimal": '{"components":{"q":{"A":[1,2],"B":[3]}}}',
    "empty-components": '{"components":{}}',
    "string-value": '{"components":{"q":{"A":[1,2,"x"],"B":[3]}}}',
    "negative": '{"components":{"q":{"A":[1],"B":[-3]}}}',
    "invalid-json": "{nope",
    "top-level-list": "[1]",
    "no-components": "{}",
    "components-not-object": '{"components": 3}',
    "groups-not-object": '{"components":{"q": []}}',
    "duplicate-top": '{"components":{"s":{"A":[1],"B":[2]}},"components":{}}',
    "duplicate-component": '{"components":{"s":{"A":[1],"B":[2]},"s":{"A":[3],"B":[4]}}}',
    "duplicate-group": '{"components":{"s":{"A":[1,2],"B":[5,6],"A":[50,60]}}}',
    "empty-group": '{"components":{"q":{"A":[],"B":[1]}}}',
    "scores-not-list": '{"components":{"q":{"A":3,"B":[1]}}}',
    "bool": '{"components":{"q":{"A":[1,true],"B":[1]}}}',
    "null": '{"components":{"q":{"A":[null],"B":[1]}}}',
    "nested-list": '{"components":{"q":{"A":[[1]],"B":[1]}}}',
    "nan": '{"components":{"q":{"A":[1,NaN],"B":[1]}}}',
    "infinity": '{"components":{"q":{"A":[Infinity],"B":[-Infinity]}}}',
    "float-overflow": '{"components":{"q":{"A":[1e309],"B":[1]}}}',
    "negative-zero": '{"components":{"q":{"A":[-0, -0.0],"B":[0]}}}',
    "beyond-2-53": f'{{"components":{{"q":{{"A":[{2**53 + 1}, 0.5],"B":[{2**64 + 3}]}}}}}}',
    "ten-to-308": f'{{"components":{{"q":{{"A":[{10**308}],"B":[1]}}}}}}',
    "mixed-int-float": '{"components":{"z":{"B":[2, 1.5, 3],"A":[0.1, 7]},"a":{"x":[1],"y":[2]}}}',
    "negative-before-string": '{"components":{"q":{"A":[1,-2,"x"],"B":[1]}}}',
    "string-before-negative": '{"components":{"q":{"A":[1,"x",-2],"B":[1]}}}',
    "nan-before-negative": '{"components":{"q":{"A":[NaN,-1],"B":[1]}}}',
    "negative-before-nan": '{"components":{"q":{"A":[-1,NaN],"B":[1]}}}',
    "bool-before-overflow": '{"components":{"q":{"A":[true,1e999],"B":[1]}}}',
    "negative-before-bool": '{"components":{"q":{"A":[2,-1,false],"B":[1]}}}',
    "bad-group-before-bad-component": '{"components":{"q":{"A":[-1],"B":[1]},"r":[]}}',
    "good-then-bad-group": '{"components":{"q":{"A":[1,2],"B":[3,"x"]}}}',
    "two-invalid-components": '{"components":{"r":{"A":[1]},"q":{"A":[],"B":[1],"C":[]}}}',
}


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_load_parity(tmp_path, name):
    path = write(tmp_path / "d.json", JSON_CASES[name])
    assert outcome(load_json, path) == outcome(oracle_load_json, path)


@pytest.mark.parametrize("values, bad", [
    (f"[{10**309}]", 0),
    (f"[1, 2, {10**400}]", 2),
    (f"[1, {-10**400}]", 1),
    (f'[1, {10**400}, "x"]', 1),
])
def test_json_int_beyond_float_range_is_not_finite(tmp_path, values, bad):
    path = write(tmp_path / "d.json", f'{{"components":{{"q":{{"A":[1],"B":{values}}}}}}}')
    with pytest.raises(OverflowError):
        oracle_load_json(path)
    with pytest.raises(ParseError, match=rf"components\.q\.B\[{bad}\]: score is not finite$"):
        load_json(path)


# --- the writer -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_dumps_csv_matches_on_scenarios(name):
    grouped = generate(builtin_scenarios()[name])
    assert dumps_csv(grouped) == oracle_dumps_csv({grouped.component_id: grouped})


def test_dumps_csv_matches_on_labels_that_need_quoting():
    comps = {
        "plain": GroupedScores("plain", {"A": [1.0, 0.1], "B": [1e308, 5e-324, -0.0]}),
        "with, comma": GroupedScores("with, comma", {" lead": [2.0], "trail ": [3.0]}),
        'q"uote': GroupedScores('q"uote', {'a"b': [1.5], "x,y": [2.5], "": [3.5]}),
        "": GroupedScores("", {"new\nline": [4.0], "cr\rlf": [5.0], "tab\t": [6.0]}),
        "empty-group": GroupedScores("empty-group", {"A": [], "B": [1.0]}),
    }
    assert dumps_csv(comps) == oracle_dumps_csv(comps)


def test_dumps_csv_matches_across_write_blocks():
    scores = np.random.default_rng(3).uniform(0, 100, 200_001)
    grouped = GroupedScores("q", {"A": scores, "B": scores[:7], "C": np.floor(scores)})
    assert dumps_csv(grouped) == oracle_dumps_csv({"q": grouped})


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_dumps_json_matches_on_scenarios(name):
    grouped = generate(builtin_scenarios()[name])
    assert dumps_json(grouped) == oracle_dumps_json({grouped.component_id: grouped})


def test_dumps_json_matches_on_extreme_values():
    comps = {
        "q": GroupedScores("q", {"A": [1.0, 0.1, 1e308, 5e-324, -0.0, 2.0**53 + 2], "B": []}),
        "r": GroupedScores("r", {"x,y": np.random.default_rng(5).uniform(0, 100, 1000)}),
    }
    assert dumps_json(comps) == oracle_dumps_json(comps)


def test_dumps_json_matches_on_labels_that_need_escaping():
    comps = {
        'q"uote\\': GroupedScores('q"uote\\', {'a"b': [1.5], "back\\slash": [2.5], "": [3.5]}),
        "ctrl\x00\x1f\x7f": GroupedScores("ctrl\x00\x1f\x7f", {"new\nline\r\t": [4.0], "x": []}),
        "ünï cödé €": GroupedScores("ünï cödé €", {"日本": [5.0], "\U0001f600\u2028": [6.0]}),
        "non-finite": GroupedScores("non-finite", {"A": [np.nan, np.inf, -np.inf, 1.0]}),
        "no-groups": GroupedScores("no-groups", {}),
    }
    assert dumps_json(comps) == oracle_dumps_json(comps)
    assert dumps_json({}) == oracle_dumps_json({})


def test_dumps_json_matches_on_labels_that_are_not_str():
    comps = {
        1: GroupedScores(1, {2.5: [1.0], True: [2.0], None: [3.0], 7: [4.0], "7": [5.0]}),
        float("nan"): GroupedScores("x", {False: [], float("-inf"): [6.0]}),
    }
    assert dumps_json(comps) == oracle_dumps_json(comps)
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        dumps_json({"q": GroupedScores("q", {("a",): [1.0]})})


def test_dumps_json_matches_across_write_blocks():
    scores = np.random.default_rng(4).uniform(0, 100, 200_001)
    grouped = GroupedScores("q", {"A": scores, "B": scores[:7], "C": np.floor(scores)})
    assert dumps_json(grouped) == oracle_dumps_json({"q": grouped})


def _mixed_scores():
    """Runs of repeats, of lengths that cross write blocks of 3 and of 7,
    around an all-distinct stretch; both zeros and both infinities side by
    side, NaNs of two payloads, and values whose repr is unusual."""
    other_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    runs = np.repeat([80.0, 81.0, 0.0, -0.0, 5e-324, 1e16, 2.0**53 + 2, np.inf, -np.inf],
                     [5, 8, 2, 3, 4, 9, 3, 2, 4])
    oddities = [0.0, -0.0, np.nan, other_nan, np.nan, other_nan, np.inf, -np.inf, 1e16]
    distinct = np.random.default_rng(7).uniform(0, 100, 23)
    return np.concatenate([runs, distinct, oddities, runs[::-1], distinct[:5]])


@pytest.mark.parametrize("block", [3, 7])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_match_the_oracle_on_repeated_and_distinct_blocks(monkeypatch, tmp_path, block, fmt):
    monkeypatch.setattr(sqfr.dataset, "_WRITE_BLOCK", block)
    dumps, save, oracle = {"csv": (dumps_csv, save_csv, oracle_dumps_csv),
                           "json": (dumps_json, save_json, oracle_dumps_json)}[fmt]
    mixed = _mixed_scores()
    comps = {"q": GroupedScores("q", {"A": mixed, "B": [0.0, -0.0, 0.0, -0.0], "C": mixed[:1]})}
    gathered = []  # the size of each block spelled per distinct value
    unique = np.unique

    def spy(ar, *args, **kwargs):
        if kwargs.get("return_inverse"):
            gathered.append(ar.size)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    text = dumps(comps)
    assert text == oracle(comps)
    blocks = sum(-(-len(g) // block) for g in comps["q"].groups.values())
    assert 0 < len(gathered) < blocks
    # finite blocks of one value each go per distinct value, distinct floats score by score
    gathered.clear()
    dumps({"r": GroupedScores("r", {"A": np.repeat([80.0, 81.0], block), "B": np.arange(block) + 0.5})})
    assert gathered == [block, block]
    path = tmp_path / f"d.{fmt}"
    save(comps, path)
    assert path.read_bytes() == text.encode("utf-8")


#: Components that save_csv and save_json must write exactly as the
#: dumps_* functions text them.
SAVE_CASES = {
    "longer-than-a-write-block": lambda: {"q": GroupedScores("q", {
        "A": np.random.default_rng(6).uniform(0, 100, 2 * sqfr.dataset._WRITE_BLOCK + 3),
        "Å": [1.0],
        "quantized": np.floor(np.random.default_rng(6).uniform(0, 101, sqfr.dataset._WRITE_BLOCK + 9)),
    })},
    "labels-to-quote-or-escape": lambda: {
        'q"uote, \\': GroupedScores('q"uote, \\', {"new\nline\r": [1.5], "ünï €": [2.5], "": [3.5]}),
        "ctrl\x00\x1f": GroupedScores("ctrl\x00\x1f", {"\U0001f600\u2028": [4.0], "tab\t": []}),
    },
    "keys-that-are-not-str": lambda: {
        1: GroupedScores(1, {2.5: [1.0], True: [2.0], None: [3.0], 7: [4.0], "7": [5.0]}),
    },
    "empty-collection": lambda: {},
    "non-finite-scores": lambda: {
        "q": GroupedScores("q", {"A": [np.nan, np.inf, -np.inf, 1.0], "B": [2.0]}),
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(SAVE_CASES))
def test_save_writes_exactly_the_dumped_text(tmp_path, case, fmt):
    dumps, save = {"csv": (dumps_csv, save_csv), "json": (dumps_json, save_json)}[fmt]
    comps = SAVE_CASES[case]()
    path = tmp_path / f"d.{fmt}"
    save(comps, path)
    assert path.read_bytes() == dumps(comps).encode("utf-8")


def test_save_json_raises_the_dumps_type_error(tmp_path):
    comps = {"q": GroupedScores("q", {("a",): [1.0]})}
    with pytest.raises(TypeError) as dumped:
        dumps_json(comps)
    with pytest.raises(TypeError) as saved:
        save_json(comps, tmp_path / "d.json")
    assert str(saved.value) == str(dumped.value)
    assert "keys must be str, int, float, bool or None, not tuple" in str(saved.value)


# --- round trip -----------------------------------------------------------

labels = st.text(
    st.characters(blacklist_characters='"\r\n', blacklist_categories=("Cs",)),
    min_size=1, max_size=8,
)
scores = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e308, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=100).map(float),
        st.just(-0.0),
    ),
    min_size=1, max_size=12,
)
datasets = st.dictionaries(
    labels, st.dictionaries(labels, scores, min_size=2, max_size=4), min_size=1, max_size=3,
)


@given(datasets)
@settings(max_examples=150, deadline=None)
def test_written_and_reloaded_csv_equals_the_oracle_load(tmp_path_factory, doc):
    comps = {cid: GroupedScores(cid, groups) for cid, groups in doc.items()}
    text = dumps_csv(comps)
    assert text == oracle_dumps_csv(comps)
    assert dumps_json(comps) == oracle_dumps_json(comps)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    path.write_text(text, encoding="utf-8")
    loaded = assert_csv_parity(path)
    assert loaded[0] == "loaded"
    assert loaded[3] == sum(len(v) for groups in doc.values() for v in groups.values())


#: labels the CSV writer leaves unquoted, so that each line is one record
bare_labels = labels.filter(lambda label: "," not in label)


@given(
    st.dictionaries(bare_labels, st.dictionaries(bare_labels, scores, min_size=2, max_size=4),
                    min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rows_written_thrice_in_any_order_load_through_the_counted_pass(
        tmp_path_factory, counted, doc, rnd):
    comps = {cid: GroupedScores(cid, groups) for cid, groups in doc.items()}
    # split at LF only: str.splitlines would also split a label at \x0b, \x85 or \u2028
    header, *rows = dumps_csv(comps).removesuffix("\n").split("\n")
    rows *= 3
    rnd.shuffle(rows)
    path = tmp_path_factory.mktemp("thrice") / "d.csv"
    path.write_text("\n".join([header, *rows, ""]), encoding="utf-8")
    counted.clear()
    assert assert_csv_parity(path)[0] == "loaded"
    assert counted == [True, True]
