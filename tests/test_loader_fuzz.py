"""Mutated CSV and JSON files against the per-row loader oracles.

Hypothesis flips and inserts bytes, truncates, repeats keys and columns,
and rewrites numbers to the edges of the float range. Every mutated file
must either load exactly as the oracle of ``tests/test_io_parity.py``
loads it (bits, order, row count and lenient warnings), or raise a
ParseError, ValidationError or ConfigError that says where the input is
wrong. Any other exception fails the test.

Each CSV mutation is applied to two seed files: one of repeated lines,
which ``load_csv`` reads by counting distinct lines, and one of distinct
lines, which it reads row by row.
"""

import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from sqfr import ConfigError, ParseError, ValidationError
from sqfr.dataset import load_csv, load_json
from test_io_parity import oracle_load_csv, oracle_load_json, outcome

TYPED = (ParseError, ValidationError, ConfigError)

#: What a typed error must start with, after the file path if it has one:
#: a CSV row, a byte offset, a JSON path or line, the header, or a component.
LOCATED = re.compile(
    r"row \d+: |invalid UTF-8 at byte \d+$|\$: |components[.:\[]|.*: duplicate key '"
    r"|invalid JSON: .* line \d+ column \d+|empty file, expected a header row$"
    r"|missing required column|column\(s\) .* in the header|component '"
    r"|dataset contains no score records$",
    re.DOTALL,
)

HEADER = b"group,component,score\n"
ROWS = [(g, c, s) for c in ("q", "r") for g, s in (("A", "81"), ("B", "74.5"), ("C", "90"))]
REPEATED_CSV = HEADER + b"".join(f"{g},{c},{s}\n".encode() for _ in range(10) for g, c, s in ROWS)
DISTINCT_CSV = HEADER + b"".join(
    f"{g},{c},{float(s) + k / 64!r}\n".encode() for k in range(10) for g, c, s in ROWS
)
JSON_DOC = {"components": {"q": {"A": [81, 74.5, 0, 1e-3], "B": [90.0, 12]},
                           "r": {"A": [1.5], "B": [2, 3]}}}
JSON_SEEDS = (json.dumps(JSON_DOC).encode(), json.dumps(JSON_DOC, indent=2).encode())

NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
EDGE_NUMBERS = [
    b"1.7976931348623157e308", b"1.7976931348623158e308", b"1.7976931348623159e308",
    b"1e308", b"1e309", b"2.2250738585072014e-308", b"5e-324", b"4e-324", b"1e-400",
    b"-1e-400", b"-0", b"-0.0", b"0", b"0.0", b"9007199254740993",
    str(10**308).encode(), str(10**309).encode(), b"1" + b"0" * 400,
]
INSERTS = [b'"', b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b",", b"\xff", b"\xc3", b"\x00", b"-0"]
#: A JSON member whose value holds no nested array or object.
JSON_MEMBER = re.compile(rb'"[^"\\]*": (?:\[[^\[\]{}]*\]|\{[^{}]*\})')

position = st.integers(0, 1 << 20)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), position, st.integers(1, 255)),
        st.tuples(st.just("truncate"), position),
        st.tuples(st.just("insert"), position, st.sampled_from(INSERTS)),
        st.tuples(st.just("number"), position, st.sampled_from(EDGE_NUMBERS)),
        st.tuples(st.just("repeat-key"), position),
    ),
    min_size=1, max_size=3,
)


def mutate(data: bytes, steps, is_json: bool) -> bytes:
    for step in steps:
        kind, at = step[0], step[1]
        if kind == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ step[2]]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at % (len(data) + 1)]
        elif kind == "insert":
            at %= len(data) + 1
            data = data[:at] + step[2] + data[at:]
        elif kind == "number":
            spans = [m.span() for m in NUMBER.finditer(data)]
            if spans:
                lo, hi = spans[at % len(spans)]
                data = data[:lo] + step[2] + data[hi:]
        elif kind == "repeat-key" and is_json:
            members = [m.span() for m in JSON_MEMBER.finditer(data)]
            if members:
                lo, hi = members[at % len(members)]
                data = data[:hi] + b", " + data[lo:hi] + data[hi:]
        elif kind == "repeat-key":  # a CSV header naming a column twice
            name = (b"group", b"component", b"score", b"sample_id")[at % 4]
            end = data.find(b"\n")
            end = len(data) if end < 0 else end
            data = data[:end] + b"," + name + data[end:]
    return data


def loads_as_oracle_or_says_where(load, oracle, path, **kwargs):
    try:
        loaded = load(path, **kwargs)
    except TYPED as exc:
        message = str(exc)
        prefix = f"{path}: "
        where = message[len(prefix):] if message.startswith(prefix) else message
        assert LOCATED.match(where), message
        return
    assert outcome(lambda: loaded) == outcome(oracle, path, **kwargs)


fuzz_settings = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)


@given(mutations)
@fuzz_settings
def test_mutated_csv_loads_as_the_oracle_or_says_where(tmp_path_factory, steps):
    directory = tmp_path_factory.mktemp("csv")
    for n, seed in enumerate((REPEATED_CSV, DISTINCT_CSV)):
        path = directory / f"d{n}.csv"
        path.write_bytes(mutate(seed, steps, is_json=False))
        for strict in (True, False):
            loads_as_oracle_or_says_where(load_csv, oracle_load_csv, path, strict=strict)


@given(mutations)
@fuzz_settings
def test_mutated_json_loads_as_the_oracle_or_says_where(tmp_path_factory, steps):
    directory = tmp_path_factory.mktemp("json")
    for n, seed in enumerate(JSON_SEEDS):
        path = directory / f"d{n}.json"
        path.write_bytes(mutate(seed, steps, is_json=True))
        loads_as_oracle_or_says_where(load_json, oracle_load_json, path)
