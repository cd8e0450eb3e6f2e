"""Seeded synthetic score scenarios and published aggregate fixtures.

Generation is reproducible down to the bit for a fixed spec: samples come
from the raw 64-bit PCG64 stream (stable across platforms and numpy
releases, unlike the higher-level distribution methods) through a
documented transform:

* uniform in (0, 1]: ``((raw >> 11) + 1) * 2**-53``
* standard normals: Box-Muller on consecutive uniform pair blocks; for a
  request of n values the first ceil(n/2) use the cosine branch and the
  remainder the sine branch
* mixture components: one uniform per sample, mapped through the
  cumulative weights, before the normal draws of that group
* each normal is scaled by its stddev and shifted by its mean; every
  sample is then clamped, rounded and clamped again when quantized (a
  constant never is), and last 0.0 is added to it, so a -0 comes out as
  0, the same quality

Groups consume the stream in listed order. The same transform re-derives
the identical samples in any language with IEEE doubles and PCG64.

Each group is drawn in the buffer of its own raw draws: a normal draw's
2*ceil(n/2) raws become its samples, block by block of ``_DRAW_BLOCK``
(a block's u1 slots take its cosine branch and its u2 slots its sine
branch), and the steps from scaling to adding 0.0 run in place. A
mixture draws its normals from a copy of the bit generator advanced past
its n pick uniforms (``PCG64.advance``), then the picks from the
generator block by block, and hands the stream on from the copy's state;
so it holds no buffer of picks. ``draw_groups`` checks the spec and yields
the groups one at a time, holding none it has handed out, so a caller
that writes each group and lets it go, as ``sqfr simulate`` does, holds
one group and one block of temporaries; ``generate`` keeps them all.
The values, and so the written bytes, are those of the transform above
step for step, whatever the block size.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import read_json
from .errors import ConfigError
from .measures import gc_rate, gini_coefficient
from .types import GroupedScores, is_finite_number, is_int

DISTRIBUTIONS = ("normal", "mixture_of_normals", "constant")

_TWO_PI = 2.0 * math.pi

#: Draws transformed per step: the block temporaries of a group's draw are
#: this many 8-byte values each, whatever the group size.
_DRAW_BLOCK = 1 << 14

#: Samples one group, and one scenario in all, may ask for; checked before
#: anything is drawn, so an oversized spec is refused rather than allocated.
MAX_GROUP_SAMPLES = 10_000_000
MAX_SCENARIO_SAMPLES = 50_000_000


@dataclass
class GroupSpec:
    """One group of a scenario: a named distribution plus its parameters.

    ``parameters`` by distribution:
      normal: {"mean", "stddev"}
      mixture_of_normals: {"means", "stddevs", "weights"} (equal-length lists)
      constant: {"value"}
    """

    label: str
    distribution: str
    parameters: dict
    sample_count: int


@dataclass
class ScenarioSpec:
    name: str
    groups: list[GroupSpec]
    seed: int
    clamp_range: tuple[float, float] = (0.0, 100.0)
    quantize: bool = True

    def require_valid(self) -> None:
        """Raise ConfigError naming the first field that is of the wrong type
        or out of range; ``draw_groups``, and so ``generate``, calls it on every
        spec."""
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"scenario name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.groups, list) or not all(isinstance(g, GroupSpec) for g in self.groups):
            raise ConfigError(f"scenario '{self.name}': groups must be a list of objects")
        if not self.groups:
            raise ConfigError(f"scenario '{self.name}' has no groups")
        labels = [g.label for g in self.groups]
        # the type test comes first: a list or dict label cannot go into a set
        if not all(isinstance(l, str) and l for l in labels) or len(set(labels)) != len(labels):
            raise ConfigError(f"scenario '{self.name}': group labels must be unique and non-empty"
                              f" strings, got {labels!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"scenario '{self.name}': seed must be a non-negative integer, got {self.seed!r}"
            )
        if not isinstance(self.quantize, bool):
            raise ConfigError(f"scenario '{self.name}': quantize must be true or false,"
                              f" got {self.quantize!r}")
        clamp = self.clamp_range
        # low >= 0: the loaders refuse a negative score, so none may be drawn
        if (not isinstance(clamp, (list, tuple)) or len(clamp) != 2
                or not all(map(is_finite_number, clamp)) or not 0 <= clamp[0] < clamp[1]):
            raise ConfigError(f"scenario '{self.name}': clamp_range must be two finite numbers"
                              f" [low, high] with 0 <= low < high, got {clamp!r}")
        for g in self.groups:
            where = f"scenario '{self.name}', group '{g.label}'"
            if g.distribution not in DISTRIBUTIONS:
                raise ConfigError(
                    f"{where}: unknown distribution {g.distribution!r};"
                    f" expected one of {DISTRIBUTIONS}"
                )
            if not is_int(g.sample_count):
                raise ConfigError(f"{where}: sample_count must be an integer, got {g.sample_count!r}")
            if g.sample_count < 1:
                raise ConfigError(f"{where}: sample_count must be >= 1")
            if g.sample_count > MAX_GROUP_SAMPLES:
                raise ConfigError(f"{where}: sample_count must be at most {MAX_GROUP_SAMPLES}")
            if not isinstance(g.parameters, dict):
                raise ConfigError(f"{where}: parameters must be an object, got {g.parameters!r}")
            _check_parameters(where, g)
        total = sum(g.sample_count for g in self.groups)
        if total > MAX_SCENARIO_SAMPLES:
            raise ConfigError(
                f"scenario '{self.name}': sample_count sums to {total} over its groups;"
                f" at most {MAX_SCENARIO_SAMPLES} in all"
            )

    @classmethod
    def from_dict(cls, doc) -> "ScenarioSpec":
        """The spec a JSON document describes. Its values are taken as they
        are and checked by ``require_valid``; ConfigError names the first
        field that is missing, of the wrong type or out of range."""
        if not isinstance(doc, dict):
            raise ConfigError(f"scenario spec must be an object, got {type(doc).__name__}")
        name, groups, seed = _required(doc, ("name", "groups", "seed"), "")
        if isinstance(groups, list):
            fields = ("label", "distribution", "parameters", "sample_count")
            groups = [GroupSpec(*_required(g, fields, f"groups[{i}]."))
                      if isinstance(g, dict) else g for i, g in enumerate(groups)]
        optional = {key: doc[key] for key in ("clamp_range", "quantize") if key in doc}
        spec = cls(name, groups, seed, **optional)
        spec.require_valid()
        return spec

    @classmethod
    def from_json_file(cls, path) -> "ScenarioSpec":
        """The spec in a UTF-8 JSON file; ConfigError for bytes that are not
        UTF-8, invalid JSON, a key repeated within one object (with the
        object's JSON path) or any fault ``from_dict`` finds."""
        return cls.from_dict(read_json(path, ConfigError))


def _required(doc: dict, keys: tuple, where: str) -> list:
    """The values of ``keys`` in ``doc``, a spec object at JSON path ``where``."""
    for key in keys:
        if key not in doc:
            raise ConfigError(f"scenario spec: missing field '{where}{key}'")
    return [doc[key] for key in keys]


def _check_parameters(where: str, g: GroupSpec) -> None:
    p = g.parameters
    if g.distribution == "constant":
        if "value" in p:
            _require_finite(where, "value", [p["value"]])
        if "value" not in p or p["value"] < 0:
            raise ConfigError(f"{where}: constant needs a non-negative 'value'")
    elif g.distribution == "normal":
        if "mean" not in p or "stddev" not in p:
            raise ConfigError(f"{where}: normal needs 'mean' and 'stddev'")
        for key in ("mean", "stddev"):
            _require_finite(where, key, [p[key]])
        if p["stddev"] < 0:
            raise ConfigError(f"{where}: stddev must be >= 0")
    else:
        for key in ("means", "stddevs", "weights"):
            if key not in p or not isinstance(p[key], (list, tuple)) or not p[key]:
                raise ConfigError(f"{where}: mixture needs non-empty list '{key}'")
            _require_finite(where, key, p[key])
        if not (len(p["means"]) == len(p["stddevs"]) == len(p["weights"])):
            raise ConfigError(f"{where}: mixture parameter lists must have equal length; got"
                              f" {len(p['means'])} 'means', {len(p['stddevs'])} 'stddevs'"
                              f" and {len(p['weights'])} 'weights'")
        if any(s < 0 for s in p["stddevs"]):
            raise ConfigError(f"{where}: stddevs must be >= 0")
        # each weight at most 1, so a sum of integer weights stays within the float range
        if any(not 0 <= w <= 1 for w in p["weights"]) or abs(sum(p["weights"]) - 1.0) > 1e-9:
            raise ConfigError(f"{where}: mixture weights must be non-negative and sum to 1")


def _require_finite(where: str, key: str, values) -> None:
    for value in values:
        if not is_finite_number(value):
            raise ConfigError(f"{where}: parameter '{key}' must be a finite number, got {value!r}")


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniforms of the raw draws ``raw``, written over them as float64."""
    raw >>= np.uint64(11)
    raw += np.uint64(1)
    return np.multiply(raw, 2.0**-53, out=raw.view(np.float64))


def _normals(bitgen, count: int) -> np.ndarray:
    """``count`` standard normals in the buffer of their own raw draws: each
    block's cosine branch goes over its u1 slots and its sine branch over
    its u2 slots, so the first ``count`` slots hold the documented order."""
    half = (count + 1) // 2
    raw = bitgen.random_raw(2 * half)
    for start in range(0, half, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, half)
        r = _uniforms(raw[start:stop])
        angle = _uniforms(raw[half + start:half + stop])
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle *= _TWO_PI
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= r
        r *= cos
    return raw.view(np.float64)[:count]


def draw_groups(spec: ScenarioSpec) -> Iterator[tuple[str, np.ndarray]]:
    """Check the spec (ConfigError names its first fault), then return an
    iterator of each group's ``(label, samples)``, in the spec's order.

    A group is drawn only when the iterator is asked for it, and none is
    kept once it is handed out: a caller that lets each group go before
    asking for the next holds one group at a time.
    """
    spec.require_valid()
    bitgen = np.random.PCG64(spec.seed)
    # float() converts as numpy does, and keeps every in-place step float64
    lo, hi = map(float, spec.clamp_range)
    # each group is drawn in a call, so the generator holds none between two yields
    return ((g.label, _draw_group(bitgen, g, lo, hi, spec.quantize)) for g in spec.groups)


def _draw_group(bitgen, g: GroupSpec, lo: float, hi: float, quantize: bool) -> np.ndarray:
    n = g.sample_count
    p = g.parameters
    if g.distribution == "constant":
        # emits the exact requested value: clamped but never quantized
        x = np.full(n, float(p["value"]))
        quantize = False
    elif g.distribution == "normal":
        x = _normals(bitgen, n)
        x *= float(p["stddev"])
        x += float(p["mean"])
    else:
        x = _mixture(bitgen, n, p)
    np.clip(x, lo, hi, out=x)
    if quantize:
        np.rint(x, out=x)
        np.clip(x, lo, hi, out=x)
    x += 0.0  # a -0 is the quality 0, and is written as one
    return x


def _mixture(bitgen, n: int, p: dict) -> np.ndarray:
    """``n`` mixture samples. The stream gives the n pick uniforms before the
    normals' raws, so the normals come from a copy of ``bitgen`` advanced
    past the picks, the picks then from ``bitgen`` block by block, and the
    stream goes on from where the copy stopped: the values of the transform
    without a buffer of n picks."""
    ahead = copy.deepcopy(bitgen)
    ahead.advance(n)
    x = _normals(ahead, n)
    cum = np.cumsum(np.asarray(p["weights"], dtype=np.float64))
    means = np.asarray(p["means"], dtype=np.float64)
    stddevs = np.asarray(p["stddevs"], dtype=np.float64)
    for start in range(0, n, _DRAW_BLOCK):
        part = x[start:start + _DRAW_BLOCK]
        pick = np.searchsorted(cum, _uniforms(bitgen.random_raw(part.size)), side="left")
        np.minimum(pick, cum.size - 1, out=pick)
        part *= stddevs.take(pick)
        part += means.take(pick)
    bitgen.state = ahead.state
    return x


def generate(spec: ScenarioSpec) -> GroupedScores:
    """Draw the scenario's samples; pure function of the spec (seed included)."""
    return GroupedScores(spec.name, dict(draw_groups(spec)))


def _normal(label: str, mean: float, stddev: float, n: int = 500) -> GroupSpec:
    return GroupSpec(label, "normal", {"mean": mean, "stddev": stddev}, n)


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """Named demo scenarios mirroring the published aggregate fixtures.

    q1/q2: three normal groups with a slight / strong mean offset. q3: a
    bimodal group against a unimodal one with matching means, so only the
    low-weighted mean separates them (gap > 5 points). q5: three
    well-separated tight normals, where the discard-gap measure drops far
    below the Gini-based ones. all-equal: every group constant at 87.5.
    """
    return {
        "q1": ScenarioSpec(
            "q1", [_normal("A", 81.3, 3.0), _normal("B", 85.3, 3.0), _normal("C", 86.1, 3.0)],
            seed=101,
        ),
        "q2": ScenarioSpec(
            "q2", [_normal("A", 76.6, 3.0), _normal("B", 89.4, 3.0), _normal("C", 90.2, 3.0)],
            seed=102,
        ),
        "q3": ScenarioSpec(
            "q3",
            [
                GroupSpec(
                    "A",
                    "mixture_of_normals",
                    {"means": [72.0, 92.0], "stddevs": [3.0, 3.0], "weights": [0.5, 0.5]},
                    500,
                ),
                _normal("B", 82.5, 2.5),
            ],
            seed=103,
        ),
        "q5": ScenarioSpec(
            "q5", [_normal("A", 72.3, 2.0), _normal("B", 83.7, 2.0), _normal("C", 90.4, 2.0)],
            seed=105,
        ),
        "all-equal": ScenarioSpec(
            "all-equal",
            [GroupSpec(label, "constant", {"value": 87.5}, 200) for label in "ABCDE"],
            seed=1,
        ),
    }


@dataclass
class AggregateFixture:
    """Published per-group aggregates with their expected fairness scores.

    ``expected`` maps measure keys to the published (rounded) values;
    ``tolerance`` is half the published rounding unit. ``evaluate``
    recomputes the scores from the aggregates for external verification.
    """

    name: str
    aggregator_kind: str
    group_values: dict[str, float]
    expected: dict[str, float]
    source: str
    tolerance: float = 0.005

    def evaluate(self) -> dict[str, float]:
        gc = gini_coefficient(self.group_values)
        return {measure: gc_rate(measure, gc) for measure in self.expected}


def _abc(*values: float) -> dict[str, float]:
    return {label: float(v) for label, v in zip("ABCDE", values)}


def builtin_fixtures() -> list[AggregateFixture]:
    """The published aggregate scenarios used as golden tests."""
    fixtures = [
        AggregateFixture("q1-mean", "mean", _abc(81.3, 85.3, 86.1),
                         {"mean_gc_sqfr": 0.98}, "slight-bias demo"),
        AggregateFixture("q1-median", "median", _abc(82, 85.5, 85),
                         {"median_gc_sqfr": 0.99}, "slight-bias demo"),
        AggregateFixture("q2-mean", "mean", _abc(76.6, 89.4, 90.2),
                         {"mean_gc_sqfr": 0.95}, "strong-bias demo"),
        AggregateFixture("q2-median", "median", _abc(77, 90, 90),
                         {"median_gc_sqfr": 0.95}, "strong-bias demo"),
        AggregateFixture("cube-one-strong-bias", "mean", _abc(35, 95, 89),
                         {"mean_gc_sqfr": 0.73, "mean_gc_csqfr": 0.38}, "cubed-rate comparison"),
        AggregateFixture("cube-one-slight-bias", "mean", _abc(67, 82, 89),
                         {"mean_gc_sqfr": 0.91, "mean_gc_csqfr": 0.75}, "cubed-rate comparison"),
        AggregateFixture("cube-all-different", "mean", _abc(30, 50, 95),
                         {"mean_gc_sqfr": 0.63, "mean_gc_csqfr": 0.25}, "cubed-rate comparison"),
        AggregateFixture("cube-all-similar", "mean", _abc(84, 89, 87),
                         {"mean_gc_sqfr": 0.98, "mean_gc_csqfr": 0.94}, "cubed-rate comparison"),
        AggregateFixture("q3-mean", "mean", _abc(81.95, 82.5),
                         {"mean_gc_sqfr": 0.997}, "bimodal LWM demo", tolerance=0.0005),
        AggregateFixture("q3-median", "median", _abc(81.5, 82.5),
                         {"median_gc_sqfr": 0.994}, "bimodal LWM demo", tolerance=0.0005),
        # From these rounded aggregates the cubed rate computes to 0.889541,
        # 4.1e-5 outside the three-decimal rounding radius of the published
        # 0.889 (which was cubed from unrounded aggregates). Kept as
        # published, so this one cell fails its check. See the test notes.
        AggregateFixture("q3-lwm", "lwm", _abc(75.4, 81.4),
                         {"lwm_gc_sqfr": 0.962, "lwm_gc_csqfr": 0.889},
                         "bimodal LWM demo", tolerance=0.0005),
        AggregateFixture("q5-mean", "mean", _abc(72.3, 83.7, 90.4),
                         {"mean_gc_sqfr": 0.93}, "discard-gap demo"),
        AggregateFixture("q5-median", "median", _abc(72, 83.5, 90),
                         {"median_gc_sqfr": 0.93}, "discard-gap demo"),
        AggregateFixture("five-one-strong-bias", "mean", _abc(31.4, 84.4, 84.9, 85.2, 86.8),
                         {"mean_gc_sqfr": 0.85, "mean_gc_csqfr": 0.61}, "five-group comparison"),
        AggregateFixture("five-two-strong-bias", "mean", _abc(31.1, 26.7, 85, 85.1, 87.1),
                         {"mean_gc_sqfr": 0.72, "mean_gc_csqfr": 0.38}, "five-group comparison"),
        AggregateFixture("five-one-slight-bias", "mean", _abc(79.1, 85.6, 85, 85.1, 86.9),
                         {"mean_gc_sqfr": 0.98, "mean_gc_csqfr": 0.94}, "five-group comparison"),
        AggregateFixture("five-two-slight-bias", "mean", _abc(76, 77.5, 85.6, 86.9, 85.8),
                         {"mean_gc_sqfr": 0.96, "mean_gc_csqfr": 0.89}, "five-group comparison"),
        AggregateFixture("five-all-similar", "mean", _abc(85.7, 87.5, 85.6, 86.6, 86.5),
                         {"mean_gc_sqfr": 0.99, "mean_gc_csqfr": 0.98}, "five-group comparison"),
        AggregateFixture("five-all-equal", "mean", _abc(87.5, 87.5, 87.5, 87.5, 87.5),
                         {"mean_gc_sqfr": 1.0, "mean_gc_csqfr": 1.0},
                         "five-group comparison", tolerance=0.0),
        AggregateFixture("five-all-different", "mean", _abc(87.5, 72.2, 25, 14.3, 47.3),
                         {"mean_gc_sqfr": 0.61, "mean_gc_csqfr": 0.22}, "five-group comparison"),
    ]
    return fixtures
