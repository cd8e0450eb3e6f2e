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

Groups consume the stream in listed order. The same transform re-derives
the identical samples in any language with IEEE doubles and PCG64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .measures import csqfr, gini_coefficient, sqfr
from .types import GroupedScores

DISTRIBUTIONS = ("normal", "mixture_of_normals", "constant")

_TWO_PI = 2.0 * math.pi


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
        """Raise ConfigError naming the first field that is missing, of the
        wrong type or out of range; ``generate`` calls it on every spec."""
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        if not self.groups:
            raise ConfigError(f"scenario '{self.name}' has no groups")
        labels = [g.label for g in self.groups]
        if len(set(labels)) != len(labels) or any(not l for l in labels):
            raise ConfigError(f"scenario '{self.name}': group labels must be unique and non-empty")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"scenario '{self.name}': seed must be a non-negative integer, got {self.seed!r}"
            )
        if not isinstance(self.quantize, bool):
            raise ConfigError(f"scenario '{self.name}': quantize must be true or false,"
                              f" got {self.quantize!r}")
        if len(self.clamp_range) != 2 or not all(map(_is_finite, self.clamp_range)):
            raise ConfigError(f"scenario '{self.name}': clamp_range must be two finite numbers,"
                              f" got {list(self.clamp_range)!r}")
        if not (self.clamp_range[0] < self.clamp_range[1]):
            raise ConfigError(f"scenario '{self.name}': clamp_range must be [low, high] with low < high")
        for g in self.groups:
            where = f"scenario '{self.name}', group '{g.label}'"
            if g.distribution not in DISTRIBUTIONS:
                raise ConfigError(
                    f"{where}: unknown distribution {g.distribution!r};"
                    f" expected one of {DISTRIBUTIONS}"
                )
            if not _is_int(g.sample_count):
                raise ConfigError(f"{where}: sample_count must be an integer, got {g.sample_count!r}")
            if g.sample_count < 1:
                raise ConfigError(f"{where}: sample_count must be >= 1")
            _check_parameters(where, g)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioSpec":
        try:
            groups = [
                GroupSpec(
                    label=g["label"],
                    distribution=g["distribution"],
                    parameters=dict(g.get("parameters", {})),
                    sample_count=_int_like(g["sample_count"]),
                )
                for g in doc["groups"]
            ]
            spec = cls(
                name=doc["name"],
                groups=groups,
                seed=_int_like(doc["seed"]),
                clamp_range=tuple(doc.get("clamp_range", (0.0, 100.0))),
                quantize=doc.get("quantize", True),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed scenario spec: {exc!r}") from None
        spec.require_valid()
        return spec

    @classmethod
    def from_json_file(cls, path) -> "ScenarioSpec":
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_dict(doc)


def _int_like(value):
    """``value`` unchanged once ``int()`` accepts it, so text and null fail
    as malformed here and ``require_valid`` names any other non-integer."""
    int(value)
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite int or float (a bool is not a number here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
            raise ConfigError(f"{where}: mixture parameter lists must have equal length")
        if any(s < 0 for s in p["stddevs"]):
            raise ConfigError(f"{where}: stddevs must be >= 0")
        if any(w < 0 for w in p["weights"]) or abs(sum(p["weights"]) - 1.0) > 1e-9:
            raise ConfigError(f"{where}: mixture weights must be non-negative and sum to 1")


def _require_finite(where: str, key: str, values) -> None:
    for value in values:
        if not _is_finite(value):
            raise ConfigError(f"{where}: parameter '{key}' must be a finite number, got {value!r}")


def _uniforms(bitgen, count: int) -> np.ndarray:
    raw = bitgen.random_raw(count)
    return ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53


def _normals(bitgen, count: int) -> np.ndarray:
    half = (count + 1) // 2
    u1 = _uniforms(bitgen, half)
    u2 = _uniforms(bitgen, half)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(_TWO_PI * u2), r * np.sin(_TWO_PI * u2)])[:count]


def generate(spec: ScenarioSpec) -> GroupedScores:
    """Draw the scenario's samples; pure function of the spec (seed included)."""
    spec.require_valid()
    bitgen = np.random.PCG64(spec.seed)
    lo, hi = spec.clamp_range
    groups: dict[str, np.ndarray] = {}
    for g in spec.groups:
        n = g.sample_count
        p = g.parameters
        if g.distribution == "constant":
            # emits the exact requested value: clamped but never quantized
            x = np.clip(np.full(n, float(p["value"])), lo, hi)
            groups[g.label] = x
            continue
        if g.distribution == "normal":
            x = p["mean"] + p["stddev"] * _normals(bitgen, n)
        else:
            weights = np.asarray(p["weights"], dtype=np.float64)
            cum = np.cumsum(weights)
            picks = np.searchsorted(cum, _uniforms(bitgen, n), side="left")
            picks = np.minimum(picks, weights.size - 1)
            means = np.asarray(p["means"], dtype=np.float64)[picks]
            stddevs = np.asarray(p["stddevs"], dtype=np.float64)[picks]
            x = means + stddevs * _normals(bitgen, n)
        x = np.clip(x, lo, hi)
        if spec.quantize:
            x = np.clip(np.rint(x), lo, hi)
        groups[g.label] = x
    return GroupedScores(spec.name, groups)


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
        return {
            measure: csqfr(gc) if measure.endswith("_csqfr") else sqfr(gc)
            for measure in self.expected
        }


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
