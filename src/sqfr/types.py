"""Domain types for per-group quality scores and fairness results.

A quality-score dataset is organized per quality component, with one list
of scalar scores per demographic group. Group labels are opaque strings;
no demographic taxonomy is imposed. Scores must be finite and non-negative
but are otherwise unconstrained (the conventional scale is 0-100).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError

#: Canonical keys of the six fairness measures, in report order. The CLI
#: spells them with hyphens instead of underscores.
ALL_MEASURES = (
    "mean_gc_sqfr",
    "median_gc_sqfr",
    "mean_gc_csqfr",
    "lwm_gc_sqfr",
    "lwm_gc_csqfr",
    "mdg_sqfr",
)

AGGREGATOR_KINDS = ("mean", "median", "lwm")


@dataclass
class GroupedScores:
    """Per-group quality scores for one quality component.

    ``groups`` is an ordered mapping from group label to a float64 array of
    scores. Arrays are converted on construction; treat them as immutable
    afterwards. Valid collections have at least two groups, at least one
    score per group, and only finite non-negative scores; :meth:`problems`
    lists what breaks that. :meth:`validated` is the one gate: it is the
    only way to the canonical form the measures read.
    """

    component_id: str
    groups: dict[str, np.ndarray]

    def __post_init__(self):
        self.groups = {
            label: np.asarray(scores, dtype=np.float64).reshape(-1)
            for label, scores in self.groups.items()
        }

    def problems(self) -> list[str]:
        """Invariant violations as human-readable messages (empty when valid)."""
        cid = self.component_id
        out = []
        if len(self.groups) < 2:
            out.append(
                f"component '{cid}': fairness needs at least 2 demographic groups"
                f" (n >= 2 required, got {len(self.groups)})"
            )
        for label, scores in self.groups.items():
            if scores.size == 0:
                out.append(f"component '{cid}': group '{label}' has no scores")
                continue
            if not np.all(np.isfinite(scores)):
                out.append(f"component '{cid}': group '{label}' contains non-finite scores")
            elif np.any(scores < 0):
                out.append(f"component '{cid}': group '{label}' contains negative scores")
        return out

    def validated(self) -> _ValidatedScores:
        """These scores in canonical form: checked once, each group ascending
        and read-only, so no result depends on the order of a group's scores.

        A canonical collection, such as a loaded component, comes back as
        itself. Any other gets one :meth:`problems` pass, and any problems
        raise one ValidationError, joined with "; ". Then an ascending group
        is kept as a read-only view and any other is sorted into a read-only
        copy, with any -0 before any 0. The caller's arrays are never sorted
        or frozen.
        """
        if isinstance(self, _ValidatedScores):
            return self
        problems = self.problems()
        if problems:
            raise ValidationError("; ".join(problems))
        return _ValidatedScores(self.component_id, self.groups)

    def union(self) -> np.ndarray:
        """All scores across groups, concatenated in group order."""
        return np.concatenate(list(self.groups.values()))

    def group_sizes(self) -> dict[str, int]:
        return {label: int(scores.size) for label, scores in self.groups.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupedScores):
            return NotImplemented
        return (
            self.component_id == other.component_id
            and list(self.groups) == list(other.groups)
            and all(np.array_equal(self.groups[k], other.groups[k]) for k in self.groups)
        )


class _ValidatedScores(GroupedScores):
    """GroupedScores in canonical form. Only GroupedScores.validated makes
    one, after the scores pass their check; the loaders go through it too."""

    def __post_init__(self):
        self.groups = {label: _canonical(scores) for label, scores in self.groups.items()}

    def pooled_range(self) -> tuple[float, float]:
        """(min, max) of all scores, read from the group ends."""
        groups = self.groups.values()
        return min(float(g[0]) for g in groups), max(float(g[-1]) for g in groups)


def _canonical(scores) -> np.ndarray:
    """One group as a read-only float64 array: a view if ascending, else a sorted copy.

    A group holding a -0 is sorted by index instead, with every -0 before
    every 0: they compare equal, and ``np.sort`` may change a zero's sign.
    """
    g = np.asarray(scores, dtype=np.float64).reshape(-1)
    out = np.sort(g) if np.any(g[1:] < g[:-1]) else g.view()
    # scores are non-negative, so only a group whose least score is a zero
    # can hold a -0, and any sign bit in it is one
    if out.size and out[0] == 0.0 and np.signbit(g).any():
        out = g[np.lexsort((~np.signbit(g), g))]
    out.flags.writeable = False
    return out


@dataclass
class GroupAggregates:
    """One scalar per group: the mean, median or low-weighted mean (LWM)."""

    aggregator_kind: str
    values: dict[str, float]

    def __post_init__(self):
        if self.aggregator_kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind {self.aggregator_kind!r}")


@dataclass(frozen=True)
class FairnessScore:
    """A fairness value in [0, 1] (higher is fairer), tagged by measure."""

    measure: str
    value: float

    def __post_init__(self):
        if self.measure not in ALL_MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"{self.measure} value {self.value} outside [0, 1]")


@dataclass
class DiscardCurve:
    """Per-group fraction of samples below each threshold.

    ``fractions[label][k]`` is the share of that group's samples strictly
    below ``thresholds[k]``; each row is non-decreasing in the threshold.
    """

    thresholds: np.ndarray
    fractions: dict[str, np.ndarray] = field(default_factory=dict)


def as_value_array(values: GroupAggregates | Mapping[str, float] | Iterable[float]) -> np.ndarray:
    """Coerce aggregates, a mapping, or a plain iterable to a float array."""
    if isinstance(values, GroupAggregates):
        values = values.values
    if isinstance(values, Mapping):
        values = values.values()
    return np.asarray(list(values), dtype=np.float64)
