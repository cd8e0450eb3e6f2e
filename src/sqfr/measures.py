"""Sample Quality Fairness Rates (SQFR) over per-group quality scores.

All measures map a grouped score collection to a value in [0, 1] where 1 is
perfectly fair. The Gini-based family compares one scalar aggregate per
group (mean, median, or low-weighted mean) through a bias-corrected Gini
coefficient; the mean-discard-gap family compares per-group discard
fractions across a threshold sweep.

Groups are never weighted by sample count: each group contributes a single
aggregate value regardless of its size. Severely unbalanced datasets
therefore influence these measures only through the aggregates themselves
(see sqfr.dataset.validate, which warns about strong unbalance).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from . import kernels
from .errors import DomainError
from .types import (
    ALL_MEASURES,
    DiscardCurve,
    FairnessScore,
    GroupAggregates,
    GroupedScores,
    as_value_array,
)

THRESHOLD_MODES = ("sequence", "observed")

#: Relative slack used when snapping an arithmetic threshold sequence onto
#: the maximum score, so float stepping does not duplicate or drop it.
_STEP_RTOL = 1e-9

#: Refuse threshold sweeps beyond this many points; wide score scales need
#: a proportionally larger step, not an unbounded allocation.
MAX_THRESHOLDS = 10_000_000


def mean_aggregate(scores: GroupedScores) -> GroupAggregates:
    """Arithmetic mean of each group's scores."""
    scores = scores.validated()
    values = {label: _scale_free(np.mean, g) for label, g in scores.groups.items()}
    return GroupAggregates("mean", values)


def median_aggregate(scores: GroupedScores) -> GroupAggregates:
    """Median of each group's scores (even counts: mean of the middle two)."""
    scores = scores.validated()
    values = {label: _scale_free(_median, g) for label, g in scores.groups.items()}
    return GroupAggregates("median", values)


def _median(g: np.ndarray) -> float:
    """The median of an ascending group, read off its middle."""
    mid = g.size // 2
    if g.size % 2:
        return g[mid]
    return np.mean(g[mid - 1:mid + 1])  # numpy's median rounds the same way


def _scale_free(stat, g: np.ndarray) -> float:
    """``stat(g)`` for a statistic that scales with its input, such as the mean.

    Finite non-negative scores near the float maximum can overflow the
    intermediate sums; only then is the statistic taken in units of the
    largest score, so ordinary inputs keep their exact rounding.
    """
    with np.errstate(over="ignore"):
        value = float(stat(g))
    if np.isfinite(value):
        return value
    top = float(g.max())
    return float(stat(g / top)) * top


def lwm_aggregate(scores: GroupedScores) -> GroupAggregates:
    """Low-weighted mean: a weighted group mean emphasizing low scores.

    Weights fall linearly from 1 at the pooled minimum score to 0 at the
    pooled maximum, so samples that more acceptance thresholds would
    discard count more. Two degenerate cases are made total: if the pooled
    minimum equals the pooled maximum every group aggregates to that single
    score, and a group whose scores all sit at the pooled maximum (weight
    sum zero) aggregates to that maximum.
    """
    scores = scores.validated()
    lo, hi = scores.pooled_range()
    if hi == lo:
        return GroupAggregates("lwm", dict.fromkeys(scores.groups, lo))
    values: dict[str, float] = {}
    for label, g in scores.groups.items():
        wsum, wqsum = kernels.low_weight_sums(g, lo, hi)
        if wsum == 0.0:
            values[label] = hi
        elif np.isfinite(wqsum):
            values[label] = wqsum / wsum
        else:
            # the weighted sum itself exceeds the float range; the weights
            # are scale-free, so weigh the scores in units of the maximum
            wsum, wqsum = kernels.low_weight_sums(g / hi, lo / hi, 1.0)
            values[label] = wqsum / wsum * hi
    return GroupAggregates("lwm", values)


def gini_coefficient(aggregates: GroupAggregates | Mapping[str, float] | Iterable[float]) -> float:
    """Bias-corrected Gini coefficient of the per-group aggregate values.

    Sum of absolute differences over all ordered value pairs (self-pairs
    included), normalized by 2 * n^2 * mean and corrected by n/(n-1) so the
    attainable range is exactly [0, 1] for non-negative inputs. Computed
    from sorted adjacent gaps, which is O(n log n) and avoids the
    cancellation the rank-weighted form suffers on near-equal values. All
    values equal, including all zero, is perfect equality: 0.
    """
    values = as_value_array(aggregates)
    n = values.size
    if n < 2:
        raise DomainError(f"Gini coefficient needs at least 2 group values, got {n}")
    if not np.all(np.isfinite(values)):
        raise DomainError("Gini coefficient requires finite values")
    if np.any(values < 0):
        raise DomainError("Gini coefficient requires non-negative values")
    x = np.sort(values)
    pair_sum, norm = _gini_terms(x)
    if norm == 0.0:
        return 0.0
    if not (np.isfinite(pair_sum) and np.isfinite(norm)):
        # Gini is scale-invariant: measure in units of the maximum instead
        pair_sum, norm = _gini_terms(x / x[-1])
    gc = pair_sum / norm
    return min(max(gc, 0.0), 1.0)


def _gini_terms(x: np.ndarray) -> tuple[float, float]:
    """(pair sum, (n - 1) * total) of ascending values; either may overflow to inf."""
    n = x.size
    k = np.arange(1, n, dtype=np.float64)
    with np.errstate(over="ignore"):
        # sum over unordered pairs {i<j} of (x_j - x_i): each adjacent gap is
        # crossed by (left count) * (right count) pairs
        pair_sum = float(np.sum(k * (n - k) * np.diff(x)))
        total = float(x.sum())  # summed after sorting: exactly permutation-invariant
    return pair_sum, (n - 1) * total


def sqfr(gc: float) -> float:
    """Fairness rate 1 - GC; input must be a Gini coefficient in [0, 1]."""
    if not (0.0 <= gc <= 1.0):
        raise DomainError(f"Gini coefficient {gc} outside [0, 1]")
    return 1.0 - gc


def csqfr(gc: float) -> float:
    """Cubed fairness rate (1 - GC)^3; penalizes dispersion more sharply."""
    if not (0.0 <= gc <= 1.0):
        raise DomainError(f"Gini coefficient {gc} outside [0, 1]")
    return (1.0 - gc) ** 3


def relevant_thresholds(scores: GroupedScores, step: float = 1.0) -> np.ndarray:
    """Threshold sweep min+step, min+2*step, ... over the pooled scores.

    The sweep starts one step above the pooled minimum (a threshold at the
    minimum would discard nothing) and always ends exactly at the pooled
    maximum: the last multiple is snapped onto it, or the maximum is
    appended when the span is not a whole number of steps. Empty when all
    scores are equal.
    """
    _check_step(step)
    scores = scores.validated()
    lo, hi = scores.pooled_range()
    span = hi - lo
    if span <= 0:
        return np.empty(0, dtype=np.float64)
    count = int(np.floor(span / step + _STEP_RTOL))
    if count > MAX_THRESHOLDS:
        raise DomainError(
            f"threshold sweep would need {count} points (span {span:g}, step {step:g});"
            f" raise the step above {span / MAX_THRESHOLDS:g}"
        )
    out = lo + step * np.arange(1, count + 1, dtype=np.float64)
    if count == 0 or abs(out[-1] - hi) > _STEP_RTOL * max(1.0, abs(hi)):
        out = np.append(out, hi)
    else:
        out[-1] = hi
    return out


def observed_thresholds(scores: GroupedScores) -> np.ndarray:
    """Alternative sweep: the distinct pooled scores above the minimum.

    Exposed for data on scales where a fixed-step sweep is meaningless;
    like the default sweep it excludes the pooled minimum (zero-distance
    discard) and ends at the pooled maximum.
    """
    scores = scores.validated()
    pooled = np.unique(scores.union())
    return pooled[1:]


def discard_curve(scores: GroupedScores, thresholds) -> DiscardCurve:
    """Fraction of each group's samples strictly below each threshold."""
    scores = scores.validated()
    thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    if np.any(thresholds[1:] < thresholds[:-1]):
        raise DomainError("thresholds must be sorted ascending")
    fractions = {
        label: kernels.count_below(g, thresholds) / g.size for label, g in scores.groups.items()
    }
    return DiscardCurve(thresholds, fractions)


def mdg(curve: DiscardCurve) -> float:
    """Mean discard gap: average over thresholds of max - min group fraction.

    Only the extreme groups matter at each threshold; groups between them
    never change the gap.
    """
    if curve.thresholds.size == 0:
        raise DomainError("mean discard gap needs at least one threshold")
    if len(curve.fractions) < 2:
        raise DomainError("mean discard gap needs at least 2 groups")
    # running extremes, so no (groups x thresholds) stack is built
    rows = iter(curve.fractions.values())
    first = np.asarray(next(rows), dtype=np.float64)
    hi, lo = first.copy(), first.copy()
    for row in rows:
        np.maximum(hi, row, out=hi)
        np.minimum(lo, row, out=lo)
    hi -= lo  # the gap at each threshold
    return float(hi.mean())


def mdg_sqfr(
    scores: GroupedScores, step: float = 1.0, thresholds_mode: str = "sequence"
) -> FairnessScore:
    """Discard-gap fairness rate 1 - MDG over the relevant threshold sweep.

    An empty sweep (all pooled scores equal) means no threshold can
    separate the groups, which is perfect fairness: 1.0.
    """
    scores = scores.validated()
    ts = _thresholds_for(scores, step, thresholds_mode)
    if ts.size == 0:
        return FairnessScore("mdg_sqfr", 1.0)
    value = 1.0 - mdg(discard_curve(scores, ts))
    return FairnessScore("mdg_sqfr", min(max(value, 0.0), 1.0))


def evaluate_component(
    scores: GroupedScores,
    step: float = 1.0,
    thresholds_mode: str = "sequence",
    measures: Iterable[str] | None = None,
    aggregates: Mapping[str, GroupAggregates] | None = None,
) -> list[FairnessScore]:
    """All fairness measures for one quality component, in canonical order.

    ``measures`` restricts the output to a subset of :data:`ALL_MEASURES`
    keys; aggregates are computed once per aggregator actually needed.
    ``aggregates`` maps aggregator kinds to aggregates the caller already
    holds for these scores, such as a report summary's; they are used
    instead of being computed again.
    """
    scores = scores.validated()
    aggregates = dict(aggregates or {})  # filled on demand; the caller's mapping is untouched
    out = []
    for measure in _normalize_measures(measures):
        if measure == "mdg_sqfr":
            out.append(mdg_sqfr(scores, step, thresholds_mode))
            continue
        kind, _, rate = measure.partition("_gc_")
        if kind not in aggregates:
            # looked up per call, so a wrapped module attribute is the one called
            compute = {"mean": mean_aggregate, "median": median_aggregate, "lwm": lwm_aggregate}
            aggregates[kind] = compute[kind](scores)
        gc = gini_coefficient(aggregates[kind])
        out.append(FairnessScore(measure, sqfr(gc) if rate == "sqfr" else csqfr(gc)))
    return out


def _check_step(step: float) -> None:
    if not 0 < step < math.inf:  # false for nan
        raise DomainError(f"threshold step must be finite and positive, got {step}")


def _thresholds_for(scores: GroupedScores, step: float, mode: str) -> np.ndarray:
    if mode not in THRESHOLD_MODES:
        raise DomainError(f"unknown thresholds mode {mode!r}; expected one of {THRESHOLD_MODES}")
    _check_step(step)  # also in observed mode, where reports still record the step
    if mode == "observed":
        return observed_thresholds(scores)
    return relevant_thresholds(scores, step)


def _normalize_measures(measures: Iterable[str] | None) -> tuple[str, ...]:
    if measures is None:
        return ALL_MEASURES
    requested = set(measures)
    unknown = requested - set(ALL_MEASURES)
    if unknown:
        raise DomainError(f"unknown measures: {sorted(unknown)}; expected keys from {ALL_MEASURES}")
    return tuple(m for m in ALL_MEASURES if m in requested)
