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
    is_finite_number,
)

THRESHOLD_MODES = ("sequence", "observed")

#: Relative slack used when snapping an arithmetic threshold sequence onto
#: the maximum score, so float stepping does not duplicate or drop it.
_STEP_RTOL = 1e-9

#: Refuse threshold sweeps beyond this many points; wide score scales need
#: a proportionally larger step, not an unbounded allocation.
MAX_THRESHOLDS = 10_000_000

#: Thresholds per block of the discard sweeps (_mean_discard_gap and
#: _observed_discard_gap), and sorted scores per block of _run_indices.
#: Larger blocks time alike and hold more; much smaller ones pay numpy's
#: per-call cost once per group and block.
_SWEEP_BLOCK = 8192


def mean_aggregate(scores: GroupedScores) -> GroupAggregates:
    """Arithmetic mean of each group's scores."""
    scores = scores.validated()
    values = {label: _within(_scale_free(np.mean, g), g) for label, g in scores.groups.items()}
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

    Finite scores near the float maximum can overflow the intermediate sums;
    only then is the statistic taken in units of the largest magnitude, so
    ordinary inputs keep their exact rounding. Scores may be negative
    (simulated samples clamped below zero), and need not be sorted.
    """
    with np.errstate(over="ignore"):
        value = float(stat(g))
    if np.isfinite(value):
        return value
    top = float(np.abs(g).max())
    return float(stat(g / top)) * top


def _within(value: float, g: np.ndarray) -> float:
    """``value`` clamped into the range of its ascending group ``g``.

    A mean, plain or weighted, lies within its group, but the rounded one
    can fall just outside: a sum of equal scores can round up, and the
    weights of subnormal scores round. A value already inside is returned
    as it is, bits and sign of zero included.
    """
    return min(max(value, float(g[0])), float(g[-1]))


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
            values[label] = _within(wqsum / wsum, g)
        else:
            # the weighted sum itself exceeds the float range; the weights
            # are scale-free, so weigh the scores in units of the maximum
            wsum, wqsum = kernels.low_weight_sums(g / hi, lo / hi, 1.0)
            values[label] = _within(wqsum / wsum * hi, g)
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
    count = np.floor(span / step + _STEP_RTOL)  # a float, inf for a subnormal step
    if count > MAX_THRESHOLDS:
        raise DomainError(
            f"threshold sweep would need {count:.3g} points (span {span:g}, step {step:g});"
            f" raise the step above {span / MAX_THRESHOLDS:g}"
        )
    count = int(count)
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
    pooled = scores.union()
    pooled.sort()
    above = pooled[1:]
    return above[above != pooled[:-1]]


def discard_curve(scores: GroupedScores, thresholds) -> DiscardCurve:
    """Fraction of each group's samples strictly below each threshold."""
    scores = scores.validated()
    thresholds = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    if np.isnan(thresholds).any() or np.any(thresholds[1:] < thresholds[:-1]):
        raise DomainError("thresholds must be sorted ascending and not NaN")
    fractions = {
        label: kernels.count_below(g, thresholds) / g.size for label, g in scores.groups.items()
    }
    return DiscardCurve(thresholds, fractions)


def mdg(curve: DiscardCurve) -> float:
    """Mean discard gap: average over thresholds of max - min group fraction.

    Only the extreme groups matter at each threshold; groups between them
    never change the gap.
    """
    n = curve.thresholds.size
    if n == 0:
        raise DomainError("mean discard gap needs at least one threshold")
    if len(curve.fractions) < 2:
        raise DomainError("mean discard gap needs at least 2 groups")
    rows = [np.asarray(row, dtype=np.float64) for row in curve.fractions.values()]
    if any(row.shape != (n,) for row in rows):
        raise DomainError(f"each group's discard fractions must hold one value per threshold ({n})")
    return float(_gaps(rows, np.empty(n)).mean())


def _gaps(rows: Iterable, out: np.ndarray) -> np.ndarray:
    """Write the max minus the min of the equal-length ``rows`` into ``out``,
    folding in one row at a time from the first: no (rows x length) stack."""
    rows = iter(rows)
    out[:] = next(rows)
    lo = out.copy()
    for row in rows:
        np.maximum(out, row, out=out)
        np.minimum(lo, row, out=lo)
    out -= lo
    return out


def _mean_discard_gap(scores: GroupedScores, ts: np.ndarray) -> float:
    """``mdg(discard_curve(scores, ts))``, bit for bit, without the curve.

    ``scores`` is canonical and ``ts`` a non-empty ascending sweep. The
    thresholds are taken in blocks of :data:`_SWEEP_BLOCK`, and each
    block's gaps are folded from its fraction rows, so the gap is the only
    array as long as the sweep.
    """
    gap = np.empty(ts.size)
    for start in range(0, ts.size, _SWEEP_BLOCK):
        block = ts[start:start + _SWEEP_BLOCK]
        rows = (kernels.count_below(g, block) / g.size for g in scores.groups.values())
        _gaps(rows, gap[start:start + block.size])
    return float(gap.mean())  # the pairwise sum over the whole gap, as in mdg


def _observed_discard_gap(scores: GroupedScores) -> float:
    """``mdg(discard_curve(scores, observed_thresholds(scores)))``, bit for
    bit, from one sort of the pooled scores; 0.0 when they are all equal.

    ``scores`` is canonical. Number the distinct pooled scores from 0 up, so
    that the observed thresholds are the scores numbered 1 to T; a score's
    number is its run index. A group's discard count at the threshold
    numbered k is how many of its scores have a run index below k. Only each
    group's distinct scores are sorted and numbered: in a group with ties,
    the count of its distinct scores below k picks, through the position of
    each one's first copy, the count of its scores. One bincount per group
    and block of :data:`_SWEEP_BLOCK` thresholds gives the counts, and each
    block's fraction rows are folded into its gaps, as in the sequence
    sweep. Besides the sort this costs O(N + G*T) for N scores in G groups.
    """
    groups = list(scores.groups.values())
    firsts = [_firsts(g) for g in groups]
    runs = _run_indices([g if f is None else g[f[:-1]] for g, f in zip(groups, firsts)])
    count = max(int(r[-1]) for r in runs)  # T, the top run index
    if count == 0:
        return 0.0
    gap = np.empty(count)
    for start in range(1, count + 1, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, count + 1)
        rows = (
            _count_below_runs(r, f, start, stop) / g.size for g, f, r in zip(groups, firsts, runs)
        )
        _gaps(rows, gap[start - 1:stop - 1])
    return float(gap.mean())  # the pairwise sum over the whole gap, as in mdg


def _firsts(g: np.ndarray) -> np.ndarray | None:
    """The position of the first copy of each distinct score of the ascending
    ``g``, then ``g.size``: how many scores lie below each distinct score, and
    below none. None when no two scores tie."""
    rises = np.empty(g.size, dtype=bool)
    rises[0] = True
    np.not_equal(g[1:], g[:-1], out=rises[1:])
    if rises.all():
        return None
    return np.append(np.flatnonzero(rises), g.size)


def _run_indices(groups: list[np.ndarray]) -> list[np.ndarray]:
    """Per ascending array of ``groups``, the run index of each score: the
    number of distinct scores of all the arrays below it. A -0 and a 0
    compare equal, so they share an index, as they share a threshold.

    The stable argsort of the pool merges the ascending arrays. The indices
    take the pool's buffer, written block by block in the sorted order as
    each block's scores are read, so besides the sort's index array no other
    array as long as the pool is held.
    """
    pooled = np.concatenate(groups)
    order = np.argsort(pooled, kind="stable")
    index = pooled.view(np.int64)
    top, last = 0, pooled[order[0]]
    for start in range(0, order.size, _SWEEP_BLOCK):
        at = order[start:start + _SWEEP_BLOCK]
        block = pooled[at]
        steps = np.empty(block.size, dtype=np.int64)
        steps[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=steps[1:])
        np.cumsum(steps, out=steps)
        steps += top
        index[at] = steps
        top, last = int(steps[-1]), block[-1]
    return np.split(index, np.cumsum([g.size for g in groups])[:-1])


def _count_below_runs(
    runs: np.ndarray, firsts: np.ndarray | None, start: int, stop: int
) -> np.ndarray:
    """Per run index k from ``start`` to ``stop`` - 1, how many of a group's
    scores are below k, from the ascending run indices ``runs`` of its
    distinct scores and their :func:`_firsts` (None: every score distinct)."""
    below, end = runs.searchsorted([start, stop - 1])
    # an index i from start to stop - 2 is below every k from i + 1 up
    count = np.bincount(runs[below:end] - (start - 1), minlength=stop - start)
    np.cumsum(count, out=count)
    count += below
    return count if firsts is None else firsts[count]


def mdg_sqfr(
    scores: GroupedScores, step: float = 1.0, thresholds_mode: str = "sequence"
) -> FairnessScore:
    """Discard-gap fairness rate 1 - MDG over the relevant threshold sweep.

    An empty sweep (all pooled scores equal) means no threshold can
    separate the groups, which is perfect fairness: 1.0.
    """
    scores = scores.validated()
    check_sweep(step, thresholds_mode)
    if thresholds_mode == "observed":
        gap = _observed_discard_gap(scores)
    else:
        ts = relevant_thresholds(scores, step)
        gap = _mean_discard_gap(scores, ts) if ts.size else 0.0
    return FairnessScore("mdg_sqfr", min(max(1.0 - gap, 0.0), 1.0))


def evaluate_component(
    scores: GroupedScores,
    step: float = 1.0,
    thresholds_mode: str = "sequence",
    measures: Iterable[str] | None = None,
    aggregates: Mapping[str, GroupAggregates] | None = None,
) -> list[FairnessScore]:
    """All fairness measures for one quality component, in canonical order.

    ``measures`` restricts the output to a subset of :data:`ALL_MEASURES`
    keys, chosen by :func:`select_measures`; aggregates are computed once
    per aggregator actually needed.
    ``aggregates`` maps aggregator kinds to aggregates the caller already
    holds for these scores, such as a report summary's; they are used
    instead of being computed again.
    """
    scores = scores.validated()
    aggregates = dict(aggregates or {})  # filled on demand; the caller's mapping is untouched
    out = []
    for measure in select_measures(measures):
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


def select_measures(names: Iterable[str] | None = None) -> tuple[str, ...]:
    """The measures to compute, as canonical keys in :data:`ALL_MEASURES` order.

    None selects all six. Otherwise each key counts once, whatever its
    position or repetition in ``names``; a name that is not a canonical key,
    such as the hyphenated CLI spelling, raises DomainError.
    """
    if names is None:
        return ALL_MEASURES
    requested = set(names)
    unknown = requested - set(ALL_MEASURES)
    if unknown:
        raise DomainError(f"unknown measures: {sorted(unknown)}; expected keys from {ALL_MEASURES}")
    return tuple(m for m in ALL_MEASURES if m in requested)


def check_sweep(step: float, mode: str) -> None:
    """Raise DomainError unless ``mode`` is one of :data:`THRESHOLD_MODES` and
    ``step`` a finite positive int or float (a bool is not a number here).
    A report records both, whether or not it sweeps."""
    if mode not in THRESHOLD_MODES:
        raise DomainError(f"unknown thresholds mode {mode!r}; expected one of {THRESHOLD_MODES}")
    _check_step(step)


def _check_step(step: float) -> None:
    if not (is_finite_number(step) and step > 0):
        raise DomainError(f"threshold step must be finite and positive, got {step!r}")

