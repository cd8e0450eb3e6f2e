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

#: Thresholds per block of the sequence sweep in mdg_sqfr, and a quarter of
#: the scores one block of _envelope_gaps holds.
#: Larger blocks time alike and hold more; much smaller ones pay numpy's
#: per-call cost once per group and block.
_SWEEP_BLOCK = 8192

#: Fewest scores per group, at least 2, that one block of _envelope_gaps
#: has room for: each block slices every group once, so many groups make
#: larger blocks.
_MERGE_GROUP_SCORES = 16


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
    ordinary inputs keep their exact rounding. Scores need not be sorted.
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
    if count == 0 or abs(out[-1] - hi) > _STEP_RTOL * hi:  # hi > 0, as span > 0
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
    pooled = np.concatenate(list(scores.groups.values()))
    pooled.sort()
    return kernels._distinct(pooled)[0][1:]


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


def _envelope_gaps(groups: list[np.ndarray]) -> np.ndarray:
    """The gap, max minus min group fraction, at each observed threshold of
    the ascending arrays ``groups``: each distinct pooled score above the
    smallest, in ascending order.

    A group's fraction below t is non-decreasing in t. So the max over
    groups is a running max, over the pooled scores below t, of each
    score's share of its group at or below it; the min is a running min,
    over the pooled scores from t up, of each score's share of its group
    strictly below it, or 1.0 over none. Both are the floats
    ``count / size`` that :func:`_gaps` folds, and max and min are exact,
    so the gaps keep their bits.

    The groups are merged block by block, and the pool is never built.
    Cut values, every ``spacing``-th score of a sorted sample of every
    ``stride``-th score of each group, split each group with one
    :func:`kernels.count_below` into the scores below each cut, those equal
    to it, and those above it. At a cut the envelopes are the max and the
    min over groups of (scores below it) / size, so a cut is one threshold,
    O(groups) however many scores tie at it. The scores strictly between
    two cuts form a block: only they are sorted, and the running max and
    min over them start from the envelopes at the cuts around them. Any
    ``stride`` scores of a group in a row hold a sampled one, and fewer
    than ``spacing`` sampled scores lie strictly between two cuts, so a
    block holds under ``stride * (spacing + groups)`` scores, at most
    ``cap``: four sweep blocks, or :data:`_MERGE_GROUP_SCORES` per group
    when that is more. Besides the gaps, 8 bytes per threshold, the sweep
    holds one block's temporaries and a few numbers per cut and group.
    """
    cap = max(4 * _SWEEP_BLOCK, _MERGE_GROUP_SCORES * len(groups))
    stride = cap // (2 * len(groups))  # at least 1, as cap holds 2 per group
    spacing = cap // (2 * stride)
    sizes = np.array([g.size for g in groups])
    sample = np.concatenate([g[stride - 1::stride] for g in groups])
    sample.sort()
    cuts, _ = kernels._distinct(sample[spacing - 1::spacing])  # a -0 and a 0 share one cut
    del sample
    m = cuts.size
    # row k: 0, then group k's scores at or below each cut, below each cut,
    # and its size; no float lies between a cut and the next one up
    edges = np.concatenate((np.nextafter(cuts, np.inf), cuts))
    at = np.empty((len(groups), 2 * m + 2), dtype=np.int64)
    at[:, 0] = 0
    at[:, -1] = sizes
    for row, g in zip(at, groups):
        row[1:-1] = kernels.count_below(g, edges)
    # column i: each group's scores strictly between cut i - 1 and cut i
    starts, stops = at[:, :m + 1], at[:, m + 1:]
    tops = (starts / sizes[:, None]).max(axis=0)
    fractions = stops / sizes[:, None]
    highs, lows = fractions.max(axis=0), fractions.min(axis=0)
    del fractions
    gap = np.empty(int(stops.sum() - starts.sum()) + m)
    done = 0
    for i in range(m + 1):
        a, b = starts[:, i], stops[:, i]
        n = b - a
        size = int(n.sum())
        if size:
            block = np.concatenate(
                [g[x:y] for g, x, y in zip(groups, a.tolist(), b.tolist())])
            order = block.argsort()  # the order among equal scores is immaterial
            block = block.take(order)
            # opens[j]: sorted score j differs from the one before, so it is
            # a threshold; every block's first is, but for the pooled minimum
            opens = np.empty(size, dtype=bool)
            opens[0] = i > 0
            np.not_equal(block[1:], block[:-1], out=opens[1:])
            del block
            # each sorted score's index in its group, and that group's size
            index = np.repeat(a - (np.cumsum(n) - n), n).take(order)
            index += order
            per = np.repeat(sizes, n).take(order)
            del order
            # run[j + 1]: the max up to sorted score j of shares at or below
            run = np.empty(size + 1)
            run[0] = tops[i]
            np.add(index, 1.0, out=run[1:])
            run[1:] /= per
            np.fmax.accumulate(run, out=run)  # no share is NaN: fmax is maximum
            out = gap[done:done + np.count_nonzero(opens)]
            np.compress(opens, run[:-1], out=out)
            # less run[j]: the min from sorted score j up of shares strictly below
            np.divide(index, per, out=run[:-1])
            run[size] = lows[i]
            del index, per
            back = run[::-1]
            np.fmin.accumulate(back, out=back)
            out -= run[:-1][opens]
            done += out.size
        if i < m and (i or size):  # cut 0 is the pooled minimum when nothing is below it
            gap[done] = highs[i] - lows[i]
            done += 1
    return gap[:done]


def mdg_sqfr(
    scores: GroupedScores, step: float = 1.0, thresholds_mode: str = "sequence"
) -> FairnessScore:
    """Discard-gap fairness rate 1 - MDG over the relevant threshold sweep.

    The gap equals ``mdg(discard_curve(scores, ts))`` bit for bit, for the
    sweep ``ts`` of ``thresholds_mode``, but no curve is built. An empty
    sweep (all pooled scores equal) separates no groups, which is perfect
    fairness: 1.0.

    Sequence mode takes the thresholds in blocks of :data:`_SWEEP_BLOCK`,
    counts each group's discards in a block with
    :func:`kernels.count_below` and folds the block's fraction rows into
    its gaps. Observed mode takes the gaps from two running envelopes over
    the groups merged block by block (:func:`_envelope_gaps`): each block
    is sorted on its own, and besides the gaps, 8 bytes per threshold, the
    sweep holds one block, whatever the number of groups.
    """
    scores = scores.validated()
    check_sweep(step, thresholds_mode)
    groups = list(scores.groups.values())
    if thresholds_mode == "observed":
        gap = _envelope_gaps(groups)
    else:
        ts = relevant_thresholds(scores, step)
        gap = np.empty(ts.size)
        for start in range(0, ts.size, _SWEEP_BLOCK):
            stop = min(start + _SWEEP_BLOCK, ts.size)
            rows = (kernels.count_below(g, ts[start:stop]) / g.size for g in groups)
            _gaps(rows, gap[start:stop])
    # the pairwise sum over the whole gap, as in mdg
    value = 1.0 - float(gap.mean()) if gap.size else 1.0
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
    position or repetition in ``names``. DomainError is raised for a bare
    ``str``, ``bytes`` or ``bytearray`` in place of a collection of keys, for
    anything else that is not iterable, and for an entry that is not a
    canonical key, such as the hyphenated CLI spelling, a number or a list;
    the message names every such entry, sorted when all are strings.
    """
    if names is None:
        return ALL_MEASURES
    if isinstance(names, (str, bytes, bytearray)):
        raise DomainError(f"measures must be a collection of keys, not the string {names!r};"
                          f" expected keys from {ALL_MEASURES}")
    if not isinstance(names, Iterable):
        raise DomainError(f"measures must be a collection of keys, not {names!r};"
                          f" expected keys from {ALL_MEASURES}")
    names = list(names)
    unknown = [m for m in names if not (isinstance(m, str) and m in ALL_MEASURES)]
    if unknown:
        if all(isinstance(m, str) for m in unknown):
            unknown = sorted(set(unknown))
        raise DomainError(f"unknown measures: {unknown}; expected keys from {ALL_MEASURES}")
    return tuple(m for m in ALL_MEASURES if m in names)


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

