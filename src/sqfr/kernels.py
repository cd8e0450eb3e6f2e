"""The per-sample kernels: the loops whose cost scales with the number of
samples rather than the number of groups.

One numpy implementation. ``BACKEND`` names it for tools that record the
kernel path alongside their measurements.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"

_SQRT_TWO_PI = np.sqrt(2.0 * np.pi)

#: Elements of each (grid block x distinct samples) temporary in kde_gaussian:
#: half a MiB, which bounds the temporaries without slowing the sums.
_KDE_BLOCK_ELEMENTS = 1 << 16


def _c1d(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def count_below(sorted_scores, thresholds) -> np.ndarray:
    """Per threshold, how many scores are strictly below it.

    The scores must be sorted ascending; the thresholds may come in any
    order. A threshold equal to the smallest score discards nothing. This
    counts the strict discard comparison for the fixed-step sweep, and
    splits each group at the cut values of the observed sweep
    (``measures._envelope_gaps``): its scores below a cut, and, counted
    below the next float up, those at or below it. Between two cuts that
    sweep reads the same comparison off each score's index i in its group:
    i / size of the group below it, (i + 1) / size at or below it.

    One binary search per threshold: O(T log N) for T thresholds and N
    scores.
    """
    counts = np.searchsorted(_c1d(sorted_scores), _c1d(thresholds), side="left")
    return counts.astype(np.int64, copy=False)  # already int64 where intp is 64-bit


def low_weight_sums(scores, lo: float, hi: float) -> tuple[float, float]:
    """(sum of weights, sum of weight*score) for w(q) = (hi - q)/(hi - lo).

    Requires lo < hi, with ``hi`` the largest score. The weight falls
    linearly from 1 at ``lo`` to 0 at ``hi``. The weights are normalized
    before the product sum, so neither ``(hi - q) * q`` overflowing (scores
    above ~1e154) nor underflowing (below ~1e-154) can distort the sums.
    The weighted sum is inf only where its exact value exceeds the float
    range.
    """
    x = _c1d(scores)
    w = float(hi) - x
    w /= float(hi) - float(lo)
    wsum = float(w.sum())
    w *= x
    with np.errstate(over="ignore"):
        return wsum, float(w.sum())


def kde_gaussian(samples, grid, bandwidth: float) -> np.ndarray:
    """Gaussian kernel density estimate of ``samples`` evaluated on ``grid``.

    Requires finite samples and grid and a bandwidth of at least the
    smallest normal double (``sys.float_info.min``): below it the
    normalization ``1 / (n * h * sqrt(2 pi))`` can overflow. A scaled
    distance that overflows is harmless, as its kernel value ``exp(-inf)``
    is exactly 0.

    The kernel is evaluated once per distinct sample value (``_distinct``,
    which sorts only samples that are not ascending) and weighted by that
    value's count, so repeated scores (integer scales) cost as much as one.
    The grid is processed in blocks of rows that bound the two (block x
    distinct values) temporaries to ``_KDE_BLOCK_ELEMENTS`` elements each,
    or one row where a row holds more; every grid row is still summed
    whole, so the block size moves no bit.
    """
    x = _c1d(samples)
    grid = _c1d(grid)
    h = float(bandwidth)
    values, counts = _distinct(x)
    out = np.empty(grid.size, dtype=np.float64)
    norm = 1.0 / (x.size * h * _SQRT_TWO_PI)
    block = max(1, _KDE_BLOCK_ELEMENTS // max(values.size, 1))
    for start in range(0, grid.size, block):
        rows = slice(start, start + block)
        with np.errstate(over="ignore"):  # a distance overflowing to inf weighs exp(-inf) = 0
            u = grid[rows, None] - values
            u /= h
            kernel = u * -0.5  # exp(-0.5 * u * u), in two temporaries
            kernel *= u
            np.exp(kernel, out=kernel)
        kernel *= counts
        out[rows] = kernel.sum(axis=1) * norm
    return out


def _distinct(a: np.ndarray, inverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the 1-d array ``a``, ascending, and how often
    each occurs; with ``inverse``, in place of the counts, the index into
    the values of each element of ``a``. Elements that compare equal are
    one value (a float -0.0 and 0.0 are one). That is ``np.unique(a,
    return_counts=not inverse, return_inverse=inverse)``.

    Without ``inverse`` an ascending ``a`` is read as it is and any other
    is sorted into a copy; with it, ``a`` is gathered through its argsort.
    ``np.unique`` is not called, for two reasons. The observed sweep's cuts
    and ``observed_thresholds`` need only the values, which a bare
    ``np.unique(a)`` gives, but on numpy 2.4.6 its first call imports
    ``numpy.ma`` (a call asking for counts, index or inverse does not). And
    the ascending input is not sorted again: on a sorted group of 10**4
    quantized scores this takes 19.8 us, against 38.9 us for
    ``np.unique(a, return_counts=True)`` (2-vCPU Xeon).
    """
    if inverse:
        order = np.argsort(a)
        a = a[order]
    elif np.any(a[1:] < a[:-1]):
        a = np.sort(a)
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    if not inverse:
        return a[first], np.diff(np.flatnonzero(first), append=a.size)
    where = np.empty(a.size, dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return a[first], where
