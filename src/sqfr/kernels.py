"""The per-sample kernels: the loops whose cost scales with the number of
samples rather than the number of groups.

One numpy implementation. ``BACKEND`` names it for tools that record the
kernel path alongside their measurements.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"

_SQRT_TWO_PI = np.sqrt(2.0 * np.pi)

#: Elements of the (grid block x distinct samples) temporary in kde_gaussian.
_KDE_BLOCK_ELEMENTS = 8_000_000


def _c1d(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def count_below(sorted_scores, thresholds) -> np.ndarray:
    """Per threshold, how many scores are strictly below it.

    The scores must be sorted ascending; the thresholds may come in any
    order. A threshold equal to the smallest score discards nothing. This
    counts the strict discard comparison for the fixed-step sweep. The
    observed sweep (``measures._envelope_gaps``) encodes it instead in the
    share it reads at each threshold: a score's share of its group strictly
    below it, i / size at index i.

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

    The kernel is evaluated once per distinct sample value and weighted by
    that value's count, so repeated scores (integer scales) cost as much
    as one. The grid is processed in blocks to bound the (block x distinct
    values) temporary.
    """
    x = _c1d(samples)
    grid = _c1d(grid)
    h = float(bandwidth)
    values, counts = np.unique(x, return_counts=True)
    out = np.empty(grid.size, dtype=np.float64)
    norm = 1.0 / (x.size * h * _SQRT_TWO_PI)
    block = max(1, _KDE_BLOCK_ELEMENTS // max(values.size, 1))
    for start in range(0, grid.size, block):
        with np.errstate(over="ignore"):  # a distance overflowing to inf weighs exp(-inf) = 0
            u = (grid[start : start + block, None] - values[None, :]) / h
            kernel = np.exp(-0.5 * u * u)
        out[start : start + block] = (kernel * counts).sum(axis=1) * norm
    return out
