"""Test oracles: the measures computed from their definitions, with none of
the package's shortcuts. The property tests, the kernel tests and the
acceptance gate compare against these."""

from fractions import Fraction

import numpy as np


def gini_literal(values):
    """The defining double loop over all ordered pairs, self-pairs included.

    Normalized by 2*n*sum, which equals the defining 2*n^2*mean exactly but
    avoids the subnormal underflow of computing the mean first.
    """
    values = list(map(float, values))
    n = len(values)
    s = sum(values)
    if s == 0:
        return 0.0
    total = sum(abs(a - b) for a in values for b in values)
    return (n / (n - 1)) * total / (2 * n * s)


def discard_recount(grouped, thresholds):
    """Per group, the share of its scores strictly below each threshold.

    Every (score, threshold) pair is compared, in any order of the scores
    and thresholds. One row per group, in group order; each share is the
    count divided by the group size, the rounding ``discard_curve`` uses.
    """
    ts = np.asarray(thresholds, dtype=np.float64)
    return np.array(
        [(g[:, None] < ts[None, :]).sum(axis=0) / g.size for g in grouped.groups.values()]
    )


def mdg_recount(grouped, thresholds):
    """The mean over thresholds of the widest gap between two groups' shares."""
    fractions = discard_recount(grouped, thresholds)
    return float(np.mean(fractions.max(axis=0) - fractions.min(axis=0)))


def gini_exact(values):
    """The defining pair sum in exact rational arithmetic."""
    xs = [Fraction(v) for v in values]
    n = len(xs)
    s = sum(xs)
    if s == 0:
        return 0.0
    total = sum(abs(a - b) for a in xs for b in xs)
    return float(total / (2 * (n - 1) * s))


def direct_kde(samples, grid, bandwidth):
    """The defining per-sample Gaussian sum, one kernel per sample."""
    samples = np.asarray(samples, dtype=np.float64)
    u = (np.asarray(grid)[:, None] - samples[None, :]) / bandwidth
    return np.exp(-0.5 * u * u).sum(axis=1) / (samples.size * bandwidth * np.sqrt(2 * np.pi))


def direct_count(scores, thresholds):
    """Per threshold, the defining count of scores strictly below it."""
    return [int(np.sum(np.asarray(scores) < t)) for t in thresholds]
