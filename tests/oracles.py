"""Test oracles: the measures computed from their definitions, with none of
the package's shortcuts. The property tests and the acceptance gate both
compare against these."""

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
