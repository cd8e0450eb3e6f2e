"""Test oracles: the measures computed from their definitions, and scenario
samples drawn by the documented transform, with none of the package's
shortcuts. The property tests, the kernel tests, the scenario tests and the
acceptance gate compare against these."""

import math
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


def pcg64_uniforms(bitgen, count):
    """Uniforms in (0, 1]: ((raw >> 11) + 1) * 2**-53 from the raw PCG64 stream."""
    raw = bitgen.random_raw(count)
    return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


def pcg64_normals(bitgen, count):
    """Box-Muller: a block of ceil(n/2) uniforms u1, then one of u2; cosine
    branch for the first ceil(n/2) values, sine branch for the rest."""
    half = (count + 1) // 2
    u1 = pcg64_uniforms(bitgen, half)
    u2 = pcg64_uniforms(bitgen, half)
    r = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(angle), (r * np.sin(angle))[: count - half]])


def simulate(doc):
    """A spec document's samples by the documented transform, each step on
    whole arrays: groups in listed order, a mixture's picks before its
    normals, then the clamp and, when quantized, rint and the clamp again."""
    bitgen = np.random.PCG64(doc["seed"])
    lo, hi = doc.get("clamp_range", (0.0, 100.0))
    out = {}
    for g in doc["groups"]:
        n, p = g["sample_count"], g["parameters"]
        if g["distribution"] == "constant":
            out[g["label"]] = np.clip(np.full(n, float(p["value"])), lo, hi)
            continue
        if g["distribution"] == "normal":
            x = p["mean"] + p["stddev"] * pcg64_normals(bitgen, n)
        else:
            u = pcg64_uniforms(bitgen, n)
            bounds = np.cumsum(p["weights"])
            # component j is the first whose cumulative weight reaches u
            pick = np.minimum((u[:, None] > bounds[None, :]).sum(axis=1), len(bounds) - 1)
            x = (np.asarray(p["means"], dtype=np.float64)[pick]
                 + np.asarray(p["stddevs"], dtype=np.float64)[pick] * pcg64_normals(bitgen, n))
        x = np.clip(x, lo, hi)
        if doc.get("quantize", True):
            x = np.clip(np.rint(x), lo, hi)
        out[g["label"]] = x
    return out
