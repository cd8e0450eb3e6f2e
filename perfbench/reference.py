"""Independent reference for sqfr's outputs, written from the definitions.

Nothing here imports sqfr or follows its code: each quantity is computed
the way the package README and module docstrings define it, by the most
literal method that is still affordable at benchmark sizes.
"""

from __future__ import annotations

import math

import numpy as np


def mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / values.size


def median(values: np.ndarray) -> float:
    """Middle of the sorted values; mean of the middle two for even counts."""
    x = np.sort(values)
    n = x.size
    mid = n // 2
    return float(x[mid]) if n % 2 else (float(x[mid - 1]) + float(x[mid])) / 2.0


def lwm(values: np.ndarray, lo: float, hi: float) -> float:
    """Low-weighted mean with weight 1 - (q - min)/(max - min) over pooled scores."""
    if hi == lo:
        return lo
    w = 1.0 - (values - lo) / (hi - lo)
    wsum = math.fsum(w.tolist())
    return hi if wsum == 0.0 else math.fsum((w * values).tolist()) / wsum


def gini(values) -> float:
    """Literal all-pairs Gini with the n/(n-1) correction; 0 for all-zero input."""
    x = [float(v) for v in values]
    n = len(x)
    total = math.fsum(x)
    if total == 0.0:
        return 0.0
    pairs = math.fsum(abs(a - b) for a in x for b in x)
    return pairs / (2.0 * n * n * (total / n)) * n / (n - 1)


def mdg_sequence(groups: dict[str, np.ndarray], lo: int, hi: int) -> float:
    """Mean discard gap over the thresholds lo+1, lo+2, ..., hi (integer scores).

    Each group's discard fraction is counted directly: the share of its
    scores strictly below the threshold.
    """
    gaps = []
    for t in range(lo + 1, hi + 1):
        fractions = [np.count_nonzero(g < t) / g.size for g in groups.values()]
        gaps.append(max(fractions) - min(fractions))
    return math.fsum(gaps) / len(gaps)


def mdg_observed(groups: dict[str, np.ndarray]) -> float:
    """Mean discard gap over the distinct pooled scores above the minimum.

    One sweep over the pooled scores in order: the scores strictly below a
    threshold are exactly those before its first occurrence, so each group's
    count there is its running count at that position.
    """
    pooled = np.concatenate(list(groups.values()))
    owner = np.concatenate([np.full(g.size, k) for k, g in enumerate(groups.values())])
    order = np.argsort(pooled, kind="stable")
    ordered = pooled[order]
    first = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    fractions = []
    for k, g in enumerate(groups.values()):
        running = np.concatenate([[0], np.cumsum(owner[order] == k)])
        fractions.append(running[first] / g.size)
    stacked = np.vstack(fractions)
    gaps = stacked.max(axis=0) - stacked.min(axis=0)
    return math.fsum(gaps.tolist()) / gaps.size


def component(groups: dict[str, np.ndarray], observed: bool) -> dict:
    """Per-group summary and the six measures for one component."""
    pooled = np.concatenate(list(groups.values()))
    lo, hi = float(pooled.min()), float(pooled.max())
    summary = {
        label: {"count": int(g.size), "mean": mean(g), "median": median(g),
                "lwm": lwm(g, lo, hi)}
        for label, g in groups.items()
    }
    gc = {kind: gini([s[kind] for s in summary.values()]) for kind in ("mean", "median", "lwm")}
    if observed:
        discard_gap = mdg_observed(groups)
    else:
        discard_gap = mdg_sequence(groups, int(lo), int(hi))
    measures = {
        "mean-gc-sqfr": 1.0 - gc["mean"],
        "median-gc-sqfr": 1.0 - gc["median"],
        "mean-gc-csqfr": (1.0 - gc["mean"]) ** 3,
        "lwm-gc-sqfr": 1.0 - gc["lwm"],
        "lwm-gc-csqfr": (1.0 - gc["lwm"]) ** 3,
        "mdg-sqfr": 1.0 - discard_gap,
    }
    return {"groups": summary, "measures": measures}


def quantile(sorted_values: np.ndarray, p: float) -> float:
    """Linear interpolation between closest ranks (position p*(n-1))."""
    pos = p * (sorted_values.size - 1)
    i = int(math.floor(pos))
    j = min(i + 1, sorted_values.size - 1)
    return float(sorted_values[i]) + (pos - i) * (float(sorted_values[j]) - float(sorted_values[i]))


def silverman(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5); the IQR term is ignored when zero."""
    x = np.sort(values.astype(np.float64))
    n = x.size
    m = mean(x)
    sd = math.sqrt(math.fsum(((x - m) ** 2).tolist()) / (n - 1))
    iqr = quantile(x, 0.75) - quantile(x, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def gaussian_kde_at(values: np.ndarray, x: float, h: float) -> float:
    """Direct Gaussian sum (1/(n h sqrt(2 pi))) * sum exp(-((x - q)/h)^2 / 2)."""
    u = (x - values.astype(np.float64)) / h
    return math.fsum(np.exp(-0.5 * u * u).tolist()) / (values.size * h * math.sqrt(2 * math.pi))


def pcg64_uniforms(bitgen, count: int) -> np.ndarray:
    """Uniforms in (0, 1]: ((raw >> 11) + 1) * 2**-53 from the raw PCG64 stream."""
    raw = bitgen.random_raw(count)
    return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


def pcg64_normals(bitgen, count: int) -> np.ndarray:
    """Box-Muller: a block of ceil(n/2) uniforms u1, then one of u2; cosine
    branch for the first ceil(n/2) values, sine branch for the rest."""
    half = (count + 1) // 2
    u1 = pcg64_uniforms(bitgen, half)
    u2 = pcg64_uniforms(bitgen, half)
    r = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(angle), (r * np.sin(angle))[: count - half]])


def simulate(spec: dict) -> dict[str, np.ndarray]:
    """Re-derive a quantized normal/mixture spec's samples, group by group."""
    bitgen = np.random.PCG64(spec["seed"])
    lo, hi = spec["clamp_range"]
    out = {}
    for g in spec["groups"]:
        n, p = g["sample_count"], g["parameters"]
        if g["distribution"] == "normal":
            x = p["mean"] + p["stddev"] * pcg64_normals(bitgen, n)
        else:
            u = pcg64_uniforms(bitgen, n)
            bounds = np.cumsum(p["weights"])
            # component j is the first whose cumulative weight reaches u
            pick = np.minimum((u[:, None] > bounds[None, :]).sum(axis=1), len(bounds) - 1)
            x = (np.asarray(p["means"])[pick]
                 + np.asarray(p["stddevs"])[pick] * pcg64_normals(bitgen, n))
        x = np.clip(x, lo, hi)
        if spec["quantize"]:
            x = np.clip(np.rint(x), lo, hi)
        out[g["label"]] = x
    return out
