"""Output checks: the program's results against reference.py.

Every check returns a list of problems; an empty list means the output is
correct. Floating-point results are compared at a relative tolerance of
1e-9 (absolute 1e-12 near zero), wide enough for a different summation
order and far too narrow for a wrong definition.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import reference

REL_TOL = 1e-9
ABS_TOL = 1e-12
MEASURES = ("mean-gc-sqfr", "median-gc-sqfr", "mean-gc-csqfr",
            "lwm-gc-sqfr", "lwm-gc-csqfr", "mdg-sqfr")
#: The one published cell that the rounded aggregates cannot reproduce:
#: (1 - GC(75.4, 81.4))^3 = 0.889541 against 0.889 +/- 0.0005.
KNOWN_RED = {("q3-lwm", "lwm_gc_csqfr")}
#: The density's trapezoidal integral must be within 1 % of one.
DENSITY_MASS_TOL = 0.01
#: Grid points at which the density is recomputed as a direct Gaussian sum.
DENSITY_PROBES = (0, 32, 64, 96, 128, 160, 192, 224, 255)


def _close(got, want) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def report(doc: dict, scores: dict, rows: int, observed: bool) -> list[str]:
    """A JSON fairness report against the reference, plus the method's properties."""
    problems = []
    comps = doc["components"]
    if [c["component"] for c in comps] != sorted(scores):
        return [f"components {[c['component'] for c in comps]} != {sorted(scores)}"]
    total = 0
    for c in comps:
        cid = c["component"]
        groups = {label: scores[cid][label].astype(np.float64) for label in sorted(scores[cid])}
        ref = reference.component(groups, observed)
        if [g["label"] for g in c["groups"]] != list(groups):
            problems.append(f"{cid}: group order {[g['label'] for g in c['groups']]}")
            continue
        for g in c["groups"]:
            want = ref["groups"][g["label"]]
            total += g["count"]
            if g["count"] != want["count"]:
                problems.append(f"{cid}/{g['label']}: count {g['count']} != {want['count']}")
            for key in ("mean", "median", "lwm"):
                if not _close(g[key], want[key]):
                    problems.append(f"{cid}/{g['label']}: {key} {g[key]!r} != {want[key]!r}")
        if tuple(c["measures"]) != MEASURES:
            problems.append(f"{cid}: measures {list(c['measures'])}")
            continue
        for name, value in c["measures"].items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"{cid}: {name} = {value!r} outside [0, 1]")
            if not _close(value, ref["measures"][name]):
                problems.append(f"{cid}: {name} {value!r} != reference {ref['measures'][name]!r}")
        m = c["measures"]
        for kind in ("mean", "lwm"):
            cubed = m[f"{kind}-gc-sqfr"] ** 3
            if not _close(m[f"{kind}-gc-csqfr"], cubed):
                problems.append(f"{cid}: {kind}-gc-csqfr is not the cube of {kind}-gc-sqfr")
    if total != rows:
        problems.append(f"group counts add up to {total}, {rows} rows were written")
    return problems


def plot(doc: dict, scores: dict) -> list[str]:
    """Histogram counts, density mass and density values of a plot-data JSON."""
    problems = []
    if [c["component"] for c in doc["components"]] != sorted(scores):
        return ["plot components are not the written ones"]
    for c in doc["components"]:
        cid = c["component"]
        edges = np.asarray(c["bin_edges"], dtype=np.float64)
        pooled = np.concatenate([scores[cid][g] for g in scores[cid]])
        if (edges[0] != math.floor(pooled.min()) or edges[-1] < pooled.max()
                or np.any(np.diff(edges) != 1.0)):
            problems.append(f"{cid}: bin edges do not cover the scores with unit bins")
            continue
        for g in c["groups"]:
            where = f"{cid}/{g['label']}"
            values = scores[cid][g["label"]]
            # bins are half-open [e_k, e_k+1), the last one closed
            expected = [int(np.count_nonzero((values >= lo) & (values < hi)))
                        for lo, hi in zip(edges[:-1], edges[1:])]
            expected[-1] += int(np.count_nonzero(values == edges[-1]))
            if g["counts"] != expected or sum(g["counts"]) != values.size:
                problems.append(f"{where}: histogram counts differ from a direct count")
            if g["count"] != values.size:
                problems.append(f"{where}: count {g['count']} != {values.size}")
            density = g["density"]
            if density is None:
                problems.append(f"{where}: density missing")
                continue
            x = np.asarray(density["x"])
            y = np.asarray(density["y"])
            h = density["bandwidth"]
            if not _close(h, reference.silverman(values)):
                problems.append(f"{where}: bandwidth {h!r} is not Silverman's rule")
            mass = float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)
            if abs(mass - 1.0) > DENSITY_MASS_TOL:
                problems.append(f"{where}: density integrates to {mass:.4f}")
            for k in DENSITY_PROBES:
                want = reference.gaussian_kde_at(values, float(x[k]), h)
                if not _close(float(y[k]), want):
                    problems.append(f"{where}: density at x={x[k]!r} is {y[k]!r}, not {want!r}")
    return problems


def simulated_csv(path: Path, spec: dict) -> list[str]:
    """The written CSV, read with the csv module, against re-derived samples."""
    want = reference.simulate(spec)
    got: dict[str, list[float]] = {g["label"]: [] for g in spec["groups"]}
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["component", "group", "score"]:
            return ["unexpected CSV header"]
        for component, group, score in reader:
            if component != spec["name"] or group not in got:
                return [f"unexpected row {component},{group},{score}"]
            got[group].append(float(score))
    for g in spec["groups"]:
        label = g["label"]
        if len(got[label]) != g["sample_count"]:
            problems.append(f"group {label}: {len(got[label])} rows, spec asks {g['sample_count']}")
            continue
        values = np.array(got[label], dtype=np.float64)
        if not np.array_equal(values.view(np.uint64), want[label].view(np.uint64)):
            bad = int(np.count_nonzero(values != want[label]))
            problems.append(f"group {label}: {bad} values differ from the PCG64 re-derivation")
    return problems


def fixtures(items: list[dict]) -> tuple[list[str], list[str]]:
    """The reference Gini against the published aggregate tables.

    Returns (problems, red cells). Every cell is checked at its stated
    tolerance; the reference is right when exactly the documented cell is
    outside it.
    """
    red, outside = [], set()
    for f in items:
        gc = reference.gini(f["group_values"].values())
        for measure, published in f["expected"].items():
            got = (1.0 - gc) ** 3 if measure.endswith("_csqfr") else 1.0 - gc
            if abs(got - published) > f["tolerance"]:
                outside.add((f["name"], measure))
                red.append(f"{f['name']} {measure}: {got:.6f} vs published "
                           f"{published} +/- {f['tolerance']}")
    problems = []
    if outside != KNOWN_RED:
        problems.append(f"reference outside the published tolerance at {sorted(outside)},"
                        f" documented: {sorted(KNOWN_RED)}")
    return problems, red
