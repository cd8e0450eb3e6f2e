"""Seeded input generation for the four workloads.

Inputs are made with numpy and the standard library only, never with
sqfr's own writers, so the bytes a workload reads depend on the seed alone
and stay the same on every commit of the program. Each generator writes its
files into the run's work directory and returns what it wrote (the score
arrays and row count, or the spec), which the checks then compare the
program's output against.

Shape (from the acceptance pipeline): components c00..c09, each with the
groups A..E. Group E of every component is a two-mode mixture, the other
groups are normal; means and spreads are drawn from the seed.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

COMPONENTS = tuple(f"c{i:02d}" for i in range(10))
GROUPS = ("A", "B", "C", "D", "E")

#: Scores per (component, group) for each file-based read workload.
EVAL_PER_GROUP = 10_000  # 5e5 CSV rows
PLOT_PER_GROUP = 10_000  # 5e5 JSON scores
#: Scores per (component, group) of the in-memory float dataset (5e6 in all).
REPORT_PER_GROUP = 100_000
#: Samples per group of the simulate spec (2e6 rows in all).
SIM_PER_GROUP = 500_000


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def _draw(rng, n: int, mixture: bool, centre: tuple[float, float],
          spread: tuple[float, float]) -> np.ndarray:
    mean = rng.uniform(*centre)
    sd = rng.uniform(*spread)
    if not mixture:
        return rng.normal(mean, sd, n)
    modes = np.array([mean - 8.0, mean + 8.0])
    return rng.normal(modes[rng.integers(0, 2, n)], sd)


def integer_scores(rng, per_group: int) -> dict[str, dict[str, np.ndarray]]:
    """Integer-quantized scores in [0, 100], as quality algorithms emit them."""
    return {
        c: {
            g: np.clip(np.rint(_draw(rng, per_group, g == "E", (68.0, 84.0), (3.0, 6.0))),
                       0, 100).astype(np.int64)
            for g in GROUPS
        }
        for c in COMPONENTS
    }


def float_scores(rng, per_group: int) -> dict[str, dict[str, np.ndarray]]:
    """Unquantized, nearly all-distinct scores, each group sorted ascending.

    Centres and spreads keep every score at least nine standard deviations
    above zero, so no clipping is needed and none creates ties.
    """
    out = {}
    for c in COMPONENTS:
        out[c] = {}
        for g in GROUPS:
            x = np.sort(_draw(rng, per_group, g == "E", (55.0, 70.0), (2.0, 4.0)))
            if x[0] < 0:
                raise ValueError("generated a negative score")
            out[c][g] = x
    return out


def write_eval_csv(seed: int, work: Path) -> dict:
    """Rows ``group,component,score`` in seeded random order."""
    rng = _rng(seed, "eval-csv-int")
    scores = integer_scores(rng, EVAL_PER_GROUP)
    lines = [
        f"{g},{c},{s}\n"
        for c in COMPONENTS for g in GROUPS for s in scores[c][g].tolist()
    ]
    order = rng.permutation(len(lines)).tolist()
    with open(work / "scores.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("group,component,score\n")
        fh.write("".join([lines[i] for i in order]))
    return {"scores": scores, "rows": len(lines)}


def write_plot_json(seed: int, work: Path) -> dict:
    rng = _rng(seed, "plotdata-json-int")
    scores = integer_scores(rng, PLOT_PER_GROUP)
    doc = {"components": {c: {g: scores[c][g].tolist() for g in GROUPS} for c in COMPONENTS}}
    (work / "scores.json").write_text(json.dumps(doc), encoding="utf-8")
    return {"scores": scores, "rows": len(COMPONENTS) * len(GROUPS) * PLOT_PER_GROUP}


def write_report_arrays(seed: int, work: Path) -> dict:
    """The float dataset as one .npz; the worker builds the Dataset from it."""
    rng = _rng(seed, "report-float-observed")
    scores = float_scores(rng, REPORT_PER_GROUP)
    np.savez(work / "scores.npz", **{f"{c}.{g}": scores[c][g] for c in COMPONENTS for g in GROUPS})
    return {"scores": scores, "rows": len(COMPONENTS) * len(GROUPS) * REPORT_PER_GROUP}


def write_sim_spec(seed: int, work: Path) -> dict:
    """A quantized spec with two normal and two mixture groups."""
    rng = _rng(seed, "simulate-csv")
    groups = []
    for label in ("A", "B"):
        groups.append({
            "label": label, "distribution": "normal",
            "parameters": {"mean": round(rng.uniform(70, 88), 3),
                           "stddev": round(rng.uniform(2, 6), 3)},
            "sample_count": SIM_PER_GROUP,
        })
    for label in ("C", "D"):
        centre = rng.uniform(70, 85)
        groups.append({
            "label": label, "distribution": "mixture_of_normals",
            "parameters": {"means": [round(centre - 9, 3), round(centre + 9, 3)],
                           "stddevs": [3.0, round(rng.uniform(2, 5), 3)],
                           "weights": [0.4, 0.6]},
            "sample_count": SIM_PER_GROUP,
        })
    spec = {"name": "bench", "seed": int(rng.integers(0, 2**31)),
            "clamp_range": [0, 100], "quantize": True, "groups": groups}
    (work / "spec.json").write_text(json.dumps(spec, indent=2), encoding="utf-8")
    return {"spec": spec}


WRITERS = {
    "eval-csv-int": write_eval_csv,
    "report-float-observed": write_report_arrays,
    "plotdata-json-int": write_plot_json,
    "simulate-csv": write_sim_spec,
}
