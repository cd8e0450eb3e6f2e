"""Acceptance gate: golden-value reproduction, invariant sweeps, pipeline.

Each test prints one [ACCEPTANCE] PASS/FAIL line (run with -s to see them
on success). Expected values come from the published aggregate tables; the
randomized sweeps re-check every invariant on >= 1000 seeded cases each.

Known red: the bimodal-demo cubed rate (fixture q3-lwm). From the
published rounded aggregates {75.4, 81.4} the cubed rate computes to
0.889541, which misses the published 0.889 by 4.1e-5 at the stated
+/-0.0005 rounding radius; the published value was evidently cubed from
unrounded aggregates. The check is kept at the stated tolerance rather
than widened, so it fails honestly.
"""

import itertools
import json
import time

import numpy as np
import pytest

from sqfr import (
    GroupSpec,
    GroupedScores,
    ScenarioSpec,
    builtin_scenarios,
    csqfr,
    discard_curve,
    evaluate_component,
    generate,
    gini_coefficient,
    mdg,
    relevant_thresholds,
    save,
    sqfr,
)
from sqfr.cli import main

from oracles import gini_literal, mdg_recount

def report_line(name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} issue(s))"
    print(f"[ACCEPTANCE] {name}: {status}")
    for failure in failures:
        print(f"    - {failure}")
    assert not failures

def check_cells(cases):
    """cases: (label, values, rate_fn, expected, tolerance) tuples."""
    failures = []
    for label, values, rate_fn, expected, tol in cases:
        got = rate_fn(gini_coefficient(values))
        if abs(got - expected) > tol:
            failures.append(f"{label}: got {got:.6f}, expected {expected} +/- {tol}")
    return failures

class TestGoldenTables:
    def test_slight_and_strong_bias_rates(self):
        cases = [
            ("q1 means", [81.3, 85.3, 86.1], sqfr, 0.98, 0.005),
            ("q1 medians", [82, 85.5, 85], sqfr, 0.99, 0.005),
            ("q2 means", [76.6, 89.4, 90.2], sqfr, 0.95, 0.005),
            ("q2 medians", [77, 90, 90], sqfr, 0.95, 0.005),
        ]
        report_line("three-group slight/strong bias (q1, q2)", check_cells(cases))

    def test_cubed_rate_scenarios(self):
        rows = [
            ("one strong bias", [35, 95, 89], 0.73, 0.38),
            ("one slight bias", [67, 82, 89], 0.91, 0.75),
            ("all different", [30, 50, 95], 0.63, 0.25),
            ("all similar", [84, 89, 87], 0.98, 0.94),
        ]
        cases = []
        for label, values, want_sqfr, want_csqfr in rows:
            cases.append((f"{label} sqfr", values, sqfr, want_sqfr, 0.005))
            cases.append((f"{label} csqfr", values, csqfr, want_csqfr, 0.005))
        report_line("cubed-rate comparison scenarios", check_cells(cases))

    def test_bimodal_lwm_scenario(self):
        # the lwm csqfr cell is the known-red check described in the module
        # docstring; 0.889541 != 0.889 +/- 0.0005
        cases = [
            ("q3 means", [81.95, 82.5], sqfr, 0.997, 0.0005),
            ("q3 medians", [81.5, 82.5], sqfr, 0.994, 0.0005),
            ("q3 lwm sqfr", [75.4, 81.4], sqfr, 0.962, 0.0005),
            ("q3 lwm csqfr", [75.4, 81.4], csqfr, 0.889, 0.0005),
        ]
        report_line("bimodal LWM scenario (q3)", check_cells(cases))

    def test_discard_gap_scenario(self):
        cases = [
            ("q5 means", [72.3, 83.7, 90.4], sqfr, 0.93, 0.005),
            ("q5 medians", [72, 83.5, 90], sqfr, 0.93, 0.005),
        ]
        failures = check_cells(cases)

        # qualitative part: regenerating three well-separated normal groups
        # must put the discard-gap rate far below every Gini-based rate. The
        # builtin q5 scenario uses stddev 2: with wider groups (stddev ~5)
        # the threshold sweep spans the full tails and the mean gap cannot
        # mathematically exceed ~0.45, so 0.5 would be unreachable.
        regenerated = generate(builtin_scenarios()["q5"])
        by_measure = {s.measure: s.value for s in evaluate_component(regenerated)}
        mdg_rate = by_measure.pop("mdg_sqfr")
        if not mdg_rate < 0.5:
            failures.append(f"regenerated q5 mdg_sqfr {mdg_rate:.4f} not < 0.5")
        if not min(by_measure.values()) > 0.5:
            failures.append(f"a Gini-based rate fell to {min(by_measure.values()):.4f} <= 0.5")
        report_line("discard-gap scenario (q5)", failures)

    def test_five_group_scenarios(self):
        rows = [
            ("one strong bias", [31.4, 84.4, 84.9, 85.2, 86.8], 0.85, 0.61),
            ("two strong bias", [31.1, 26.7, 85, 85.1, 87.1], 0.72, 0.38),
            ("one slight bias", [79.1, 85.6, 85, 85.1, 86.9], 0.98, 0.94),
            ("two slight bias", [76, 77.5, 85.6, 86.9, 85.8], 0.96, 0.89),
            ("all similar", [85.7, 87.5, 85.6, 86.6, 86.5], 0.99, 0.98),
            ("all different", [87.5, 72.2, 25, 14.3, 47.3], 0.61, 0.22),
        ]
        cases = []
        for label, values, want_sqfr, want_csqfr in rows:
            cases.append((f"{label} sqfr", values, sqfr, want_sqfr, 0.005))
            cases.append((f"{label} csqfr", values, csqfr, want_csqfr, 0.005))
        failures = check_cells(cases)

        # the all-equal row must be exactly 1.0 for every measure
        equal = GroupedScores("equal", {label: [87.5] for label in "ABCDE"})
        for score in evaluate_component(equal):
            if score.value != 1.0:
                failures.append(f"all-equal row: {score.measure} = {score.value!r} != 1.0")
        report_line("five-group scenarios", failures)

def random_grouped(rng, max_groups=5, max_size=30, integers=True):
    n_groups = rng.integers(2, max_groups + 1)
    # a fifth hold at most 3 integers: ties across groups, all scores equal or 0
    top = 100 if rng.random() < 0.8 else int(rng.integers(0, 3))
    groups = {}
    for i in range(n_groups):
        size = int(rng.integers(1, max_size + 1))
        if integers:
            scores = rng.integers(0, top + 1, size).astype(float)
        else:
            scores = rng.uniform(0, 100, size)
        groups[f"g{i}"] = scores
    return GroupedScores("q", groups)

#: Each pair of the ends of the aggregates' range: 0, 1e-6 and 1e3.
END_PAIRS = [np.array(p) for p in itertools.combinations_with_replacement([0.0, 1e-6, 1e3], 2)]

def wide_values(rng, n):  # from 1e-6 to 1e3, even in magnitude; a quarter exactly 0
    return 10.0 ** rng.uniform(-6, 3, n) * (rng.random(n) >= 0.25)

def sweep_gc_scale_invariance(cases):
    rng = np.random.default_rng(101)
    failures = []
    for i in range(cases):
        n = rng.integers(2, 11)
        values = wide_values(rng, n) if i % 2 else rng.uniform(0, 100, n)
        c = 10.0 ** rng.uniform(-3, 3)
        if i < 2 * len(END_PAIRS):  # first each pair of ends, scaled by each end of c
            values, c = END_PAIRS[i // 2], (1e-3, 1e3)[i % 2]
        a, b = gini_coefficient(values), gini_coefficient(c * values)
        if abs(a - b) > 1e-12 * max(a, b, 1e-300):
            failures.append(f"case {i}: |{a!r} - {b!r}| beyond 1e-12 relative")
    return failures

def sweep_permutation_invariance(cases):
    rng = np.random.default_rng(102)
    failures = []
    for i in range(cases):
        grouped = random_grouped(rng, integers=bool(i % 2))
        labels = list(grouped.groups)
        rng.shuffle(labels)
        permuted = GroupedScores("q", {l: grouped.groups[l] for l in labels})
        a = {s.measure: s.value for s in evaluate_component(grouped)}
        b = {s.measure: s.value for s in evaluate_component(permuted)}
        if a != b:
            failures.append(f"case {i}: {a} != {b}")
    return failures

def sweep_scores_in_range(cases):
    rng = np.random.default_rng(103)
    failures = []
    for i in range(cases):
        for score in evaluate_component(random_grouped(rng, integers=bool(i % 2))):
            if not (0.0 <= score.value <= 1.0):
                failures.append(f"case {i}: {score.measure} = {score.value}")
    return failures

def sweep_cubing_dominance(cases):
    rng = np.random.default_rng(104)
    failures = []
    edges = [0.0, 1.0, 5e-324, 0.5, float(np.nextafter(1.0, 0.0))]
    for i in range(cases):
        gc = edges[i] if i < len(edges) else float(rng.uniform(0, 1))
        plain, cubed = sqfr(gc), csqfr(gc)
        ok = cubed < plain if 0.0 < plain < 1.0 else cubed == plain
        if not ok:
            failures.append(f"case {i}: gc={gc} sqfr={plain} csqfr={cubed}")
    return failures

def sweep_equal_distributions(cases):
    rng = np.random.default_rng(105)
    failures = []
    for i in range(cases):
        size = rng.integers(1, 41)
        scores = rng.uniform(0, 100, size) if i % 2 else rng.integers(0, 101, size).astype(float)
        copies = int(rng.integers(2, 6))
        grouped = GroupedScores("q", {f"g{j}": scores.copy() for j in range(copies)})
        values = [s.value for s in evaluate_component(grouped)]
        if any(v != 1.0 for v in values):
            failures.append(f"case {i}: {values}")
    return failures

def sweep_discard_monotonicity(cases):
    rng = np.random.default_rng(106)
    failures = []
    for i in range(cases):
        grouped = random_grouped(rng)
        ts = relevant_thresholds(grouped)
        if ts.size == 0:
            continue
        for label, fr in discard_curve(grouped, ts).fractions.items():
            if np.any(np.diff(fr) < 0):
                failures.append(f"case {i}: group {label} fractions not monotone")
            if not np.all((fr >= 0) & (fr <= 1)):
                failures.append(f"case {i}: group {label} fractions outside [0, 1]")
    return failures

def sweep_interior_group_irrelevance(cases):
    rng = np.random.default_rng(107)
    failures = []
    for i in range(cases):
        grouped = random_grouped(rng, max_groups=2)
        ts = relevant_thresholds(grouped)
        if ts.size == 0:
            continue
        pooled = np.concatenate(list(grouped.groups.values()))
        widened = GroupedScores("q", {**grouped.groups, "mid": pooled})
        a = mdg(discard_curve(grouped, ts))
        b = mdg(discard_curve(widened, ts))
        if a != b:
            failures.append(f"case {i}: {a!r} != {b!r}")
    return failures

def sweep_gini_oracle(cases):
    rng = np.random.default_rng(108)
    failures = []
    for i in range(cases):
        n = int(rng.integers(2, 13))
        if i % 3 == 2:
            # adversarial: near-equal cluster on a large base
            values = 1e4 + rng.uniform(0, 1e-4, n)
        elif i % 3:
            values = wide_values(rng, n)
        else:
            values = rng.uniform(0, 1000, n)
        if i < len(END_PAIRS):
            values = END_PAIRS[i]
        a, b = gini_coefficient(values), gini_literal(values)
        if abs(a - b) > 1e-12 * max(abs(a), abs(b), 1e-300):
            failures.append(f"case {i}: optimized {a!r} vs literal {b!r}")
    return failures

def sweep_mdg_oracle(cases):
    rng = np.random.default_rng(109)
    failures = []
    for i in range(cases):
        grouped = random_grouped(rng, max_groups=4, max_size=250)  # <= 1000 samples
        ts = relevant_thresholds(grouped)
        if ts.size == 0:
            continue
        got = mdg(discard_curve(grouped, ts))
        want = mdg_recount(grouped, ts)  # brute-force recount of every (group, threshold) pair
        if abs(got - want) > 1e-12 * max(abs(got), abs(want), 1e-300):
            failures.append(f"case {i}: {got!r} vs recount {want!r}")
    return failures

SWEEPS = [
    ("gc scale invariance", sweep_gc_scale_invariance),
    ("group permutation invariance", sweep_permutation_invariance),
    ("scores in [0, 1]", sweep_scores_in_range),
    ("csqfr <= sqfr", sweep_cubing_dominance),
    ("equal distributions are fair", sweep_equal_distributions),
    ("discard monotonicity", sweep_discard_monotonicity),
    ("interior groups never change mdg", sweep_interior_group_irrelevance),
    ("gini optimized vs literal", sweep_gini_oracle),
    ("mdg vs brute-force recount", sweep_mdg_oracle),
]

class TestRandomizedSweeps:
    CASES = 1000
    BUDGET_S = 60 / len(SWEEPS)  # the nine together within 60 s

    @pytest.mark.parametrize(
        "name, sweep", SWEEPS, ids=[sweep.__name__.removeprefix("sweep_") for _, sweep in SWEEPS]
    )
    def test_invariant_sweep(self, name, sweep):
        started = time.perf_counter()
        problems = sweep(self.CASES)
        elapsed = time.perf_counter() - started
        print(f"    property '{name}': {self.CASES} cases, {len(problems)} failures")
        failures = problems[:3]
        if elapsed >= self.BUDGET_S:
            failures.append(f"sweep took {elapsed:.1f}s, budget is {self.BUDGET_S:.1f}s")
        report_line(f"randomized sweep '{name}' ({elapsed:.2f}s)", failures)

class TestPipeline:
    N_COMPONENTS = 10
    N_GROUPS = 5
    N_SAMPLES = 1000

    def _specs(self):
        specs = []
        for i in range(self.N_COMPONENTS):
            groups = [
                GroupSpec(label, "normal", {"mean": 40.0 + 6 * j + i, "stddev": 4.0},
                          self.N_SAMPLES)
                for j, label in enumerate("ABCDE"[: self.N_GROUPS])
            ]
            specs.append(ScenarioSpec(f"c{i:02d}", groups, seed=4000 + i))
        return specs

    def _run_once(self, tmp_path, tag):
        data = tmp_path / f"{tag}.csv"
        out = tmp_path / f"{tag}.json"
        started = time.perf_counter()
        components = {spec.name: generate(spec) for spec in self._specs()}
        save(components, data)
        code = main(["eval", "--input", str(data), "--out", str(out)])
        elapsed = time.perf_counter() - started
        assert code == 0
        report = out.read_text().replace(str(data), "DATA")
        return data.read_bytes(), report, elapsed

    def test_simulate_eval_deterministic_and_fast(self, tmp_path, capsys):
        csv_a, report_a, t_a = self._run_once(tmp_path, "a")
        csv_b, report_b, t_b = self._run_once(tmp_path, "b")
        failures = []
        if csv_a != csv_b:
            failures.append("generated CSV bytes differ across runs")
        if report_a != report_b:
            failures.append("JSON report bytes differ across runs")
        for t in (t_a, t_b):
            if t >= 1.0:
                failures.append(f"pipeline took {t:.2f}s, budget is 1s")
        doc = json.loads(report_a)
        if len(doc["components"]) != self.N_COMPONENTS:
            failures.append(f"expected {self.N_COMPONENTS} components")
        with capsys.disabled():
            print()
            report_line(
                f"end-to-end pipeline ({t_a:.2f}s/{t_b:.2f}s, "
                f"{self.N_COMPONENTS}x{self.N_GROUPS}x{self.N_SAMPLES})",
                failures,
            )
