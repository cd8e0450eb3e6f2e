"""Unit tests for the fairness measures.

Expected values tagged "oracle:" were computed with the literal definition
(double-loop Gini, hand-counted discard fractions) and frozen here.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sqfr import (
    DomainError,
    FairnessScore,
    GroupedScores,
    ValidationError,
    csqfr,
    discard_curve,
    evaluate_component,
    gini_coefficient,
    lwm_aggregate,
    mdg,
    mdg_sqfr,
    mean_aggregate,
    measures,
    median_aggregate,
    observed_thresholds,
    relevant_thresholds,
    sqfr,
)
from sqfr.dataset import Dataset, load_csv, load_json, save, validate
from sqfr.plotdata import build_plotdata
from sqfr.report import build_report
from sqfr.types import DiscardCurve


def grouped(groups, cid="q"):
    return GroupedScores(cid, groups)


class TestAggregates:
    def test_mean_published_shape(self):
        gs = grouped({"A": [80.3, 82.3], "B": [84.3, 86.3], "C": [85.1, 87.1]})
        assert mean_aggregate(gs).values == {"A": 81.3, "B": 85.3, "C": 86.1}

    def test_mean_singleton(self):
        gs = grouped({"A": [5], "B": [7]})
        assert mean_aggregate(gs).values["A"] == 5

    def test_mean_by_hand(self):
        gs = grouped({"A": [1, 2, 3], "B": [10, 10]})
        assert mean_aggregate(gs).values == {"A": 2, "B": 10}

    def test_median_published_shape(self):
        gs = grouped({"A": [80, 82, 84], "B": [85, 86], "C": [85, 85]})
        assert median_aggregate(gs).values == {"A": 82, "B": 85.5, "C": 85}

    def test_median_even_count_middle_pair(self):
        gs = grouped({"A": [1, 2, 100, 101], "B": [7]})
        assert median_aggregate(gs).values["A"] == 51

    @pytest.mark.parametrize(
        "values",
        [[3.0], [1.0, 2.0], [0.1, 0.2, 0.7], [1.0, 1.0, 2.0, 2.0], [0.1, 0.2, 0.7, 1e-300],
         [1e308, 1e308], [7e307, 1e308, 1e308], [5.0, 1.0, 3.0, 2.0], [2.0, 1.0, 9.0]],
        ids=["one", "two", "odd", "ties", "subnormal-sum", "overflow", "overflow-odd",
             "unsorted-even", "unsorted-odd"],
    )
    def test_median_matches_np_median_bit_for_bit(self, values):
        g = np.array(values)
        with np.errstate(over="ignore"):
            expected = float(np.median(g))
        if not np.isfinite(expected):
            expected = float(np.median(g / g.max())) * float(g.max())
        got = median_aggregate(grouped({"A": g, "B": [1.0]})).values["A"]
        assert got == expected

    def test_median_of_large_sorted_groups(self):
        rng = np.random.default_rng(5)
        for n in (10_000, 10_001):
            g = np.sort(rng.uniform(0, 100, n))
            assert median_aggregate(grouped({"A": g, "B": [1.0]})).values["A"] == np.median(g)

    def test_empty_group_rejected(self):
        gs = grouped({"A": [1], "B": []})
        with pytest.raises(ValidationError, match="group 'B' has no scores"):
            mean_aggregate(gs)

    def test_single_group_rejected(self):
        with pytest.raises(ValidationError, match="n >= 2 required"):
            median_aggregate(grouped({"A": [1, 2]}))

    def test_aggregates_keep_group_order(self):
        gs = grouped({"z": [1.0], "a": [2.0]})
        assert list(mean_aggregate(gs).values) == ["z", "a"]

    def test_sums_beyond_float_range_stay_finite(self):
        gs = grouped({"A": [1e308, 1e308, 7e307, 7e307], "B": [1.0]})
        assert mean_aggregate(gs).values["A"] == pytest.approx(8.5e307, rel=1e-15)
        assert median_aggregate(gs).values["A"] == pytest.approx(8.5e307, rel=1e-15)


class TestValidation:
    INVALID = grouped({"A": [1.0, -2.0], "B": [3.0]})

    @pytest.mark.parametrize(
        "call",
        [
            mean_aggregate,
            median_aggregate,
            lwm_aggregate,
            relevant_thresholds,
            observed_thresholds,
            lambda gs: discard_curve(gs, [2.0]),
            mdg_sqfr,
            evaluate_component,
        ],
        ids=["mean", "median", "lwm", "relevant", "observed", "discard", "mdg", "evaluate"],
    )
    def test_direct_calls_reject_invalid_scores(self, call):
        with pytest.raises(ValidationError, match="negative scores"):
            call(self.INVALID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda gs: gs.validated(),
            mean_aggregate,
            median_aggregate,
            lwm_aggregate,
            relevant_thresholds,
            observed_thresholds,
            lambda gs: discard_curve(gs, [2.0]),
            mdg_sqfr,
            evaluate_component,
            lambda gs: build_report(Dataset({"q": gs})),
            lambda gs: build_plotdata(Dataset({"q": gs})),
        ],
        ids=["validated", "mean", "median", "lwm", "relevant", "observed", "discard", "mdg",
             "evaluate", "report", "plotdata"],
    )
    def test_non_finite_scores_rejected(self, call, bad):
        gs = grouped({"A": [1.0, bad], "B": [3.0]})
        with pytest.raises(ValidationError, match="group 'A' contains non-finite scores"):
            call(gs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_reports_non_finite_scores(self, bad):
        diags = validate(Dataset({"q": grouped({"A": [1.0, bad], "B": [3.0]})}))
        assert [(d.severity, d.message) for d in diags] == [
            ("error", "component 'q': group 'A' contains non-finite scores")
        ]

    def test_report_checks_each_component_once(self, monkeypatch):
        calls = []
        original = GroupedScores.problems
        monkeypatch.setattr(
            GroupedScores, "problems", lambda self: calls.append(1) or original(self)
        )
        gs = grouped({"A": [1.0, 2.0], "B": [3.0, 5.0]})
        build_report(Dataset({"q": gs}))
        assert len(calls) == 1


class TestCanonicalForm:
    """``GroupedScores.validated`` is the one gate to the measures."""

    def test_groups_come_back_ascending_and_read_only(self):
        canonical = grouped({"A": [3.0, 1.0, 2.0], "B": [4.0, 5.0]}).validated()
        assert {l: g.tolist() for l, g in canonical.groups.items()} == {
            "A": [1.0, 2.0, 3.0], "B": [4.0, 5.0]}
        assert not any(g.flags.writeable for g in canonical.groups.values())
        assert canonical.pooled_range() == (1.0, 5.0)

    @pytest.mark.parametrize("scores", [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, -0.0, 2.0],
                                        [0.0, -0.0] * 40, [-0.0, -0.0, 0.0, 3.0]])
    def test_negative_zeros_keep_their_sign_and_come_first(self, scores):
        group = grouped({"A": scores, "B": [1.0]}).validated().groups["A"]
        k = sum(np.signbit(scores))
        assert np.signbit(group).tolist() == [True] * k + [False] * (len(scores) - k)
        assert group.tolist() == sorted(scores) and not group.flags.writeable

    def test_canonical_input_comes_back_as_itself(self):
        canonical = grouped({"A": [3.0, 1.0], "B": [2.0]}).validated()
        assert canonical.validated() is canonical

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_loaded_components_are_canonical(self, tmp_path, suffix):
        path = tmp_path / f"d{suffix}"
        save({"q1": grouped({"A": [3.0, 1.0, 2.0], "B": [1.0, 2.0]}, "q1"),
              "q2": grouped({"A": [5.0], "B": [9.0, 0.5]}, "q2")}, path)
        ds = (load_csv if suffix == ".csv" else load_json)(path)
        for component in ds.components.values():
            assert component.validated() is component

    def test_callers_arrays_keep_their_order_and_flag(self):
        unsorted, ascending = np.array([3.0, 1.0, 2.0]), np.array([1.0, 4.0])
        gs = grouped({"A": unsorted, "B": ascending})
        canonical = gs.validated()
        evaluate_component(gs)
        assert unsorted.tolist() == [3.0, 1.0, 2.0] and unsorted.flags.writeable
        assert ascending.flags.writeable
        assert gs.groups["A"].tolist() == [3.0, 1.0, 2.0] and gs.groups["A"].flags.writeable
        # an ascending group is shared, not copied
        assert np.shares_memory(canonical.groups["B"], ascending)


class TestLwm:
    def test_degenerate_single_score(self):
        gs = grouped({"A": [50, 50], "B": [50]})
        assert lwm_aggregate(gs).values == {"A": 50, "B": 50}

    def test_hand_weights(self):
        # w(0) = 1, w(100) = 0
        gs = grouped({"A": [0, 100], "B": [0]})
        assert lwm_aggregate(gs).values == {"A": 0, "B": 0}

    def test_zero_weight_group_falls_back_to_max(self):
        gs = grouped({"A": [0, 50], "B": [100, 100]})
        values = lwm_aggregate(gs).values
        assert values["A"] == pytest.approx((1 * 0 + 0.5 * 50) / 1.5)  # oracle: 16.666...
        assert values["B"] == 100

    def test_lwm_within_group_range(self):
        gs = grouped({"A": [10, 30, 90], "B": [40, 60]})
        values = lwm_aggregate(gs).values
        assert 10 <= values["A"] <= 90
        assert 40 <= values["B"] <= 60

    def test_weights_emphasize_low_scores(self):
        gs = grouped({"A": [20, 80], "B": [20, 80, 50]})
        values = lwm_aggregate(gs).values
        assert values["A"] < 50  # plain mean would be 50

    def test_weighted_sum_beyond_float_range(self):
        # sum of w * q is 10 * 0.5 * 5e307 = 2.5e308, past the float maximum
        gs = grouped({"A": [5e307] * 10 + [0.0], "B": [1e308]})
        assert lwm_aggregate(gs).values["A"] == pytest.approx(5e307 * (5 / 6), rel=1e-12)


class TestGini:
    def test_oracle_q1_means(self):
        # oracle: 19.2 / (2 * 2 * 252.7) via the literal double loop
        assert gini_coefficient([81.3, 85.3, 86.1]) == pytest.approx(0.018994855559952502)

    def test_oracle_strong_bias(self):
        assert gini_coefficient([35, 95, 89]) == pytest.approx(360 / 1314)  # 0.273972...

    def test_zero_dispersion(self):
        for c in (0.0, 1.0, 87.5):
            assert gini_coefficient([c, c, c, c]) == 0.0

    def test_accepts_aggregates_and_mappings(self):
        gs = grouped({"A": [80.3, 82.3], "B": [84.3, 86.3], "C": [85.1, 87.1]})
        from_agg = gini_coefficient(mean_aggregate(gs))
        assert from_agg == gini_coefficient({"A": 81.3, "B": 85.3, "C": 86.1})
        assert from_agg == gini_coefficient([81.3, 85.3, 86.1])

    def test_single_value_rejected(self):
        with pytest.raises(DomainError, match="at least 2"):
            gini_coefficient([5.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            gini_coefficient([5.0, -1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            gini_coefficient([5.0, float("nan")])

    def test_all_zero_is_perfect_equality(self):
        assert gini_coefficient([0.0, 0.0, 0.0]) == 0.0

    def test_sums_beyond_float_range_stay_finite(self):
        assert gini_coefficient([1e308, 1e308, 0.0]) == pytest.approx(0.5, rel=1e-15)
        # the sums fit, but (n - 1) * total does not
        assert gini_coefficient([5e307, 5e307, 6e307]) == pytest.approx(0.0625, rel=1e-12)

    def test_extreme_concentration_hits_one(self):
        # one group holds everything: the n/(n-1) correction makes this exactly 1
        assert gini_coefficient([0.0, 0.0, 10.0]) == pytest.approx(1.0)


class TestRates:
    def test_sqfr_is_complement(self):
        assert sqfr(0.0) == 1.0
        assert sqfr(0.05308352849336455) == pytest.approx(0.95, abs=0.005)  # q2 means

    def test_csqfr_cubes(self):
        assert csqfr(0.0) == 1.0
        gc = gini_coefficient([35, 95, 89])
        assert csqfr(gc) == pytest.approx(0.38, abs=0.005)
        gc = gini_coefficient([84, 89, 87])
        assert csqfr(gc) == pytest.approx(0.94, abs=0.005)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_domain_checks(self, bad):
        with pytest.raises(DomainError):
            sqfr(bad)
        with pytest.raises(DomainError):
            csqfr(bad)


class TestThresholds:
    def test_unit_steps(self):
        gs = grouped({"A": [1, 3], "B": [2]})
        assert relevant_thresholds(gs).tolist() == [2, 3]

    def test_all_equal_is_empty(self):
        gs = grouped({"A": [5, 5], "B": [5]})
        assert relevant_thresholds(gs).size == 0

    def test_fractional_span_is_capped_at_max(self):
        gs = grouped({"A": [10.0, 12.5], "B": [11.0]})
        assert relevant_thresholds(gs).tolist() == [11.0, 12.0, 12.5]

    def test_custom_step(self):
        gs = grouped({"A": [0.0, 10.0], "B": [5.0]})
        assert relevant_thresholds(gs, step=2.5).tolist() == [2.5, 5.0, 7.5, 10.0]

    @pytest.mark.parametrize("k", [0, -40, -20, 40])
    def test_the_snap_onto_the_maximum_scales_with_the_scores(self, k):
        # 0.9 is one step short of 1, so the maximum is appended on every scale
        scale = 2.0 ** k
        gs = grouped({"A": [0.0, 0.5 * scale], "B": [0.25 * scale, scale]})
        ts = relevant_thresholds(gs, step=0.3 * scale) / scale
        assert ts.tolist() == [0.3, 0.6, 0.8999999999999999, 1.0]
        assert mdg_sqfr(gs, step=0.3 * scale).value == 0.625

    def test_step_must_be_positive(self):
        gs = grouped({"A": [1], "B": [2]})
        with pytest.raises(DomainError, match="positive"):
            relevant_thresholds(gs, step=0)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 10**400, "1", True],
                             ids=["nan", "inf", "int-beyond-float", "str", "bool"])
    def test_step_must_be_finite(self, step):
        gs = grouped({"A": [1], "B": [2]})
        with pytest.raises(DomainError, match="finite and positive"):
            relevant_thresholds(gs, step=step)
        with pytest.raises(DomainError, match="finite and positive"):
            mdg_sqfr(gs, step=step, thresholds_mode="observed")

    def test_observed_mode_uses_distinct_scores_above_min(self):
        gs = grouped({"A": [1, 1, 4], "B": [2, 4]})
        assert observed_thresholds(gs).tolist() == [2, 4]

    def test_oversized_sweep_rejected(self):
        gs = grouped({"A": [0.0], "B": [1e12]})
        with pytest.raises(DomainError, match="raise the step"):
            relevant_thresholds(gs)

    @pytest.mark.parametrize("top, step, points", [(1.6e308, 1.0, "1.6e+308"),
                                                   (100.0, 5e-324, "inf")])
    def test_oversized_sweep_names_its_point_count_in_three_digits(self, top, step, points):
        gs = grouped({"A": [0.0], "B": [top]})
        with pytest.raises(DomainError, match="raise the step") as info:
            relevant_thresholds(gs, step=step)
        assert f"would need {points} points" in str(info.value)


class TestDiscard:
    def test_hand_counts(self):
        gs = grouped({"A": [1, 3], "B": [3, 3]})
        curve = discard_curve(gs, [2, 3])
        assert curve.fractions["A"].tolist() == [0.5, 0.5]
        assert curve.fractions["B"].tolist() == [0.0, 0.0]

    def test_threshold_above_max_discards_all(self):
        gs = grouped({"A": [1, 2], "B": [5]})
        curve = discard_curve(gs, [10])
        assert curve.fractions["A"].tolist() == [1.0]

    def test_threshold_at_min_discards_none(self):
        # strict comparison: nothing is below its own value
        gs = grouped({"A": [1, 2], "B": [5]})
        assert discard_curve(gs, [1]).fractions["A"].tolist() == [0.0]

    def test_unsorted_group_counts_like_sorted(self):
        gs = grouped({"A": [3.0, 1.0, 2.0], "B": [5.0]})
        assert discard_curve(gs, [2, 3]).fractions["A"].tolist() == [1 / 3, 2 / 3]

    def test_unsorted_thresholds_rejected(self):
        gs = grouped({"A": [1], "B": [2]})
        with pytest.raises(DomainError, match="sorted"):
            discard_curve(gs, [3, 2])

    @pytest.mark.parametrize("thresholds", [[np.nan], [1.5, np.nan, 3.5], [np.nan, 1.0]])
    def test_nan_thresholds_rejected(self, thresholds):
        # no order holds a NaN, so its counts (and its neighbours') would be arbitrary
        gs = grouped({"A": [1.0, 2.0, 3.0], "B": [2.0, 3.0, 4.0]})
        with pytest.raises(DomainError, match="not NaN"):
            discard_curve(gs, thresholds)

    def test_fractions_monotone(self):
        rng = np.random.default_rng(3)
        gs = grouped({l: rng.integers(0, 100, 37).astype(float) for l in "ABC"})
        curve = discard_curve(gs, relevant_thresholds(gs))
        for fr in curve.fractions.values():
            assert np.all(np.diff(fr) >= 0)


class TestMdg:
    def test_hand_mean_gap(self):
        curve = DiscardCurve(
            np.array([2.0, 3.0]),
            {"A": np.array([0.5, 0.5]), "B": np.array([0.0, 0.0])},
        )
        assert mdg(curve) == 0.5

    def test_identical_curves_gap_zero(self):
        fr = np.array([0.1, 0.4, 0.9])
        curve = DiscardCurve(np.arange(3.0), {"A": fr, "B": fr.copy(), "C": fr.copy()})
        assert mdg(curve) == 0.0

    def test_interior_group_is_ignored(self):
        gs_two = grouped({"A": [10, 20, 30], "B": [25, 30, 35]})
        ts = relevant_thresholds(gs_two)
        # a pooled copy of both groups has a discard curve between theirs
        interior = np.concatenate([gs_two.groups["A"], gs_two.groups["B"]])
        gs_three = grouped({"A": [10, 20, 30], "B": [25, 30, 35], "C": interior})
        assert mdg(discard_curve(gs_three, ts)) == mdg(discard_curve(gs_two, ts))

    def test_empty_thresholds_rejected(self):
        curve = DiscardCurve(np.empty(0), {"A": np.empty(0), "B": np.empty(0)})
        with pytest.raises(DomainError, match="threshold"):
            mdg(curve)

    def test_two_groups_required(self):
        curve = DiscardCurve(np.array([1.0]), {"A": np.array([0.5])})
        with pytest.raises(DomainError, match="2 groups"):
            mdg(curve)

    def test_hand_built_rows_fold_from_the_first_row(self):
        # values outside [0, 1]: the running extremes cannot start at 0 and 1
        rows = {"A": [2.0, -1.0, 0.75], "B": [1.5, -3.0, 0.25]}
        thresholds = np.array([1.0, 2.0, 3.0])
        as_arrays = DiscardCurve(thresholds, {k: np.array(v) for k, v in rows.items()})
        assert mdg(DiscardCurve(thresholds, rows)) == 1.0  # gaps 0.5, 2 and 0.5
        assert mdg(as_arrays) == 1.0
        assert as_arrays.fractions["A"].tolist() == rows["A"]  # the rows are not written

    @pytest.mark.parametrize(
        "rows",
        [
            {"A": [0.1, 0.2], "B": [0.3]},  # numpy would broadcast the one value
            {"A": [0.1, 0.2], "B": [0.3, 0.4, 0.5]},
            {"A": [0.1], "B": [0.3, 0.4]},
            {"A": [[0.1, 0.2]], "B": [0.3, 0.4]},
        ],
    )
    def test_rows_not_matching_the_thresholds_rejected(self, rows):
        with pytest.raises(DomainError, match="one value per threshold"):
            mdg(DiscardCurve(np.array([1.0, 2.0]), rows))


#: Components that stress the observed sweep's block merge, from a seeded
#: generator: ties longer than a block, few distinct values, a group of one
#: score, many small groups and groups whose ranges do not meet.
MERGE_SHAPES = {
    "one-value-tied-across-2x250000": lambda rng: {
        label: np.concatenate((np.full(250_000, 7.0), rng.uniform(0, 14, 3_000 + 700 * i)))
        for i, label in enumerate("AB")
    },
    "two-values": lambda rng: {
        "A": np.repeat([1.0, 2.0], [150_000, 100_000]),
        "B": np.repeat([1.0, 2.0], [40_000, 210_000]),
    },
    "1-score-against-499999": lambda rng: {
        "A": rng.uniform(0, 100, 1), "B": rng.uniform(0, 100, 499_999)
    },
    # scores on a grid of 0.5, so that the oracle's discard curve holds
    # 10,000 x 200 fractions, not 10,000 x 5e5
    "10000-groups-of-50": lambda rng: {
        f"g{i}": rng.integers(0, 200, 50) / 2 for i in range(10_000)
    },
    "groups-that-do-not-overlap": lambda rng: {
        f"g{i}": rng.uniform(10 * i, 10 * i + 9, 40_000) for i in range(5)
    },
}


class TestMdgSqfr:
    def test_hand_example(self):
        assert mdg_sqfr(grouped({"A": [1, 3], "B": [3, 3]})).value == 0.5

    def test_identical_multisets_perfectly_fair(self):
        gs = grouped({"A": [3, 1, 7], "B": [7, 3, 1]})
        assert mdg_sqfr(gs).value == 1.0

    def test_all_equal_degenerates_to_one(self):
        assert mdg_sqfr(grouped({"A": [5], "B": [5, 5]})).value == 1.0

    def test_observed_mode(self):
        gs = grouped({"A": [1, 3], "B": [3, 3]})
        score = mdg_sqfr(gs, thresholds_mode="observed")
        assert score.measure == "mdg_sqfr"
        assert score.value == 0.5  # single observed threshold at 3; gap 0.5

    def test_observed_sweep_holds_little_beside_its_thresholds(self):
        # the sweep keeps one gap array, 8 bytes per threshold, and a few
        # temporaries of one block of at most 4 * _SWEEP_BLOCK scores at
        # this group count; building a whole discard curve held one fraction
        # array per group, and sorting the whole pool 21 bytes per score
        rng = np.random.default_rng(7)
        gs = grouped({f"g{i}": rng.random(100_000) * 100 for i in range(5)}).validated()
        threshold_bytes = observed_thresholds(gs).nbytes
        tracemalloc.start()
        try:
            mdg_sqfr(gs, thresholds_mode="observed")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threshold_bytes + 6 * 8 * 4 * measures._SWEEP_BLOCK

    def test_observed_sweep_holds_no_more_for_more_groups(self):
        # as many scores in 100 groups: the sweep's arrays grow with the
        # pooled scores, not with the group count
        rng = np.random.default_rng(7)
        gs = grouped({f"g{i}": rng.random(5_000) * 100 for i in range(100)}).validated()
        threshold_bytes = observed_thresholds(gs).nbytes
        tracemalloc.start()
        try:
            mdg_sqfr(gs, thresholds_mode="observed")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threshold_bytes + 6 * 8 * 4 * measures._SWEEP_BLOCK

    @pytest.mark.parametrize("block", [measures._SWEEP_BLOCK, 1, 7])
    @pytest.mark.parametrize("shape", sorted(MERGE_SHAPES))
    def test_observed_sweep_merges_stress_shapes_bit_for_bit(self, shape, block):
        gs = grouped(MERGE_SHAPES[shape](np.random.default_rng(25))).validated()
        ts = observed_thresholds(gs)
        want = 1.0 - mdg(discard_curve(gs, ts)) if ts.size else 1.0
        with mock.patch.object(measures, "_SWEEP_BLOCK", block):
            tracemalloc.start()
            try:
                got = mdg_sqfr(gs, thresholds_mode="observed").value
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert got == want  # exactly, not approximately
        # the sweep that sorted the whole pool held it, its int64 argsort,
        # an int32 copy of that and one flag: over 21 bytes per score
        assert peak <= 21 * sum(g.size for g in gs.groups.values())


class TestEvaluateComponent:
    def test_q2_aggregates_as_singletons(self):
        gs = grouped({"A": [76.6], "B": [89.4], "C": [90.2]}, cid="q2")
        by_measure = {s.measure: s.value for s in evaluate_component(gs)}
        assert by_measure["mean_gc_sqfr"] == pytest.approx(0.95, abs=0.005)

    def test_all_equal_groups_all_measures_one(self):
        gs = grouped({l: [87.5] for l in "ABCDE"})
        scores = evaluate_component(gs)
        assert len(scores) == 6
        assert all(s.value == 1.0 for s in scores)

    @pytest.mark.parametrize("mode", ["sequence", "observed"])
    @pytest.mark.parametrize("score", [0.0, 5e-324, 1e-300, 0.1, 87.3, 1e308])
    def test_one_repeated_score_in_groups_of_any_size_is_perfectly_fair(self, score, mode):
        # a mean of repeated scores can round away from them: 0.1 three times
        # sums to 0.30000000000000004
        gs = grouped({"A": [score] * 3, "B": [score], "C": [score] * 7})
        scores = evaluate_component(gs, thresholds_mode=mode)
        assert len(scores) == 6
        assert all(s.value == 1.0 for s in scores)

    def test_five_group_strong_bias(self):
        gs = grouped({l: [v] for l, v in zip("ABCDE", [31.4, 84.4, 84.9, 85.2, 86.8])})
        by_measure = {s.measure: s.value for s in evaluate_component(gs)}
        assert by_measure["mean_gc_sqfr"] == pytest.approx(0.85, abs=0.005)
        assert by_measure["mean_gc_csqfr"] == pytest.approx(0.61, abs=0.005)

    def test_measure_subset_keeps_canonical_order(self):
        gs = grouped({"A": [1, 2], "B": [3]})
        scores = evaluate_component(gs, measures=["mdg_sqfr", "mean_gc_sqfr"])
        assert [s.measure for s in scores] == ["mean_gc_sqfr", "mdg_sqfr"]

    def test_given_aggregates_are_used(self, monkeypatch):
        gs = grouped({"A": [1.0, 2.0, 9.0], "B": [3.0, 4.0], "C": [5.0]})
        given = {"mean": mean_aggregate(gs), "median": median_aggregate(gs),
                 "lwm": lwm_aggregate(gs)}
        expected = evaluate_component(gs)
        for name in ("mean_aggregate", "median_aggregate", "lwm_aggregate"):
            monkeypatch.setattr(f"sqfr.measures.{name}", None)
        assert evaluate_component(gs, aggregates=given) == expected

    def test_one_given_aggregate_and_a_subset_match_the_plain_call(self):
        gs = grouped({"A": [1.0, 2.0, 9.0], "B": [3.0, 4.5], "C": [5.0, 0.25]})
        subset = ["lwm_gc_csqfr", "median_gc_sqfr", "mean_gc_csqfr", "mdg_sqfr"]
        given = {"median": median_aggregate(gs)}
        got = evaluate_component(gs, measures=subset, aggregates=given)
        assert got == evaluate_component(gs, measures=subset)
        assert list(given) == ["median"]  # the caller's mapping is not filled in

    def test_report_computes_each_aggregate_once_per_component(self, monkeypatch):
        import sqfr.measures

        calls = []
        for name in ("mean_aggregate", "median_aggregate", "lwm_aggregate"):
            original = getattr(sqfr.measures, name)
            monkeypatch.setattr(
                sqfr.measures, name,
                lambda gs, name=name, original=original: calls.append(name) or original(gs),
            )
        gs = grouped({"A": [1.0, 2.0], "B": [3.0, 5.0]})
        build_report(Dataset({"q": gs, "r": gs}))
        assert sorted(calls) == sorted(["mean_aggregate", "median_aggregate", "lwm_aggregate"] * 2)

    def test_unknown_thresholds_mode_rejected(self):
        gs = grouped({"A": [1], "B": [2]})
        with pytest.raises(DomainError, match="unknown thresholds mode 'bogus'"):
            mdg_sqfr(gs, thresholds_mode="bogus")
        with pytest.raises(DomainError, match="unknown thresholds mode 'bogus'"):
            evaluate_component(gs, thresholds_mode="bogus")

    def test_unknown_measure_rejected(self):
        gs = grouped({"A": [1], "B": [2]})
        with pytest.raises(DomainError, match="unknown measures"):
            evaluate_component(gs, measures=["bogus"])

    @pytest.mark.parametrize("names", ["mdg_sqfr", b"mdg_sqfr", bytearray(b"mdg_sqfr")],
                             ids=["str", "bytes", "bytearray"])
    def test_a_bare_string_is_named_whole(self, names):
        gs = grouped({"A": [1], "B": [2]})
        match = rf"^measures must be a collection of keys, not the string {re.escape(repr(names))};"
        with pytest.raises(DomainError, match=match):
            evaluate_component(gs, measures=names)
        with pytest.raises(DomainError, match=match):
            build_report(Dataset({"q": gs}), selected=names)

    @pytest.mark.parametrize("names, named", [
        (["x", 1], "['x', 1]"),
        ([["mdg_sqfr"]], "[['mdg_sqfr']]"),
        (["mdg_sqfr", {"lwm_gc_sqfr"}, None], "[{'lwm_gc_sqfr'}, None]"),
        (["mean-gc-sqfr", "b", "mdg_sqfr", "b"], "['b', 'mean-gc-sqfr']"),
        (5, "not 5"),
    ], ids=["mixed-types", "unhashable", "set-and-none", "strings-sorted", "not-iterable"])
    def test_every_bad_selection_raises_domain_error(self, names, named):
        gs = grouped({"A": [1], "B": [2]})
        with pytest.raises(DomainError, match=re.escape(named)):
            evaluate_component(gs, measures=names)
        with pytest.raises(DomainError, match=re.escape(named)):
            build_report(Dataset({"q": gs}), selected=names)

    def test_results_are_tagged_scores(self):
        gs = grouped({"A": [1, 2], "B": [3]})
        for s in evaluate_component(gs):
            assert isinstance(s, FairnessScore)
            assert 0.0 <= s.value <= 1.0


class TestDominanceCounterexamples:
    """The paper's definitions can rate a component fairer after a group
    that every other group already dominates is lowered: no score of
    ``low`` rises, every score of ``a`` stays at or above all of ``low``'s,
    and the measure still rises. Pinned as today's behaviour, each against
    its definition."""

    @pytest.mark.parametrize("a, before, after, mode, measure, rates", [
        ([39], [3, 17], [1, 17], "sequence", "mdg_sqfr", (7 / 36, 4 / 19)),
        ([5, 7, 8, 10], [0, 0, 0, 1], [0, 0, 0, 0], "observed", "mdg_sqfr", (0.35, 0.375)),
        ([26], [2, 26], [0, 17], "sequence", "lwm_gc_sqfr",
         (0.1428571428571429, 0.2878645343367826)),
    ], ids=["sequence-mdg", "observed-mdg", "lwm"])
    def test_lowering_a_dominated_group_raises_the_rate(self, a, before, after, mode, measure,
                                                       rates):
        assert max(before + after) <= min(a)
        assert all(new <= old for old, new in zip(sorted(before), sorted(after)))
        got = []
        for low in (before, after):
            gs = grouped({"a": a, "low": low})
            [score] = evaluate_component(gs, thresholds_mode=mode, measures=[measure])
            if measure == "mdg_sqfr":
                sweep = relevant_thresholds(gs) if mode == "sequence" else observed_thresholds(gs)
                assert score.value == pytest.approx(1 - mdg(discard_curve(gs, sweep)), rel=1e-12)
            else:
                assert score.value == pytest.approx(sqfr(gini_coefficient(lwm_aggregate(gs))),
                                                    rel=1e-12)
            got.append(score.value)
        assert got == pytest.approx(list(rates), rel=1e-12)
        assert got[1] > got[0]


class TestFairnessScoreType:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            FairnessScore("mdg_sqfr", 1.5)

    def test_measure_name_enforced(self):
        with pytest.raises(ValueError, match="unknown measure"):
            FairnessScore("nope", 0.5)
