"""Property-based tests for the measure invariants."""

import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqfr import (
    GroupedScores,
    csqfr,
    discard_curve,
    evaluate_component,
    gini_coefficient,
    kernels,
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

from sqfr.plotdata import _quartiles, silverman_bandwidth

from oracles import discard_recount, gini_exact, gini_literal, mdg_recount, unique_kde

# zero or comfortably normal floats: scaling by c in [1e-3, 1e3] must not
# underflow the inputs themselves
finite_scores = st.one_of(
    st.just(0.0), st.floats(min_value=1e-6, max_value=1000.0, allow_nan=False)
)
aggregate_values = st.lists(finite_scores, min_size=2, max_size=12)

#: Below the smallest normal float, results keep only absolute accuracy.
TINY = float(np.finfo(np.float64).tiny)

# zero, subnormals, and every binade from 1e-300 up to 1e308
extreme_scores = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=TINY, exclude_min=True),
    st.floats(min_value=1e-300, max_value=1e308),
)
extreme_groups = st.lists(
    st.lists(extreme_scores, min_size=1, max_size=10), min_size=2, max_size=4
).map(lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)}))
# few distinct values, -0 beside 0 and the float range's ends among them, so
# that scores tie across groups; or any score up to 100
tie_prone_scores = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 2.0, 7.0, 1e308]),
    st.floats(min_value=0.0, max_value=100.0),
)


def grouped_strategy(max_groups=5, max_size=30, integers=False):
    base = (
        st.integers(min_value=0, max_value=100).map(float)
        if integers
        else st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    )
    group = st.lists(base, min_size=1, max_size=max_size)
    return st.lists(group, min_size=2, max_size=max_groups).map(
        lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)})
    )


class TestGiniProperties:
    @given(aggregate_values)
    @settings(max_examples=300)
    def test_matches_literal_double_loop(self, values):
        assert gini_coefficient(values) == pytest.approx(gini_literal(values), rel=1e-12, abs=1e-15)

    @given(aggregate_values, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=300)
    def test_scale_invariance(self, values, c):
        scaled = [c * v for v in values]
        assert gini_coefficient(scaled) == pytest.approx(gini_coefficient(values), rel=1e-12, abs=1e-15)

    @given(aggregate_values, st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=300)
    def test_translation_strictly_decreases(self, values, shift):
        before = gini_coefficient(values)
        after = gini_coefficient([v + shift for v in values])
        if before == 0.0:
            assert after == 0.0
        else:
            assert after < before

    @given(aggregate_values)
    @settings(max_examples=300)
    def test_result_in_unit_interval(self, values):
        assert 0.0 <= gini_coefficient(values) <= 1.0


class TestExtremeMagnitudes:
    """Finite scores of any magnitude give finite results, never nan."""

    @given(st.lists(extreme_scores, min_size=2, max_size=12))
    @settings(max_examples=300)
    def test_gini_matches_exact(self, values):
        gc = gini_coefficient(values)
        assert 0.0 <= gc <= 1.0
        assert gc == pytest.approx(gini_exact(values), rel=1e-12, abs=1e-12)

    @given(extreme_groups)
    @settings(max_examples=300, deadline=None)
    def test_mean_and_median_match_exact(self, grouped):
        means = mean_aggregate(grouped).values
        medians = median_aggregate(grouped).values
        for label, g in grouped.groups.items():
            xs = sorted(Fraction(v) for v in g)
            mid = len(xs) // 2
            median = xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2
            assert means[label] == pytest.approx(float(sum(xs) / len(xs)), rel=1e-12, abs=TINY)
            assert medians[label] == pytest.approx(float(median), rel=1e-12, abs=TINY)

    @given(extreme_groups)
    @example(GroupedScores("q", {"A": [5e307] * 10 + [0.0], "B": [1e308]}))  # sum overflows
    @settings(max_examples=300, deadline=None)
    def test_low_weight_sums_match_exact(self, grouped):
        pooled = np.concatenate(list(grouped.groups.values()))
        lo, hi = float(pooled.min()), float(pooled.max())
        assume(lo < hi)
        for g in grouped.groups.values():
            weights = [(Fraction(hi) - Fraction(v)) / (Fraction(hi) - Fraction(lo)) for v in g]
            wqsum = sum(w * Fraction(v) for w, v in zip(weights, g))
            got = kernels.low_weight_sums(g, lo, hi)
            assert got[0] == pytest.approx(float(sum(weights)), rel=1e-12)
            if wqsum <= Fraction(sys.float_info.max):
                assert got[1] == pytest.approx(float(wqsum), rel=1e-12, abs=TINY)
            else:  # the exact sum exceeds the float range
                assert got[1] == math.inf

    @given(extreme_groups)
    @example(GroupedScores("q", {"A": [0.0], "B": [1e-323, 5e-324]}))  # w * q rounds to 0
    @example(  # subnormal weights round, which took g1's LWM above its maximum
        GroupedScores("q", {"g0": [2.13411854e-308], "g1": [1e-300, np.nextafter(1e-300, 1)]})
    )
    @settings(max_examples=300, deadline=None)
    def test_lwm_within_each_groups_range(self, grouped):
        for label, value in lwm_aggregate(grouped).values.items():
            g = grouped.groups[label]
            assert g.min() * (1 - 1e-12) <= value <= g.max() * (1 + 1e-12)

    @given(extreme_groups)
    @settings(max_examples=150, deadline=None)
    def test_all_measures_in_unit_interval(self, grouped):
        for score in evaluate_component(grouped, thresholds_mode="observed"):
            assert 0.0 <= score.value <= 1.0


class TestRateProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_cubing_dominance(self, gc):
        plain, cubed = sqfr(gc), csqfr(gc)
        assert cubed <= plain
        if 0.0 < plain < 1.0:
            assert cubed < plain
        else:
            assert cubed == plain


class TestMeasureProperties:
    @given(grouped_strategy())
    @settings(max_examples=150, deadline=None)
    def test_all_measures_in_unit_interval(self, grouped):
        for score in evaluate_component(grouped):
            assert 0.0 <= score.value <= 1.0

    @given(grouped_strategy(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_group_permutation_invariance(self, grouped, rnd):
        labels = list(grouped.groups)
        rnd.shuffle(labels)
        permuted = GroupedScores(grouped.component_id, {l: grouped.groups[l] for l in labels})
        original = {s.measure: s.value for s in evaluate_component(grouped)}
        shuffled = {s.measure: s.value for s in evaluate_component(permuted)}
        assert original == shuffled

    @given(grouped_strategy(max_groups=4, max_size=15), st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_equal_distributions_are_perfectly_fair(self, grouped, copies):
        scores = grouped.groups["g0"]
        equal = GroupedScores("q", {f"g{i}": scores.copy() for i in range(copies)})
        assert all(s.value == 1.0 for s in evaluate_component(equal))

    @given(grouped_strategy(integers=True))
    @settings(max_examples=150, deadline=None)
    def test_lwm_within_each_groups_range(self, grouped):
        pooled_max = float(np.concatenate(list(grouped.groups.values())).max())
        for label, value in lwm_aggregate(grouped).values.items():
            g = grouped.groups[label]
            if np.all(g == pooled_max):
                assert value == pooled_max
            else:
                assert g.min() - 1e-9 <= value <= g.max() + 1e-9


class TestScoreOrderIndependence:
    """The measures see each group as a multiset: the order of its scores is
    never an input, down to the last bit."""

    @given(grouped_strategy(), st.randoms(use_true_random=False))
    @example(GroupedScores("q", {"A": [0.3, 0.1, 0.2], "B": [5.0]}), None)
    @example(GroupedScores("q", {"A": [1.7, 81.3, 91.3], "B": [5.0]}), None)
    @settings(max_examples=150, deadline=None)
    def test_shuffled_groups_give_identical_results(self, grouped, rnd):
        shuffled = {}
        for label, g in grouped.groups.items():
            order = list(range(g.size))
            if rnd is None:
                order.reverse()
            else:
                rnd.shuffle(order)
            shuffled[label] = g[order]
        ascending = GroupedScores("q", {label: np.sort(g) for label, g in grouped.groups.items()})
        shuffled = GroupedScores("q", shuffled)

        def bits(gs):
            out = {
                (agg.__name__, label): value.hex()
                for agg in (mean_aggregate, median_aggregate, lwm_aggregate)
                for label, value in agg(gs).values.items()
            }
            for mode in ("sequence", "observed"):
                for score in evaluate_component(gs, thresholds_mode=mode):
                    out[mode, score.measure] = score.value.hex()
            return out

        assert bits(shuffled) == bits(ascending)


class TestDiscardProperties:
    @given(grouped_strategy(integers=True))
    @settings(max_examples=150, deadline=None)
    def test_fractions_monotone_in_threshold(self, grouped):
        ts = relevant_thresholds(grouped)
        assume(ts.size > 0)
        for fr in discard_curve(grouped, ts).fractions.values():
            assert np.all(np.diff(fr) >= 0)
            assert np.all((fr >= 0) & (fr <= 1))

    @given(grouped_strategy(max_groups=3, integers=True))
    @settings(max_examples=150, deadline=None)
    def test_mdg_matches_recount(self, grouped):
        ts = relevant_thresholds(grouped)
        assume(ts.size > 0)
        got = mdg(discard_curve(grouped, ts))
        assert got == pytest.approx(mdg_recount(grouped, ts), rel=1e-12, abs=1e-15)

    @given(st.one_of(grouped_strategy(max_groups=4), grouped_strategy(max_groups=4, integers=True)))
    @example(GroupedScores("q", {"A": [3.0], "B": [1.0, 2.0, 3.0, 3.0, 5.0], "C": [0.5, 3.0]}))
    @settings(max_examples=300, deadline=None)
    def test_observed_fractions_equal_recount(self, grouped):
        # one threshold per distinct pooled score: groups smaller than the
        # sweep face more thresholds than they hold scores
        ts = observed_thresholds(grouped)
        assume(ts.size > 0)
        curve = discard_curve(grouped, ts)
        want = discard_recount(grouped, ts)
        assert [fr.tolist() for fr in curve.fractions.values()] == want.tolist()
        assert mdg(curve) == pytest.approx(mdg_recount(grouped, ts), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("block", [1, 2, 7, measures._SWEEP_BLOCK])
    @given(
        st.one_of(
            grouped_strategy(max_groups=4),
            grouped_strategy(integers=True),
            # few distinct values: ties across groups, -0 beside 0, groups
            # of one score, and groups wholly below or above a block
            st.lists(
                st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.5, 7.0]), min_size=1, max_size=8),
                min_size=2,
                max_size=5,
            ).map(lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)})),
        ),
        st.sampled_from(
            [("observed", 1.0), ("sequence", 1.0), ("sequence", 0.5), ("sequence", 0.3)]
        ),
    )
    @example(
        GroupedScores("q", {"A": [3.0], "B": [1.0, 2.0, 3.0, 3.0, 5.0], "C": [0.5, 3.0]}),
        ("observed", 1.0),
    )
    @example(
        GroupedScores("q", {"A": [-0.0, 0.0, 0.0], "B": [0.0, 1.0], "C": [2.0]}), ("sequence", 1.0)
    )
    # integer scores 100 apart at step 0.01: over 8192 thresholds, more than
    # one unpatched block and far more than any group's scores
    @example(
        GroupedScores("q", {"A": [0.0, 40.0, 40.0, 100.0], "B": [10.0, 55.0, 90.0], "C": [70.0]}),
        ("sequence", 0.01),
    )
    @settings(max_examples=150, deadline=None)
    def test_fused_sweep_equals_the_discard_curve(self, block, grouped, sweep):
        mode, step = sweep
        grouped = grouped.validated()
        if mode == "observed":
            ts = observed_thresholds(grouped)
        else:
            ts = relevant_thresholds(grouped, step)
        assume(ts.size > 0)
        with mock.patch.object(measures, "_SWEEP_BLOCK", block):
            got = mdg_sqfr(grouped, step, mode).value
        assert got == 1.0 - mdg(discard_curve(grouped, ts))  # exactly, not approximately
        assert got == pytest.approx(1.0 - mdg_recount(grouped, ts), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("block", [1, 2, 7, measures._SWEEP_BLOCK])
    @given(
        st.one_of(
            grouped_strategy(max_groups=4),
            grouped_strategy(integers=True),
            # few distinct values, the float range's ends among them: ties
            # across groups, -0 beside 0, and groups of one score
            st.lists(
                st.lists(
                    st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 2.0, 7.0, 1e308]),
                    min_size=1,
                    max_size=8,
                ),
                min_size=2,
                max_size=5,
            ).map(lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)})),
            # every score equal: no threshold, perfectly fair
            st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4).map(
                lambda ns: GroupedScores("q", {f"g{i}": [1.0] * n for i, n in enumerate(ns)})
            ),
        )
    )
    @example(GroupedScores("q", {"A": [-0.0], "B": [0.0, 0.0, 1.0], "C": [-0.0, 0.0, 1.0]}))
    @example(GroupedScores("q", {"A": [1.0], "B": [1.0, 1.0]}))
    # more groups than a byte can number, of 1 to 8 tied integer scores each
    @example(GroupedScores(
        "q", {f"g{i}": [float((7 * i + 13 * j) % 40) for j in range(1 + i % 8)] for i in range(300)}
    ))
    @settings(max_examples=150, deadline=None)
    def test_observed_sweep_equals_the_discard_curve(self, block, grouped):
        ts = observed_thresholds(grouped)
        want = 1.0 - mdg(discard_curve(grouped, ts)) if ts.size else 1.0
        with mock.patch.object(measures, "_SWEEP_BLOCK", block):
            got = mdg_sqfr(grouped, thresholds_mode="observed").value
        assert got == want  # exactly, not approximately

    @pytest.mark.parametrize("block", [1, 2, 7, measures._SWEEP_BLOCK])
    @given(
        st.lists(
            st.one_of(
                st.lists(tie_prone_scores, min_size=1, max_size=1),
                st.lists(tie_prone_scores, min_size=2, max_size=8),
            ),
            min_size=20,
            max_size=60,
        ).map(lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)}))
    )
    @settings(max_examples=60, deadline=None)
    def test_observed_sweep_over_many_groups_equals_the_discard_curve(self, block, grouped):
        ts = observed_thresholds(grouped)
        want = 1.0 - mdg(discard_curve(grouped, ts)) if ts.size else 1.0
        with mock.patch.object(measures, "_SWEEP_BLOCK", block):
            got = mdg_sqfr(grouped, thresholds_mode="observed").value
        assert got == want  # exactly, not approximately

    @pytest.mark.parametrize("block", [1, 7])
    @given(
        st.one_of(
            grouped_strategy(max_groups=4),
            grouped_strategy(integers=True),
            st.lists(
                st.lists(tie_prone_scores, min_size=1, max_size=12), min_size=2, max_size=40
            ).map(lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)})),
        )
    )
    # the pooled minimum is the first cut, with nothing below it
    @example(GroupedScores("q", {"A": [1.0, 1.0, 1.0, 2.0], "B": [1.0, 1.0, 3.0]}))
    @settings(max_examples=150, deadline=None)
    def test_observed_sweep_over_small_merge_blocks_equals_the_discard_curve(self, block, grouped):
        # room for two scores per group in a block: the cuts fall a few
        # scores apart even in small groups, so ties at a cut, blocks with
        # nothing between two cuts and runs across many cuts all occur
        ts = observed_thresholds(grouped)
        want = 1.0 - mdg(discard_curve(grouped, ts)) if ts.size else 1.0
        with mock.patch.object(measures, "_SWEEP_BLOCK", block), \
                mock.patch.object(measures, "_MERGE_GROUP_SCORES", 2):
            got = mdg_sqfr(grouped, thresholds_mode="observed").value
        assert got == want  # exactly, not approximately

    @given(grouped_strategy(max_groups=2, integers=True))
    @settings(max_examples=150, deadline=None)
    def test_pooled_interior_group_never_changes_mdg(self, grouped):
        ts = relevant_thresholds(grouped)
        assume(ts.size > 0)
        labels = list(grouped.groups)
        pooled = np.concatenate([grouped.groups[l] for l in labels])
        widened = GroupedScores("q", {**grouped.groups, "interior": pooled})
        assert mdg(discard_curve(widened, ts)) == mdg(discard_curve(grouped, ts))

    @given(grouped_strategy(integers=True), st.floats(min_value=0.25, max_value=3.0))
    @settings(max_examples=150, deadline=None)
    def test_threshold_sequence_bounds(self, grouped, step):
        pooled = np.concatenate(list(grouped.groups.values()))
        ts = relevant_thresholds(grouped, step=step)
        if pooled.min() == pooled.max():
            assert ts.size == 0
        else:
            assert ts[0] > pooled.min()
            assert ts[-1] == pooled.max()
            assert np.all(np.diff(ts) > 0)


#: Scores that stay normal floats when scaled by 2**k for k in [-40, 40].
scalable_scores = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=100).map(float),
    st.floats(min_value=1e-3, max_value=100.0),
)


class TestUnitInvariance:
    """A score unit that is a power of two changes no bit of any measure:
    scaling by 2**k is exact, so every sum, quotient and threshold of the
    scaled scores is the scaled one of the originals."""

    @given(
        st.lists(st.lists(scalable_scores, min_size=1, max_size=12), min_size=2, max_size=4)
        .map(lambda gs: GroupedScores("q", {f"g{i}": g for i, g in enumerate(gs)})),
        st.floats(min_value=0.05, max_value=30.0),
        st.integers(min_value=-40, max_value=40),
    )
    @example(GroupedScores("q", {"A": [0.0, 0.5], "B": [0.25, 1.0]}), 0.3, -40)
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_rescaling_keeps_every_bit(self, grouped, step, k):
        scale = 2.0 ** k
        scaled = GroupedScores("q", {label: g * scale for label, g in grouped.groups.items()})
        before = evaluate_component(grouped, step, "sequence")
        after = evaluate_component(scaled, step * scale, "sequence")
        assert [s.measure for s in after] == [s.measure for s in before]
        assert [s.value.hex() for s in after] == [s.value.hex() for s in before]


class TestMedianConvention:
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=150)
    def test_even_counts_average_middle_pair(self, values):
        assume(len(values) % 2 == 0)
        ordered = sorted(values)
        mid = len(values) // 2
        expected = (ordered[mid - 1] + ordered[mid]) / 2
        gs = GroupedScores("q", {"A": values, "B": [1.0]})
        from sqfr import median_aggregate

        assert median_aggregate(gs).values["A"] == pytest.approx(expected)
        assert math.isfinite(expected)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# ties, subnormals and the float maximum among them, or any score up to it
quartile_scores = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, TINY, 1.0, 2.0, 1e308, sys.float_info.max]),
    st.floats(min_value=0.0, max_value=sys.float_info.max),
)


def _np_silverman(values):
    """The rule of thumb with np.quantile's quartiles."""
    sd = float(np.std(values, ddof=1))
    q1, q3 = np.quantile(values, [0.25, 0.75])
    iqr = float(q3 - q1)
    return 0.9 * (min(sd, iqr / 1.34) if iqr > 0 else sd) * values.size ** (-0.2)


class TestNumpyEquivalents:
    """The plot path's own quartiles and distinct values give numpy's bits
    without calling the numpy functions that import numpy.ma."""

    @given(st.lists(quartile_scores, min_size=2, max_size=40), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_quartiles_match_np_quantile(self, values, ascending):
        v = np.array(sorted(values) if ascending else values)
        assert _bits(_quartiles(v)) == _bits(np.quantile(v, [0.25, 0.75]))

    def test_quartiles_match_np_quantile_on_random_arrays(self):
        rng = np.random.default_rng(26)
        for _ in range(2000):
            n = int(rng.integers(2, 300))
            v = rng.normal(70, 8, n)
            v = np.abs(np.round(v) if rng.random() < 0.5 else v)
            assert _bits(_quartiles(v)) == _bits(np.quantile(v, [0.25, 0.75]))

    @given(st.lists(quartile_scores, min_size=2, max_size=40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_silverman_matches_np_quantile_through_the_overflow_rule(self, values, ascending):
        v = np.array(sorted(values) if ascending else values)
        h = measures._scale_free(_np_silverman, v)
        assert _bits([silverman_bandwidth(v)]) == _bits([h if h >= TINY else 0.0])

    @given(st.lists(tie_prone_scores, max_size=40), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_distinct_matches_np_unique(self, values, ascending):
        # sorted() keeps -0.0 and 0.0 in their given order, as they compare equal
        a = np.array(sorted(values) if ascending else values, dtype=np.float64)
        got = kernels._distinct(a)
        want = np.unique(a, return_counts=True)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]  # -0.0 == 0.0
        bits = a.view(np.int64)  # -0.0 and 0.0 apart
        got = kernels._distinct(bits, inverse=True)
        want = np.unique(bits, return_inverse=True)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]

    @given(st.lists(tie_prone_scores, min_size=1, max_size=40), st.booleans(),
           st.sampled_from([0.5, 1.0, 2.75, 40.0]))
    @settings(max_examples=300, deadline=None)
    def test_kde_matches_the_np_unique_form(self, values, ascending, h):
        x = np.array(sorted(values) if ascending else values, dtype=np.float64)
        grid = np.linspace(-3.0, 103.0, 17)
        assert _bits(kernels.kde_gaussian(x, grid, h)) == _bits(unique_kde(x, grid, h))
