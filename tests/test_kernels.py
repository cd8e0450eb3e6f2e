"""Correctness of the per-sample kernels in sqfr.kernels."""

import tracemalloc

import numpy as np
import pytest

from sqfr import kernels

from oracles import direct_count, direct_kde, unique_kde


class TestCountBelow:
    """Against the defining count, with the thresholds fewer than, as many as
    and more than the scores."""

    @pytest.mark.parametrize(
        "n_scores, n_thresholds",
        [(50, 25), (25, 25), (25, 50), (3, 400)],
        ids=["fewer-thresholds", "as-many", "more-thresholds", "far-more-thresholds"],
    )
    def test_against_direct_count(self, n_scores, n_thresholds):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores = np.sort(rng.integers(0, 60, size=rng.integers(1, n_scores + 1)).astype(float))
            thresholds = np.sort(rng.uniform(-5, 65, size=rng.integers(0, n_thresholds + 1)))
            got = kernels.count_below(scores, thresholds)
            assert got.dtype == np.int64
            assert got.tolist() == direct_count(scores, thresholds)

    @pytest.mark.parametrize(
        "scores, thresholds",
        [
            ([1.0, 2.0, 2.0, 3.0], [2.0]),  # a threshold equal to repeated scores
            ([2.0], [1.0, 2.0, 2.0, 3.0]),  # repeated thresholds, one equal to the score
            ([1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),  # every threshold a score
            ([1.0, 1.0, 3.0], [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),  # below and above all
            ([5.0], [-1.0, 0.0, 5.0, 5.0, 6.0, 7.0]),  # a single score
            ([0.0, 0.0], [0.0, 0.0, 0.0, 1e308]),  # all scores at zero
            ([1.0, 2.0, 3.0, 4.0], [-1.0, 0.0, 5.0]),  # fewer thresholds, outside the scores
            ([], [1.0, 2.0]),  # no scores
            # a narrow band of thresholds inside the scores
            ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [4.5, 5.5]),
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [2.5, 7.5]),
            ([5.0, 6.0, 7.0], [0.0, 1.0, 2.0, 3.0]),  # band below every score
            ([1.0, 2.0, 3.0], [4.0, 5.0]),  # band above every score
            ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [6.5]),  # one threshold above every score
            # band ends equal to repeated scores
            ([1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0], [2.0, 3.0, 4.0]),
            ([1.0, 2.0, 2.0, 3.0, 3.0, 4.0], [2.0, 2.5, 3.0, 3.0, 3.5, 3.5, 3.5]),
            ([2.0, 2.0, 2.0], [2.0]),  # the band is one threshold at every score
            ([1.0, 2.0, 2.0, 3.0], [3.5, 0.0, 2.0, 1.5, 2.0]),  # thresholds in no order
        ],
    )
    def test_ties_and_edges(self, scores, thresholds):
        got = kernels.count_below(np.array(scores), np.array(thresholds))
        assert got.dtype == np.int64
        assert got.tolist() == direct_count(scores, thresholds)

    def test_strictness(self):
        scores = np.array([1.0, 2.0, 2.0, 3.0])
        assert kernels.count_below(scores, np.array([2.0])).tolist() == [1]
        assert kernels.count_below(np.array([2.0]), scores).tolist() == [0, 0, 0, 1]

    def test_empty_thresholds(self):
        got = kernels.count_below(np.array([1.0]), np.empty(0))
        assert got.size == 0 and got.dtype == np.int64

    def test_accepts_readonly_inputs(self):
        scores, thresholds = np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.0, 2.5, 3.5])
        scores.flags.writeable = False
        thresholds.flags.writeable = False
        assert kernels.count_below(scores, thresholds).tolist() == [0, 1, 1, 2, 3]
        assert kernels.count_below(thresholds, scores).tolist() == [1, 2, 4]


class TestCountBelowNumbers:
    """count_below over integer scores at every integer threshold k from
    start to stop - 1: thresholds packed closer than the scores, as a fine
    sequence step on integer data makes them."""

    @pytest.mark.parametrize(
        "numbers, start, stop",
        [
            ([0, 1, 1, 3, 3, 3, 6], 1, 8),  # ties, below, inside and above the range
            ([2, 2, 5, 9], 3, 7),  # a range strictly inside the numbers
            ([0, 1, 2], 5, 9),  # all below start
            ([6, 6, 8], 2, 7),  # all at stop - 1
            ([7, 9, 12], 2, 7),  # all above stop - 1
            ([1, 4, 4], 4, 5),  # a range with one k, equal to tied numbers
            ([3], 0, 1),  # a range with one k, below every number
            ([], 1, 4),  # no numbers
        ],
    )
    def test_against_direct_count(self, numbers, start, stop):
        numbers = np.array(numbers, dtype=np.int64)
        got = kernels.count_below(numbers, np.arange(start, stop))
        assert got.dtype == np.int64
        assert got.tolist() == [int((numbers < k).sum()) for k in range(start, stop)]


class TestLowWeightSums:
    def test_hand_case(self):
        wsum, wqsum = kernels.low_weight_sums(np.array([0.0, 50.0]), 0.0, 100.0)
        assert wsum == pytest.approx(1.5)
        assert wqsum == pytest.approx(25.0)

    def test_matches_vector_expression(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(10, 90, 500)
        wsum, wqsum = kernels.low_weight_sums(x, 10.0, 90.0)
        w = (90.0 - x) / 80.0
        assert wsum == pytest.approx(float(w.sum()), rel=1e-12)
        assert wqsum == pytest.approx(float((w * x).sum()), rel=1e-12)

    def test_extreme_scales_stay_exact(self):
        # (hi - q) * q underflows at the tiny scale and overflows at the large one
        wsum, wqsum = kernels.low_weight_sums(np.array([0.0, 5e-309, 1e-308]), 0.0, 1e-308)
        assert wsum == pytest.approx(1.5, rel=1e-15)
        assert wqsum == pytest.approx(2.5e-309, rel=1e-15)
        wsum, wqsum = kernels.low_weight_sums(np.array([0.0, 5e307, 1e308]), 0.0, 1e308)
        assert wsum == pytest.approx(1.5, rel=1e-15)
        assert wqsum == pytest.approx(2.5e307, rel=1e-15)

    def test_wrappers_accept_readonly_and_lists(self):
        frozen = np.array([1.0, 2.0, 3.0])
        frozen.flags.writeable = False
        assert kernels.count_below(frozen, [2.0]).tolist() == [1]
        assert kernels.low_weight_sums(frozen, 1.0, 3.0)[0] == pytest.approx(1.5)


class TestKde:
    @pytest.mark.parametrize(
        "samples",
        [
            np.sort(np.random.default_rng(3).normal(70, 6, 5000).round()),  # repeated integers
            np.random.default_rng(4).uniform(0, 100, 3000),  # all distinct, unsorted
            np.array([42.0, 17.0, 42.0, 99.5, 17.0, 17.0, 0.0]),  # repeats, unsorted
            np.array([5.0]),
        ],
        ids=["repeated-integers", "distinct-floats", "unsorted-repeats", "single"],
    )
    def test_matches_per_sample_sum(self, samples):
        grid = np.linspace(samples.min() - 10, samples.max() + 10, 257)
        got = kernels.kde_gaussian(samples, grid, 2.5)
        assert got == pytest.approx(direct_kde(samples, grid, 2.5), rel=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(50, 8, 400)
        h = 2.0
        grid = np.linspace(x.min() - 4 * h, x.max() + 4 * h, 512)
        y = kernels.kde_gaussian(x, grid, h)
        assert np.all(y >= 0)
        assert np.trapezoid(y, grid) == pytest.approx(1.0, abs=0.02)

    def test_peak_near_mass(self):
        x = np.full(50, 10.0)
        grid = np.array([0.0, 10.0, 20.0])
        y = kernels.kde_gaussian(x, grid, 1.0)
        assert y[1] > y[0] and y[1] > y[2]

    def test_grid_chunking_is_seamless(self):
        # enough distinct values that the grid is split into blocks
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 100, 30_000)  # block = 2**16 // 3e4 = 2 rows < grid size
        grid = np.linspace(0, 100, 512)
        assert kernels.kde_gaussian(x, grid, 2.0) == pytest.approx(
            direct_kde(x, grid, 2.0), rel=1e-12
        )

    @pytest.mark.parametrize("rows", [1, 3, None], ids=["1-row", "3-rows", "default"])
    def test_block_size_moves_no_bit(self, monkeypatch, rows):
        # distinct floats, unsorted, and integers that repeat
        x = np.random.default_rng(21).uniform(0, 100, 3001)
        x = np.concatenate([x, np.floor(x[:700])])
        grid = np.linspace(-5, 105, 256)
        if rows is not None:
            monkeypatch.setattr(kernels, "_KDE_BLOCK_ELEMENTS", rows * np.unique(x).size)
        got = kernels.kde_gaussian(x, grid, 1.7)
        assert got.view(np.int64).tolist() == unique_kde(x, grid, 1.7).view(np.int64).tolist()

    def test_temporaries_are_bounded(self):
        # 10**5 distinct floats on a 256-point grid: a block of 8e6 elements held
        # three (80 x 10**5) temporaries, over 240 MiB
        x = np.sort(np.random.default_rng(8).uniform(0, 100, 100_000))
        grid = np.linspace(-5, 105, 256)
        kernels.kde_gaussian(x[:10], grid, 1.0)
        tracemalloc.start()
        try:
            kernels.kde_gaussian(x, grid, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the distinct values, their counts and positions, and two one-row temporaries
        assert peak < 8 * x.nbytes
