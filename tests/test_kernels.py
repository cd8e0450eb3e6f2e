"""Correctness of the per-sample kernels in sqfr.kernels."""

import numpy as np
import pytest

from sqfr import kernels


def direct_kde(samples, grid, bandwidth):
    """The defining per-sample Gaussian sum, one kernel per sample."""
    samples = np.asarray(samples, dtype=np.float64)
    u = (np.asarray(grid)[:, None] - samples[None, :]) / bandwidth
    return np.exp(-0.5 * u * u).sum(axis=1) / (samples.size * bandwidth * np.sqrt(2 * np.pi))


class TestCountBelow:
    def test_against_direct_count(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scores = np.sort(rng.integers(0, 60, size=rng.integers(1, 50)).astype(float))
            thresholds = np.sort(rng.uniform(-5, 65, size=rng.integers(0, 25)))
            got = kernels.count_below(scores, thresholds)
            want = [int(np.sum(scores < t)) for t in thresholds]
            assert got.tolist() == want

    def test_strictness(self):
        scores = np.array([1.0, 2.0, 2.0, 3.0])
        assert kernels.count_below(scores, np.array([2.0])).tolist() == [1]

    def test_empty_thresholds(self):
        assert kernels.count_below(np.array([1.0]), np.empty(0)).size == 0


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
        x = rng.uniform(0, 100, 30_000)  # block = 8e6 // 3e4 = 266 < grid size
        grid = np.linspace(0, 100, 512)
        assert kernels.kde_gaussian(x, grid, 2.0) == pytest.approx(
            direct_kde(x, grid, 2.0), rel=1e-12
        )
