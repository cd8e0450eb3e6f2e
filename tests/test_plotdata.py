"""Histogram/density export: conservation, degenerate inputs, normalization."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from sqfr import ConfigError, Dataset, GroupedScores
from sqfr.plotdata import (
    build_plotdata,
    histogram_edges,
    render,
    silverman_bandwidth,
    to_csv,
    to_json,
)


def make_dataset(groups, cid="q"):
    return Dataset({cid: GroupedScores(cid, groups)})


class TestBandwidth:
    def test_matches_rule_of_thumb(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 200)
        sd = np.std(x, ddof=1)
        q1, q3 = np.quantile(x, [0.25, 0.75])
        expected = 0.9 * min(sd, (q3 - q1) / 1.34) * 200 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected)

    def test_degenerate_cases(self):
        assert silverman_bandwidth(np.array([5.0])) == 0.0
        assert silverman_bandwidth(np.full(10, 3.0)) == 0.0
        # a subnormal bandwidth would overflow the kernel's normalization
        assert silverman_bandwidth(np.array([0.0, 0.0, 5e-324, 5e-324, 5e-324, 1.0])) == 0.0

    def test_zero_iqr_falls_back_to_sd(self):
        x = np.array([5.0] * 20 + [50.0])  # iqr 0, sd > 0
        assert silverman_bandwidth(x) > 0


class TestEdges:
    def test_unit_width_integer_aligned(self):
        assert histogram_edges(10.2, 13.7).tolist() == [10, 11, 12, 13, 14]

    def test_single_value_gets_one_bin(self):
        assert histogram_edges(87.5, 87.5).tolist() == [87, 88]

    def test_custom_width(self):
        assert histogram_edges(0.0, 10.0, bin_width=5.0).tolist() == [0, 5, 10]

    def test_bad_width(self):
        with pytest.raises(ConfigError, match="positive"):
            histogram_edges(0, 1, bin_width=0)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
    def test_width_must_be_finite(self, width):
        with pytest.raises(ConfigError, match="finite and positive"):
            histogram_edges(0, 1, bin_width=width)

    def test_too_many_bins_names_a_width_that_fits(self, monkeypatch):
        monkeypatch.setattr("sqfr.plotdata.MAX_THRESHOLDS", 100)
        with pytest.raises(ConfigError, match="more than 100 bins") as info:
            histogram_edges(0.0, 1e12)
        width = float(str(info.value).rsplit("raise the bin width above ", 1)[1])
        assert 0 < histogram_edges(0.0, 1e12, bin_width=width * 1.000001).size - 1 <= 100


    @pytest.mark.parametrize("lo, hi, width", [
        (1e16, 1.0000000000000004e16, 1.0),
        (1e16, 1e16, 1.0),
        (2.0**60, 2.0**60 + 2048, 100.0),
        (1e300, 1e300, 1e-300),
    ], ids=["1e16", "one-value-at-1e16", "2**60", "1e300"])
    def test_zero_width_bins_name_a_width_that_works(self, lo, hi, width):
        with pytest.raises(ConfigError, match="zero width") as info:
            histogram_edges(lo, hi, bin_width=width)
        named = float(str(info.value).rsplit("a bin width of ", 1)[1].split()[0])
        assert named > width
        edges = histogram_edges(lo, hi, bin_width=named)
        assert np.all(np.diff(edges) > 0) and edges[0] <= lo and edges[-1] >= hi


class TestBuild:
    def test_counts_sum_to_group_sizes(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(
            {"A": rng.integers(0, 100, 321).astype(float),
             "B": rng.integers(20, 60, 123).astype(float)}
        )
        plot = build_plotdata(ds)
        groups = {g.label: g for g in plot.components[0].groups}
        assert sum(groups["A"].counts) == 321
        assert sum(groups["B"].counts) == 123

    def test_edges_shared_across_groups(self):
        ds = make_dataset({"A": [0.0, 10.0], "B": [50.0, 99.0]})
        plot = build_plotdata(ds)
        assert plot.components[0].bin_edges[0] == 0
        assert plot.components[0].bin_edges[-1] == 99

    def test_single_valued_group_histogram_only(self):
        ds = make_dataset({"A": [42.0, 42.0, 42.0], "B": [10.0, 50.0, 90.0]})
        plot = build_plotdata(ds)
        groups = {g.label: g for g in plot.components[0].groups}
        assert groups["A"].density is None
        assert sum(1 for c in groups["A"].counts if c > 0) == 1
        assert groups["B"].density is not None
        assert len(plot.warnings) == 1
        assert "group 'A'" in str(plot.warnings[0])

    def test_density_integral_near_one(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(
            {"A": rng.normal(40, 6, 500), "B": rng.normal(70, 3, 400)}
        )
        plot = build_plotdata(ds, grid_points=400)
        for g in plot.components[0].groups:
            x = np.array(g.density["x"])
            y = np.array(g.density["y"])
            assert np.all(y >= 0)
            assert 0.98 <= np.trapezoid(y, x) <= 1.02

    def test_fixed_bandwidth_override(self):
        ds = make_dataset({"A": [1.0, 2.0, 3.0], "B": [4.0, 5.0]})
        plot = build_plotdata(ds, bandwidth=2.5)
        for g in plot.components[0].groups:
            assert g.density["bandwidth"] == 2.5

    def test_tiny_normal_bandwidth_is_finite_and_quiet(self, recwarn):
        ds = make_dataset({"A": [1.0, 2.0], "B": [3.0, 5.0]})
        for g in build_plotdata(ds, bandwidth=1e-300).components[0].groups:
            assert np.all(np.isfinite(g.density["y"]))
        assert len(recwarn) == 0

    def test_overflowing_spread_keeps_densities_finite_and_quiet(self, recwarn):
        # np.std of this group overflows; the bandwidth is taken in units of its maximum
        ds = make_dataset({"A": [0.0] * 10 + [1e300], "B": [0.0, 1.0, 2.0]})
        plot = build_plotdata(ds, bin_width=1e295)
        for g in plot.components[0].groups:
            assert 0 < g.density["bandwidth"] < math.inf
            assert np.all(np.isfinite(g.density["x"])) and np.all(np.isfinite(g.density["y"]))
        assert plot.warnings == [] and len(recwarn) == 0

    def test_density_grid_beyond_float_range(self, recwarn):
        ds = make_dataset({"A": [0.0, 1.7e308], "B": [0.0, 1.0, 2.0]})
        plot = build_plotdata(ds, bin_width=1e302)
        groups = {g.label: g for g in plot.components[0].groups}
        assert groups["A"].density is None and groups["B"].density is not None
        h = silverman_bandwidth(ds.components["q"].groups["A"])
        assert [str(w) for w in plot.warnings] == [
            f"component 'q' group 'A': Silverman bandwidth {h!r}"
            " puts the density grid beyond the float range, density omitted"
        ]
        with pytest.raises(ConfigError, match="group 'A': bandwidth 1e\\+308 puts the density grid"):
            build_plotdata(ds, bin_width=1e302, bandwidth=1e308)
        assert len(recwarn) == 0

    # floats near 1e16 lie 2 apart, and each group spans at most 4
    NEAR_1E16 = {"A": [1e16, 1.0000000000000004e16], "B": [1e16, 1.0000000000000002e16]}

    def test_silverman_grid_finer_than_the_float_spacing_omits_the_density(self, recwarn):
        ds = make_dataset(self.NEAR_1E16)
        plot = build_plotdata(ds, bin_width=4)
        assert [g.density for g in plot.components[0].groups] == [None, None]
        assert [str(w) for w in plot.warnings] == [
            f"component 'q' group '{label}': Silverman bandwidth {silverman_bandwidth(g)!r} spaces"
            " the density grid's 256 points closer than the floats near 1e+16, so some coincide,"
            " density omitted" for label, g in ds.components["q"].groups.items()]
        assert len(recwarn) == 0

    @pytest.mark.parametrize("groups, options", [
        (NEAR_1E16, {"bin_width": 4, "bandwidth": 1.0, "grid_points": 256}),
        (NEAR_1E16, {"bin_width": 4, "bandwidth": 1e-300, "grid_points": 1_000_000}),
        # a wider grid would pass the float maximum: fewer points it is
        ({label: [np.nextafter(sys.float_info.max, 0), sys.float_info.max] for label in "AB"},
         {"bin_width": 2.0**971, "bandwidth": 1e280, "grid_points": 256}),
    ], ids=["1e16", "1e16-tiny-bandwidth", "float-maximum"])
    def test_given_grid_finer_than_the_float_spacing_names_one_that_works(self, groups, options):
        ds = make_dataset(groups)
        with pytest.raises(ConfigError, match="group 'A': bandwidth .* so some coincide") as info:
            build_plotdata(ds, **options)
        # "a bandwidth of <h> works" or "a grid of <n> points works"
        _, name, _, value, *_ = str(info.value).rsplit("; ", 1)[1].split()
        named = {"bandwidth": float(value)} if name == "bandwidth" else {"grid_points": int(value)}
        options = {**options, **named}
        x = np.array(build_plotdata(ds, **options).components[0].groups[0].density["x"])
        assert x.size == options["grid_points"] and np.all(x[1:] > x[:-1])

    def test_parameter_validation(self):
        ds = make_dataset({"A": [1.0], "B": [2.0]})
        with pytest.raises(ConfigError):
            build_plotdata(ds, grid_points=1)
        with pytest.raises(ConfigError):
            build_plotdata(ds, bandwidth=-1.0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"bin_width": math.nan}, "bin width must be finite and positive"),
        ({"bin_width": math.inf}, "bin width must be finite and positive"),
        ({"bandwidth": math.nan}, "bandwidth must be finite and positive"),
        ({"bandwidth": math.inf}, "bandwidth must be finite and positive"),
        ({"grid_points": 10_000_001}, "grid_points must be >= 2 and <= 10000000"),
        ({"bandwidth": 1e-320}, "bandwidth must be at least 2.2250738585072014e-308"),
        ({"bin_width": "1"}, "bin width must be finite and positive, got '1'"),
        ({"bin_width": True}, "bin width must be finite and positive, got True"),
        ({"bandwidth": True}, "bandwidth must be finite and positive, got True"),
        ({"grid_points": 2.5}, "grid_points must be an integer, got 2.5"),
        ({"grid_points": True}, "grid_points must be an integer, got True"),
    ])
    def test_non_finite_or_oversized_parameters_rejected(self, kwargs, match):
        ds = make_dataset({"A": [1.0, 2.0], "B": [3.0, 5.0]})
        with pytest.raises(ConfigError, match=match):
            build_plotdata(ds, **kwargs)
        with pytest.raises(ConfigError, match=match):
            build_plotdata(Dataset({}), **kwargs)  # checked before any component


class TestSerialization:
    def test_json_structure(self):
        ds = make_dataset({"A": [1.0, 2.0], "B": [3.0, 3.0]})
        doc = json.loads(to_json(build_plotdata(ds)))
        assert doc["metadata"]["bandwidth"] == "silverman"
        comp = doc["components"][0]
        assert comp["component"] == "q"
        assert {g["label"] for g in comp["groups"]} == {"A", "B"}

    def test_csv_rows_reconstruct_counts(self):
        ds = make_dataset({"A": [1.0, 1.5, 3.0], "B": [2.0, 2.0]})
        plot = build_plotdata(ds)
        rows = list(csv.DictReader(io.StringIO(to_csv(plot))))
        hist_a = [r for r in rows if r["group"] == "A" and r["series"] == "histogram"]
        assert sum(int(r["value"]) for r in hist_a) == 3
        density_rows = [r for r in rows if r["series"] == "density"]
        assert all(r["x0"] == r["x1"] for r in density_rows)
        # group B is single-valued: histogram rows only
        assert not any(r["group"] == "B" for r in density_rows)

    def test_render_dispatch(self):
        ds = make_dataset({"A": [1.0], "B": [2.0]})
        plot = build_plotdata(ds)
        assert render(plot, "json") == to_json(plot)
        with pytest.raises(ConfigError):
            render(plot, "markdown")

    def test_deterministic(self):
        ds = make_dataset({"A": [1.0, 9.0], "B": [4.0, 6.0]})
        assert to_json(build_plotdata(ds)) == to_json(build_plotdata(ds))

    def test_within_group_order_does_not_change_the_bytes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            groups = {"A": rng.uniform(0, 100, 40), "B": rng.uniform(0, 100, 30)}
            shuffled = {label: rng.permutation(g) for label, g in groups.items()}
            ascending = {label: np.sort(g) for label, g in groups.items()}
            assert (to_json(build_plotdata(make_dataset(shuffled)))
                    == to_json(build_plotdata(make_dataset(ascending))))
