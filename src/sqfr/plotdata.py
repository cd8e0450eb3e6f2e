"""Plot-ready score-distribution data: histograms and smoothed densities.

No rendering happens here; the output feeds whatever plotting tool the
caller prefers. Histogram bins share integer-aligned unit-width edges
across the groups of a component so the groups are directly comparable.
Densities are Gaussian kernel estimates with Silverman's rule-of-thumb
bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5) (the IQR candidate is ignored
when zero). A group whose Silverman bandwidth degenerates to zero, or puts
its density grid beyond the float range, gets a histogram only, plus a
warning; a given bandwidth that puts a grid beyond that range raises
ConfigError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, kernels
from .dataset import Dataset, Diagnostic
from .errors import ConfigError
from .measures import MAX_THRESHOLDS, _scale_free
from .types import is_finite_number, is_int

FORMATS = ("json", "csv")

#: Density grids extend this many bandwidths past the sample extremes,
#: keeping the trapezoidal integral within ~0.3% of one.
_GRID_PAD = 3.0


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb KDE bandwidth; 0.0 when the sample is degenerate, or
    when the bandwidth would be a subnormal double.

    The bandwidth scales with the scores, so it takes the overflow rule of
    the mean: computed directly, and in units of the largest score only
    when that is not finite.
    """
    h = _scale_free(_silverman, values)
    # below the smallest normal double the kernel's normalization overflows
    return h if h >= sys.float_info.min else 0.0


def _silverman(values: np.ndarray) -> float:
    """Silverman's bandwidth of one group, its standard deviation taken in
    the caller's order and its quartiles from ``_quartiles``."""
    n = values.size
    if n < 2:
        return 0.0
    sd = float(np.std(values, ddof=1))
    q1, q3 = _quartiles(values)
    iqr = q3 - q1
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def _quartiles(values: np.ndarray) -> list[float]:
    """[Q1, Q3] of at least two values, the bits of
    ``np.quantile(values, [0.25, 0.75])``, whose first call imports
    ``numpy.ma``.

    numpy's default ``linear`` rule, read off the values ascending: a
    loaded group already is, and any other is sorted into a copy. The
    quartile q sits at index ``(n - 1) * q``, between the values a and b
    either side of it, at fraction t; it is ``a + (b - a) * t``, or
    ``b - (b - a) * (1 - t)`` when t >= 0.5, as numpy's ``_lerp`` rounds.
    """
    ascending = np.sort(values) if np.any(values[1:] < values[:-1]) else values
    out = []
    for q in (0.25, 0.75):
        at = (values.size - 1) * q
        i = math.floor(at)
        t = at - i
        a, b = float(ascending[i]), float(ascending[i + 1])
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def histogram_edges(lo: float, hi: float, bin_width: float = 1.0) -> np.ndarray:
    """Integer-aligned bin edges of the given width covering [lo, hi], in at
    most ``MAX_THRESHOLDS`` bins. ConfigError when two edges round to one
    float, as a width below the float spacing of the scores makes them,
    naming a width whose edges strictly increase."""
    _check_finite_positive("bin width", bin_width)
    width = bin_width
    edges = _edges(lo, hi, width)
    while not np.all(edges[1:] > edges[:-1]):
        width = max(2 * width, math.ulp(hi))
        edges = _edges(lo, hi, width)
    if width != bin_width:
        raise ConfigError(
            f"bin width {bin_width:g} is finer than the float spacing of scores near {hi:g},"
            f" so some bins would have zero width; a bin width of {width!r} works"
        )
    return edges


def _edges(lo: float, hi: float, bin_width: float) -> np.ndarray:
    start = math.floor(lo)
    span = hi - start
    bins = span / bin_width - 1e-9
    if bins > MAX_THRESHOLDS:
        raise ConfigError(
            f"histogram would need more than {MAX_THRESHOLDS} bins (span {span:g},"
            f" bin width {bin_width:g}); raise the bin width above {span / MAX_THRESHOLDS:g}"
        )
    return start + bin_width * np.arange(max(1, math.ceil(bins)) + 1)


def _check_finite_positive(name: str, value: float) -> None:
    if not (is_finite_number(value) and value > 0):  # a bool is not a number here
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class GroupPlot:
    label: str
    count: int
    counts: list[int]
    density: dict | None  # {"x": [...], "y": [...], "bandwidth": h}


@dataclass
class ComponentPlot:
    component: str
    bin_edges: list[float]
    groups: list[GroupPlot]


@dataclass
class PlotData:
    metadata: dict
    components: list[ComponentPlot]
    warnings: list[Diagnostic]


def check_options(bin_width: float, grid_points: int, bandwidth: float | None) -> None:
    """Raise ConfigError for a bin width, grid size or given bandwidth that
    no dataset could make valid. Whether a bandwidth's grid fits the float
    range depends on the scores, so :func:`build_plotdata` checks that."""
    if not is_int(grid_points):
        raise ConfigError(f"grid_points must be an integer, got {grid_points!r}")
    if not 2 <= grid_points <= MAX_THRESHOLDS:
        raise ConfigError(f"grid_points must be >= 2 and <= {MAX_THRESHOLDS}, got {grid_points}")
    _check_finite_positive("bin width", bin_width)
    if bandwidth is not None:
        _check_finite_positive("bandwidth", bandwidth)
        if bandwidth < sys.float_info.min:
            raise ConfigError(
                f"bandwidth must be at least {sys.float_info.min!r}"
                f" (the smallest normal double), got {bandwidth!r}"
            )


def build_plotdata(
    dataset: Dataset,
    bin_width: float = 1.0,
    grid_points: int = 256,
    bandwidth: float | None = None,
) -> PlotData:
    """Histogram and density series for every (component, group).

    Each component is read in the canonical form of
    ``GroupedScores.validated``, so a component that fails its check raises
    ValidationError and no series depends on the order of a group's scores.
    """
    check_options(bin_width, grid_points, bandwidth)
    components = []
    warnings: list[Diagnostic] = []
    for cid, grouped in dataset.components.items():
        grouped = grouped.validated()
        edges = histogram_edges(*grouped.pooled_range(), bin_width)
        groups = []
        for label, values in grouped.groups.items():
            counts, _ = np.histogram(values, bins=edges)
            where = f"component '{cid}' group '{label}'"
            h = bandwidth if bandwidth is not None else silverman_bandwidth(values)
            # Python floats: a grid end beyond the double range is inf, with no warning
            lo, hi = float(values[0]) - _GRID_PAD * h, float(values[-1]) + _GRID_PAD * h
            density = None
            if h > 0 and math.isfinite(hi - lo):
                x = np.linspace(lo, hi, grid_points)
                y = kernels.kde_gaussian(values, x, h)
                density = {"x": x.tolist(), "y": y.tolist(), "bandwidth": h}
            elif h > 0 and bandwidth is not None:
                raise ConfigError(
                    f"{where}: bandwidth {bandwidth!r} puts the density grid beyond the"
                    " float range; choose a smaller bandwidth"
                )
            else:
                reason = (
                    "degenerate bandwidth (single-valued or singleton group)" if h == 0
                    else f"Silverman bandwidth {h!r} puts the density grid beyond the float range"
                )
                warnings.append(Diagnostic("warning", f"{reason}, density omitted", where))
            groups.append(GroupPlot(label, int(values.size), counts.tolist(), density))
        components.append(ComponentPlot(cid, edges.tolist(), groups))
    metadata = {
        "tool": f"sqfr {__version__}",
        "input": dataset.provenance.source,
        "bin_width": bin_width,
        "grid_points": grid_points,
        "bandwidth": bandwidth if bandwidth is not None else "silverman",
    }
    return PlotData(metadata, components, warnings)


def to_json(plot: PlotData) -> str:
    # the dataclass fields, read shallowly: asdict would deep-copy every float
    components = [{**vars(c), "groups": [vars(g) for g in c.groups]} for c in plot.components]
    return _indented({"metadata": plot.metadata, "components": components}, "\n") + "\n"


_SCALARS = {int, float, str, bool, type(None)}


def _indented(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` for a document of str-keyed dicts,
    lists and scalars, ``pad`` being the newline and indent of its level.

    Any ``indent`` sends ``json.dumps`` to the pure-Python encoder, so a
    list of scalars, such as a density series, is spelled by the C encoder
    with its newline and indent as the item separator.
    """
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if set(map(type, value)) <= _SCALARS:
        body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
    else:
        body = ("," + inner).join(_indented(v, inner) for v in value)
    return "[" + inner + body + pad + "]"


def to_csv(plot: PlotData) -> str:
    """Long-format rows: histogram bins (x0, x1) and density points (x0 == x1)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["component", "group", "series", "x0", "x1", "value"])
    for c in plot.components:
        for g in c.groups:
            for k, count in enumerate(g.counts):
                writer.writerow(
                    [c.component, g.label, "histogram",
                     repr(c.bin_edges[k]), repr(c.bin_edges[k + 1]), count]
                )
            if g.density is not None:
                for x, y in zip(g.density["x"], g.density["y"]):
                    writer.writerow([c.component, g.label, "density", repr(x), repr(x), repr(y)])
    return buf.getvalue()


def render(plot: PlotData, fmt: str) -> str:
    if fmt == "json":
        return to_json(plot)
    if fmt == "csv":
        return to_csv(plot)
    raise ConfigError(f"unknown plot-data format {fmt!r}; expected one of {FORMATS}")
