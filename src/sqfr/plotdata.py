"""Plot-ready score-distribution data: histograms and smoothed densities.

No rendering happens here; the output feeds whatever plotting tool the
caller prefers. Histogram bins share integer-aligned unit-width edges
across the groups of a component so the groups are directly comparable.
Densities are Gaussian kernel estimates with Silverman's rule-of-thumb
bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5) (the IQR candidate is ignored
when zero). A group whose Silverman bandwidth degenerates to zero, puts its
density grid beyond the float range or spaces the grid's points closer than
the floats there, gets a histogram only, plus a warning; a given bandwidth
that does either of the last two raises ConfigError.
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
from .types import check_finite_positive, is_int

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
    naming a width whose edges strictly increase, and when the last edge
    lies beyond the float range."""
    check_finite_positive("bin width", bin_width, ConfigError)
    width = bin_width
    edges = _edges(lo, hi, width)
    while edges is not None and not _increasing(edges):
        width = max(2 * width, math.ulp(hi))
        edges = _edges(lo, hi, width)
    if edges is None:
        raise ConfigError(
            f"bin width {bin_width:g} puts the last histogram edge beyond the float range"
            f" (scores up to {hi:g})" if width == bin_width else
            f"bin width {bin_width:g} is finer than the float spacing of scores near {hi:g},"
            " and no wider bin width tried keeps the last edge within the float range"
        )
    if width != bin_width:
        raise ConfigError(
            f"bin width {bin_width:g} is finer than the float spacing of scores near {hi:g},"
            f" so some bins would have zero width; a bin width of {width!r} works"
        )
    return edges


def _edges(lo: float, hi: float, bin_width: float) -> np.ndarray | None:
    """The bin edges from ``floor(lo)`` past ``hi``; None when the last lies
    beyond the float range."""
    start = math.floor(lo)
    span = hi - start
    bins = span / bin_width - 1e-9
    if bins > MAX_THRESHOLDS:
        raise ConfigError(
            f"histogram would need more than {MAX_THRESHOLDS} bins (span {span:g},"
            f" bin width {bin_width:g}); raise the bin width above {span / MAX_THRESHOLDS:g}"
        )
    count = max(1, math.ceil(bins))
    # Python floats: a last edge beyond the double range is inf, with no warning
    if not math.isfinite(start + bin_width * count):
        return None
    return start + bin_width * np.arange(count + 1)


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
    check_finite_positive("bin width", bin_width, ConfigError)
    if bandwidth is not None:
        check_finite_positive("bandwidth", bandwidth, ConfigError)
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
            x = _density_grid(values, h, grid_points) if h > 0 else None
            density = None
            if x is not None and _increasing(x):
                y = kernels.kde_gaussian(values, x, h)
                density = {"x": x.tolist(), "y": y.tolist(), "bandwidth": h}
            elif h > 0:
                fault = (
                    "puts the density grid beyond the float range" if x is None
                    else f"spaces the density grid's {grid_points} points closer than the floats"
                    f" near {x[-1]:g}, so some coincide"
                )
                if bandwidth is None:
                    warnings.append(Diagnostic(
                        "warning", f"Silverman bandwidth {h!r} {fault}, density omitted", where))
                else:
                    fix = ("choose a smaller bandwidth" if x is None
                           else f"{_grid_that_works(values, h, grid_points)} works")
                    raise ConfigError(f"{where}: bandwidth {bandwidth!r} {fault}; {fix}")
            else:
                warnings.append(Diagnostic(
                    "warning", "degenerate bandwidth (single-valued or singleton group),"
                    " density omitted", where))
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


def _density_grid(values: np.ndarray, h: float, points: int) -> np.ndarray | None:
    """``points`` evenly spaced x values from _GRID_PAD bandwidths ``h`` below
    the ascending ``values`` to as far above them; None when an end lies
    beyond the float range."""
    # Python floats: a grid end beyond the double range is inf, with no warning
    lo, hi = float(values[0]) - _GRID_PAD * h, float(values[-1]) + _GRID_PAD * h
    return np.linspace(lo, hi, points) if math.isfinite(hi - lo) else None


def _increasing(x: np.ndarray) -> bool:
    return bool(np.all(x[1:] > x[:-1]))


def _grid_that_works(values: np.ndarray, h: float, points: int) -> str:
    """A bandwidth above ``h``, or failing that fewer grid points than
    ``points``, whose density grid for ``values`` strictly increases."""
    # from about the least bandwidth that spreads the points a float apart
    wider = max(2 * h, (points - 1) * math.ulp(values[-1]) / (2 * _GRID_PAD))
    x = _density_grid(values, wider, points)
    while x is not None:
        if _increasing(x):
            return f"a bandwidth of {wider!r}"
        wider *= 2
        x = _density_grid(values, wider, points)
    # any wider grid passes the float maximum: keep h, and take fewer points
    while points > 2:
        points = max(2, points // 2)
        if _increasing(_density_grid(values, h, points)):
            return f"a grid of {points} points"
    return "no grid near the float maximum"


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
