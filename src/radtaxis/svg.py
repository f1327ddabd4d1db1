"""Self-contained SVG line charts for recorded time series.

No plotting dependency: charts are assembled as text so identical inputs
produce identical files. The x axis is the first column of the table; the
y axis switches to log scale automatically when the plotted values span more
than three decades (and are all positive).
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConfigError, read_utf8

WIDTH = 760
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 24
MARGIN_BOTTOM = 48

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

LOG_SPAN_DECADES = 3.0


def read_table(path: str | Path) -> dict[str, list[float]]:
    """Read a CSV with a header row into ordered float columns.

    A repeated column name, or a row whose length differs from the
    header's, is a ConfigError: either would pair values with the wrong x.
    Empty lines are skipped; an unparseable cell reads as NaN.
    """
    path = Path(path)
    with io.StringIO(read_utf8(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV, no header row") from None
        columns: dict[str, list[float]] = {name: [] for name in header}
        if len(columns) < len(header):
            repeated = next(name for i, name in enumerate(header) if name in header[:i])
            raise ConfigError(f"{path}: column {repeated!r} appears more than once in the header")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"{path}:{reader.line_num}: row has {len(row)} fields, "
                                  f"the header has {len(header)}")
            for name, cell in zip(header, row):
                try:
                    columns[name].append(float(cell))
                except ValueError:
                    columns[name].append(math.nan)
    return columns


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _span(values: Sequence[float]) -> tuple[float, float]:
    """Axis range of `values`: (0, 1) when empty, widened when flat."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if lo == hi:
        pad = abs(lo) * 0.05 or 1.0
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _fmt(value: float) -> str:
    return format(value, ".4g")


def _escape(text: str) -> str:
    """`text` as XML character data. xml.sax.saxutils.escape does the same,
    but importing it loads urllib.request, ssl, email and locale."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(table: Mapping[str, Sequence[float]], columns: Sequence[str],
               path: str | Path) -> None:
    """Write a line chart of the named columns against the table's first column."""
    names = list(table.keys())
    if not names:
        raise ConfigError("cannot plot an empty table")
    missing = [c for c in columns if c not in table]
    if missing:
        raise ConfigError(f"column {missing[0]!r} not present in the table")
    x_name = names[0]
    x_all = list(table[x_name])

    series: list[tuple[str, list[tuple[float, float]]]] = []
    y_values: list[float] = []
    for name in columns:
        points = [
            (x, y)
            for x, y in zip(x_all, table[name])
            if math.isfinite(x) and math.isfinite(y)
        ]
        series.append((name, points))
        y_values.extend(y for _, y in points)
    x_values = [x for _, pts in series for x, _ in pts]

    log_y = bool(y_values) and min(y_values) > 0.0 and (
        max(y_values) / min(y_values) > 10.0 ** LOG_SPAN_DECADES
    )

    x_lo, x_hi = _span(x_values)
    y_lo, y_hi = _span(y_values)
    if log_y:  # values span over three decades, so _span added no padding
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        value = math.log10(y) if log_y else y
        return MARGIN_TOP + (1.0 - (value - y_lo) / (y_hi - y_lo)) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    axis_bottom = HEIGHT - MARGIN_BOTTOM
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_bottom}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{axis_bottom}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{axis_bottom}" stroke="black"/>'
    )

    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{axis_bottom}" x2="{px:.2f}" y2="{axis_bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{axis_bottom + 20}" font-size="12" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = MARGIN_TOP + (1.0 - (tick - y_lo) / (y_hi - y_lo)) * plot_h
        label = 10.0 ** tick if log_y else tick
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" font-size="12" text-anchor="end">{_fmt(label)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.2f}" y="{HEIGHT - 8}" '
        f'font-size="13" text-anchor="middle">{_escape(x_name)}</text>'
    )
    if log_y:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="{MARGIN_TOP - 8}" font-size="11">log scale</text>'
        )

    for index, (name, points) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        if points:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
            )
        legend_y = MARGIN_TOP + 16 + 16 * index
        legend_x = WIDTH - MARGIN_RIGHT - 140
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 24}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{legend_y}" font-size="12">{_escape(name)}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
