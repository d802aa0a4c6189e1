"""Dependency-free static SVG line plots.

Polyline-based rendering into a fixed 800x600 view box; linear or log axes
with the scaling done in code.  Each series is filtered and mapped to
pixels as whole numpy arrays, and its polyline is formatted in one
``%``-formatting pass.  Log axes take ``math.log10`` value by value, since
``np.log10`` may differ from it in the last bit.  Output is deterministic:
coordinates are formatted with fixed precision (``%.2f``) and series are
drawn in the given order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Axis:
    def __init__(self, values: np.ndarray, scale: str, lo_px: float, hi_px: float):
        self.scale = scale
        finite = values[self.usable(values)]
        lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.1, 1.0)
        if scale == "log":
            lo, hi = math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        self.lo = lo - pad
        self.hi = hi + pad
        self.lo_px = lo_px
        self.hi_px = hi_px

    def usable(self, values: np.ndarray) -> np.ndarray:
        ok = np.isfinite(values)
        return ok & (values > 0.0) if self.scale == "log" else ok

    def to_px(self, values: np.ndarray) -> np.ndarray:
        if self.scale == "log":
            values = np.array([math.log10(v) for v in values.tolist()])
        return self.lo_px + (values - self.lo) / (self.hi - self.lo) * (self.hi_px - self.lo_px)

    def ticks(self, count: int = 5) -> list[tuple[float, str]]:
        """(pixel, label) of ``count`` evenly spaced ticks."""
        steps = [self.lo + (self.hi - self.lo) * k / (count - 1) for k in range(count)]
        values = [10.0**v for v in steps] if self.scale == "log" else steps
        return list(zip(self.to_px(np.array(values)).tolist(), (f"{v:.3g}" for v in values)))


def line_plot(
    path: str | Path,
    series: Sequence[Series],
    *,
    x_label: str,
    y_label: str,
    title: str = "",
    x_scale: str = "linear",
    y_scale: str = "linear",
) -> None:
    """Write an SVG line plot; points unusable on a log axis are skipped."""
    xs = [np.asarray(s.x, dtype=float) for s in series]
    ys = [np.asarray(s.y, dtype=float) for s in series]
    x_axis = _Axis(np.concatenate([np.empty(0), *xs]), x_scale, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    y_axis = _Axis(np.concatenate([np.empty(0), *ys]), y_scale, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )

    # axes
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )
    for px, label in x_axis.ticks():
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for py, label in y_axis.ticks():
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {(y0 + y1) // 2})">{y_label}</text>'
    )

    for idx, (s, x, y) in enumerate(zip(series, xs, ys)):
        color = PALETTE[idx % len(PALETTE)]
        keep = x_axis.usable(x) & y_axis.usable(y)
        if keep.any():
            xy = np.column_stack((x_axis.to_px(x[keep]), y_axis.to_px(y[keep])))
            points = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
            parts.append(
                f'<polyline points="{points}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_TOP + 16 * idx + 12
        parts.append(
            f'<line x1="{x1 - 150}" y1="{ly - 4}" x2="{x1 - 125}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x1 - 120}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{s.label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
