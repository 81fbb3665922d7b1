"""Minimal self-contained SVG line charts for the plot-data emitter.

Deliberately tiny: fixed canvas, automatic bounds with a small margin,
about five ticks per axis, one polyline per series plus a legend. The
output is plain SVG 1.1 with no external references, so the files render
anywhere and diff cleanly between runs.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 52  # margins: left/right/top/bottom
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_BIG = sys.float_info.max  # axis ranges are held to [-_BIG, _BIG]


def _half_span(lo: float, hi: float) -> float:
    """(hi - lo) / 2, finite for any finite lo and hi, where hi - lo itself can overflow."""
    return hi / 2.0 - lo / 2.0


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi], lo < hi, at a 1/2/5 decade step."""
    raw = _half_span(lo, hi) / target * 2.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    # Tick k is first + k * step: a running sum stalls where step is below the spacing of floats near lo.
    ticks = (first + k * step for k in range(target + 2))
    return [0.0 if abs(t) < 1e-12 * step else t for t in ticks if t <= min(hi + 1e-12 * step, _BIG)]


def _padded(lo: float, hi: float, margin: float = 0.0) -> tuple[float, float]:
    """An axis range held to the float range: a span of zero, or below the least normal float, is widened by 0.5
    or a tenth of its magnitude on each side, whichever is more, then `margin` of the span is added on each side."""
    half = max(0.5, 0.1 * abs(lo)) if hi - lo < sys.float_info.min else 0.0
    lo, hi = max(lo - half, -_BIG), min(hi + half, _BIG)
    pad = margin * _half_span(lo, hi) * 2.0
    return max(lo - pad, -_BIG), min(hi + pad, _BIG)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_line_chart(
    path: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write one SVG line chart; `series` is a list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("cannot chart empty series")
    if not all(map(math.isfinite, xs_all + ys_all)):
        raise ValueError("cannot chart a value that is not finite")
    x_lo, x_hi = _padded(min(xs_all), max(xs_all))
    y_lo, y_hi = _padded(min(ys_all), max(ys_all), margin=0.04)

    px = _WIDTH - _ML - _MR
    py = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + _half_span(x_lo, x) / _half_span(x_lo, x_hi) * px

    def sy(y: float) -> float:
        return _MT + py - _half_span(y_lo, y) / _half_span(y_lo, y_hi) * py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{px}" height="{py}" fill="none" stroke="#333"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_MT + py}" x2="{x:.1f}" y2="{_MT + py + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MT + py + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_ML + px}" y2="{y:.1f}" stroke="#ddd" stroke-width="0.5"/>')
    parts.append(f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    parts.append(f'<text x="{_ML + px / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{_MT + py / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + py / 2:.0f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * i
        parts.append(f'<line x1="{_ML + px - 110}" y1="{ly - 4}" x2="{_ML + px - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + px - 84}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
