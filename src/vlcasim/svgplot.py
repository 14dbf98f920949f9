"""Minimal deterministic SVG line charts for scenario outputs.

No plotting dependency: the renderer lays out axes, 1-2-5 tick grids
(decade ticks on log axes), polylines, and a legend, and returns the SVG
document as a string. Output is byte-stable for identical inputs.

A series longer than four points per pixel column whose pixel x never
decreases is drawn by M4 (Jugel et al., "M4: A Visualization-Oriented
Time Series Data Aggregation", VLDB 2014): each column keeps its first,
last, lowest and highest point, so each column's drawn span and its
joins to its neighbours stay. Limits, ticks and the legend come from
the whole series.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46


def _nice_ticks(lo: float, hi: float, n: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo, hi]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # an axis a few ulps wide: rounding loses the step
            return [lo, hi]
        v += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float):
    d0 = math.ceil(math.log10(lo) - 1e-9)
    d1 = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0 ** d for d in range(d0, d1 + 1)]
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e5:
        s = f"{v:.6g}"
    else:
        s = f"{v:.2e}"
    return s


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _limits(series, logy: bool):
    """Axis limits (x_lo, x_hi, y_lo, y_hi) that hold every cleaned (x, y)
    series: a flat range is widened, and a linear y axis gets 5% headroom."""
    pts = [(x, y) for x, y in series if len(x)]
    if not pts:
        raise ValueError("no finite data points to plot")
    x_lo = min(float(x.min()) for x, _ in pts)
    x_hi = max(float(x.max()) for x, _ in pts)
    y_lo = min(float(y.min()) for _, y in pts)
    y_hi = max(float(y.max()) for _, y in pts)
    if x_hi <= x_lo:
        x_hi = x_lo + (abs(x_lo) or 1.0) * 1e-3
    if y_hi <= y_lo:
        pad = (abs(y_lo) or 1.0) * 1e-3
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if not logy:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    return x_lo, x_hi, y_lo, y_hi


def _to_px(v, lo: float, hi: float, p_lo: float, p_hi: float, log: bool):
    """Pixel position of a value, or of each value of a 1-d array, on an
    axis from lo to hi drawn from p_lo to p_hi. A log axis takes
    math.log10 of each sample: np.log10 differs from it by 1 ulp on a few
    percent of samples, which can move a written digit."""
    if log:
        v = (math.log10(v) if np.ndim(v) == 0
             else np.array([math.log10(s) for s in v.tolist()]))
        lo, hi = math.log10(lo), math.log10(hi)
    return p_lo + (v - lo) / (hi - lo) * (p_hi - p_lo)


def _m4(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices, in order, of the points M4 keeps from pixel coordinates
    whose x never decreases: in each column floor(xs), the first and last
    point and the first point of least and of greatest y."""
    col = np.floor(xs)
    new = np.r_[True, col[1:] != col[:-1]]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:] - 1, len(xs) - 1]
    group = np.cumsum(new) - 1  # the k-th column that holds points is k
    keep = np.zeros(len(xs), bool)
    keep[starts] = keep[ends] = True
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(ys == extreme.reduceat(ys, starts)[group])
        keep[hits[np.r_[True, group[hits[1:]] != group[hits[:-1]]]]] = True
    return np.flatnonzero(keep)


def line_chart(series: Sequence[tuple], title: str = "", xlabel: str = "",
               ylabel: str = "", logx: bool = False,
               logy: bool = False) -> str:
    """Render (label, x, y) series to a 720x440 SVG document string."""
    if not series:
        raise ValueError("need at least one series")
    cleaned = []
    for label, xs, ys in series:
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("series x and y must be 1-d and equal length")
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0.0
        if logy:
            keep &= y > 0.0
        cleaned.append((str(label), x[keep], y[keep]))
    x_lo, x_hi, y_lo, y_hi = _limits([(x, y) for _, x, y in cleaned], logy)
    px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    py0, py1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
           '<g font-family="sans-serif" font-size="12" fill="#222">']
    if title:
        out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="20" '
                   f'text-anchor="middle" font-size="14">{_esc(title)}</text>')

    xticks = _log_ticks(x_lo, x_hi) if logx else _nice_ticks(x_lo, x_hi)
    yticks = _log_ticks(y_lo, y_hi) if logy else _nice_ticks(y_lo, y_hi)
    for tv in xticks:
        if not x_lo <= tv <= x_hi:
            continue
        xp = _to_px(tv, x_lo, x_hi, px0, px1, logx)
        out.append(f'<line x1="{xp:.1f}" y1="{py0}" x2="{xp:.1f}" '
                   f'y2="{py1}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{xp:.1f}" y="{py0 + 16}" '
                   f'text-anchor="middle">{_fmt(tv)}</text>')
    for tv in yticks:
        if not y_lo <= tv <= y_hi:
            continue
        yp = _to_px(tv, y_lo, y_hi, py0, py1, logy)
        out.append(f'<line x1="{px0}" y1="{yp:.1f}" x2="{px1}" '
                   f'y2="{yp:.1f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{px0 - 6}" y="{yp + 4:.1f}" '
                   f'text-anchor="end">{_fmt(tv)}</text>')
    out.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" '
               f'height="{py0 - py1}" fill="none" stroke="#444"/>')
    if xlabel:
        out.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{_HEIGHT - 10}" '
                   f'text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {(py0 + py1) / 2:.1f})">'
                   f'{_esc(ylabel)}</text>')

    for idx, (label, x, y) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        if len(x) == 0:
            continue
        xs = _to_px(x, x_lo, x_hi, px0, px1, logx)
        ys = _to_px(y, y_lo, y_hi, py0, py1, logy)
        if len(xs) > 4 * (px1 - px0 + 1) and (xs[1:] >= xs[:-1]).all():
            kept = _m4(xs - px0, ys)
            xs, ys = xs[kept], ys[kept]
        coords = " ".join(map("%.2f,%.2f".__mod__,
                              zip(xs.tolist(), ys.tolist())))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
    ly = py1 + 14
    for idx, (label, _, _) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        out.append(f'<line x1="{px1 - 150}" y1="{ly - 4}" x2="{px1 - 126}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{px1 - 120}" y="{ly}">{_esc(label)}</text>')
        ly += 16
    out.append("</g></svg>")
    return "\n".join(out) + "\n"
