"""Minimal deterministic SVG line charts.

No external plotting dependency: the benchmark outputs must be
byte-identical across repeated runs, so this writer avoids timestamps,
random ids and dictionary-order surprises.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH = 840
_HEIGHT = 480
_TICKS = 6  # the number of axis ticks aimed at
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 48.0


def _nice_step(span: float) -> float:
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    """Tick values on ``lo .. hi``, an axis :func:`_widen_flat` has already widened."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        nxt = v + step
        if nxt == v:  # step is below half the float spacing at v
            return [lo, hi]
        v = nxt
    return ticks or [lo, hi]


def _widen_flat(lo: float, hi: float) -> tuple[float, float]:
    """Widen an axis whose ends are one value ``v`` to ``v - 1 .. v + 1``.

    An end that 1 does not move (beyond about 2**53) moves to the
    neighbouring float instead, so the chart never divides by a zero span."""
    if lo != hi:
        return lo, hi
    lo_w, hi_w = lo - 1.0, hi + 1.0
    return (
        lo_w if lo_w != lo else math.nextafter(lo, -math.inf),
        hi_w if hi_w != hi else math.nextafter(hi, math.inf),
    )


def _axis(values: np.ndarray, pad: float) -> tuple[float, float]:
    """Ends ``lo, hi`` of an axis over the finite ``values`` ([0, 1] when
    there are none), flat ones widened by :func:`_widen_flat` and both
    moved out by ``pad`` times the span."""
    finite = values[np.isfinite(values)]
    lo, hi = _widen_flat(*((float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)))
    if pad:
        pad *= hi - lo
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape does the same, but importing it loads
    # urllib.request, which adds ~20 ms and several MB to CLI start-up.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render labeled (x, y) series, each ``xs`` and ``ys`` of one length,
    as a standalone SVG document string.  A point whose x or y is not
    finite is left out.  Series that pass one ``xs`` object share its
    formatted x coordinates."""
    if not series:
        raise ValueError("series must not be empty")
    x_lo, x_hi = _axis(np.concatenate([np.asarray(s[1], dtype=float) for s in series]), 0.0)
    y_lo, y_hi = _axis(np.concatenate([np.asarray(s[2], dtype=float) for s in series]), 0.04)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # Each maps a float, or elementwise an array, to its pixel coordinate.
    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#111111">{_escape(title)}</text>'
        )

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}" x2="{_MARGIN_LEFT + plot_w:.2f}" '
            f'y2="{y:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{_fmt(t)}</text>'
        )
    out.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#111111">{_escape(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{cx:.1f}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#111111" '
            f'transform="rotate(-90 {cx:.1f} {cy:.1f})">{_escape(ylabel)}</text>'
        )

    # Each distinct x array's finite mask and polyline template, by id, so
    # that series sharing one x array, as an iteration axis, format it once:
    # its pixel x coordinates, each followed by a %.2f for a pixel y coordinate.
    x_templates = {}
    for i, (label, xs, ys) in enumerate(series):
        if id(xs) not in x_templates:
            xf = np.asarray(xs, dtype=float)
            x_templates[id(xs)] = np.isfinite(xf), " ".join(["%.2f,%%.2f"] * xf.size) % tuple(px(xf).tolist())
        x_finite, template = x_templates[id(xs)]
        ys = np.asarray(ys, dtype=float)
        color = PALETTE[i % len(PALETTE)]
        keep = x_finite & np.isfinite(ys)
        if not keep.all():
            pieces = template.split(" ")
            template = " ".join([pieces[j] for j in np.flatnonzero(keep).tolist()])
        # One % operation formats every point.
        points = template % tuple(py(ys[keep]).tolist())
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * i
        lx = _MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="12" fill="#111111">{_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
