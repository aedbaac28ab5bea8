"""Minimal static SVG plots (scatter plus optional lines, linear or log-log
axes).  Plots are batch artifacts, so no plotting dependency is pulled in.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55  # margins


def _transform(values, log):
    """log10 of each value on log axes, where a nonpositive value maps to
    nan; the values themselves otherwise, as Python floats, which overflow
    to inf without a numpy warning."""
    return [math.log10(v) if v > 0 else math.nan for v in values] if log else list(map(float, values))


def _padded_range(axis, values, log):
    """(lo, hi) of the transformed values, each end moved out by 5% of the
    span, or by 5% of max(1, |value|) when the span is 0.  Raises
    InvalidInputError naming the axis when a value or the padded span is
    not finite, or when a log axis ends past 1e308, where its tick labels
    overflow."""
    lo, hi = min(values), max(values)
    pad = 0.05 * (hi - lo or max(1.0, abs(lo)))
    lo, hi = lo - pad, hi + pad
    if not (all(map(math.isfinite, values)) and math.isfinite(hi - lo)) or log and hi > 308.0:
        raise InvalidInputError(f"cannot draw the {axis} values: they and their padded range "
                                "must be finite, and on log axes positive and below 1e308")
    return lo, hi


def _ticks(lo, hi):
    """Five evenly spaced ticks from lo to hi; write_plot pads every range,
    so hi > lo."""
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _fmt(value, log):
    v = 10.0 ** value if log else value
    return f"{v:.3g}"


def write_plot(path, dot_series, line_series=(), *, title="", xlabel="",
               ylabel="", loglog=False):
    """Write an SVG scatter plot.

    dot_series and line_series are sequences of (label, xs, ys).  With
    loglog=True all coordinates must be positive.  A range write_plot
    cannot draw raises InvalidInputError before the file is opened.
    """
    # lines first, so they take the first colours and legend rows
    series = [(s, True) for s in line_series] + [(s, False) for s in dot_series]
    xs_all = [x for (_, xs, _), _ in series for x in _transform(xs, loglog)]
    ys_all = [y for (_, _, ys), _ in series for y in _transform(ys, loglog)]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = _padded_range("x", xs_all, loglog)
    y_lo, y_hi = _padded_range("y", ys_all, loglog)

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(t, loglog)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t, loglog)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>'
    )

    legend_y = _MT + 4
    for i, ((label, xs, ys), is_line) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(px(x), py(y)) for x, y in zip(_transform(xs, loglog), _transform(ys, loglog))]
        if is_line:
            points = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            glyph = (f'<line x1="{_W - 170}" y1="{legend_y}" x2="{_W - 150}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        else:
            parts.extend(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>' for x, y in pts)
            glyph = f'<circle cx="{_W - 160}" cy="{legend_y}" r="3" fill="{color}"/>'
        if label:
            parts += [glyph, f'<text x="{_W - 144}" y="{legend_y + 4}">{label}</text>']
            legend_y += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
