"""Minimal self-contained SVG line charts.

No plotting dependency: the experiment figures are simple enough (one line
per regime, error bars, legend) that emitting the SVG text directly keeps
output deterministic and diffable.  A chart takes each series as its label
and its ``(x, y, err)`` points.
"""

from __future__ import annotations

import math

WIDTH = 880
HEIGHT = 560
MARGIN_LEFT = 88
MARGIN_RIGHT = 190
MARGIN_TOP = 48
MARGIN_BOTTOM = 72

PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9")


def _nice_step(span: float) -> float:
    raw = span / 5
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _axis_range(lo: float, hi: float, pad: float, label: str) -> tuple[float, float]:
    """[lo, hi] widened by ``pad`` of its width on each side.

    A width within 1e-12 of the values' magnitude (or of 1e-290, so that a
    tick step stays a normal float) is too narrow to tick, so it is drawn as
    one value, widened by 5% of it or at least 0.5.  A range whose width
    overflows a float cannot be drawn.
    """
    width = hi - lo
    if width <= 1e-12 * max(abs(lo), abs(hi), 1e-290):
        axis = lo - max(0.5, abs(lo) * 0.05), hi + max(0.5, abs(hi) * 0.05)
    else:
        axis = lo - pad * width, hi + pad * width
    if not math.isfinite(axis[1] - axis[0]):
        raise ValueError(
            f"cannot plot {label} from {lo:g} to {hi:g}: the range overflows a float"
        )
    return axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-9 * step else t)
        t += step
    return ticks


def _coord(v) -> str:
    """A layout int or an already formatted str as is; a computed coordinate to 2 places."""
    return str(v) if isinstance(v, (int, str)) else f"{v:.2f}"


def _line(x1, y1, x2, y2, color: str, width) -> str:
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" '
            f'y2="{_coord(y2)}" stroke="{color}" stroke-width="{width}"/>')


def _circle(cx, cy, color: str) -> str:
    return f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="3" fill="{color}"/>'


def _text(x, y, attrs: str, text: str) -> str:
    return f'<text x="{_coord(x)}" y="{_coord(y)}" {attrs}>{_escape(text)}</text>'


def render_line_chart(
    series: dict[str, list[tuple[float, float, float]]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render a titled line chart with error bars; returns SVG text.

    ``series`` maps each label, in drawing and legend order, to its finite
    ``(x, y, err)`` points in line order; ``err`` is the half-height of the
    point's error bar, and 0 draws none.
    """
    if not series:
        raise ValueError("nothing to plot: no series")
    # Python floats throughout: a numpy float32 point would keep px() in
    # float32, which overflows on a range that a float holds.
    series = {label: [(float(x), float(y), float(e)) for x, y, e in points]
              for label, points in series.items()}
    for label, points in series.items():
        if not points:
            raise ValueError(f"series {label!r} is empty")
        if not all(math.isfinite(v) for point in points for v in point):
            raise ValueError(f"series {label!r} has a non-finite value")

    all_points = [point for points in series.values() for point in points]
    xs = [x for x, _, _ in all_points]
    x_lo, x_hi = _axis_range(min(xs), max(xs), 0.04, x_label)
    y_lo, y_hi = _axis_range(min(y - e for _, y, e in all_points),
                             max(y + e for _, y, e in all_points), 0.06, y_label)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    mid_y = f"{MARGIN_TOP + plot_h / 2:.1f}"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.1f}", 28, 'text-anchor="middle" font-size="17"', title),
    ]
    for t in _ticks(x_lo, x_hi):
        out += [_line(px(t), MARGIN_TOP, px(t), MARGIN_TOP + plot_h, "#dddddd", 1),
                _text(px(t), MARGIN_TOP + plot_h + 22,
                      'text-anchor="middle" font-size="13"', f"{t:.6g}")]
    for t in _ticks(y_lo, y_hi):
        out += [_line(MARGIN_LEFT, py(t), MARGIN_LEFT + plot_w, py(t), "#dddddd", 1),
                _text(MARGIN_LEFT - 8, py(t) + 4,
                      'text-anchor="end" font-size="13"', f"{t:.6g}")]
    out += [
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
        _text(f"{MARGIN_LEFT + plot_w / 2:.1f}", HEIGHT - 18,
              'text-anchor="middle" font-size="15"', x_label),
        _text(24, mid_y, 'text-anchor="middle" font-size="15" '
              f'transform="rotate(-90 24 {mid_y})"', y_label),
    ]

    colors = {label: PALETTE[i % len(PALETTE)] for i, label in enumerate(series)}
    for label, points in series.items():
        color = colors[label]
        for x, y, e in points:
            if e > 0:
                cx, y1, y2 = px(x), py(y - e), py(y + e)
                out.append(_line(cx, y1, cx, y2, color, 1.2))
                out += [_line(cx - 4, yy, cx + 4, yy, color, 1.2) for yy in (y1, y2)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y, _ in points)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        out += [_circle(px(x), py(y), color) for x, y, _ in points]

    # the legend comes after every series, so it is drawn over them
    lx = MARGIN_LEFT + plot_w + 16
    for i, (label, color) in enumerate(colors.items()):
        ly = MARGIN_TOP + 12 + i * 22
        out += [_line(lx, ly, lx + 24, ly, color, 2), _circle(lx + 12, ly, color),
                _text(lx + 30, ly + 4, 'font-size="13"', label)]

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
