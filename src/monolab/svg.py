"""Minimal self-contained SVG line charts.

No plotting dependency: the experiment figures are simple enough (one line
per regime, error bars, legend) that emitting the SVG text directly keeps
output deterministic and diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH = 880
HEIGHT = 560
MARGIN_LEFT = 88
MARGIN_RIGHT = 190
MARGIN_TOP = 48
MARGIN_BOTTOM = 72

PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple
    ys: tuple
    errs: tuple  # half-height of each error bar; 0 draws none


def _nice_step(span: float, target_ticks: int = 5) -> float:
    raw = span / max(target_ticks, 1)
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
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-9 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(
    series: list[Series],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Render series as a titled line chart with error bars; returns SVG text."""
    if not series:
        raise ValueError("nothing to plot: no series")
    for s in series:
        if len(s.xs) != len(s.ys) or len(s.errs) != len(s.xs):
            raise ValueError(f"series {s.label!r} has mismatched lengths")
        if len(s.xs) == 0:
            raise ValueError(f"series {s.label!r} is empty")

    xs_all = [x for s in series for x in s.xs]
    ys_lo = [y - e for s in series for y, e in zip(s.ys, s.errs)]
    ys_hi = [y + e for s in series for y, e in zip(s.ys, s.errs)]
    x_lo, x_hi = _axis_range(min(xs_all), max(xs_all), 0.04, x_label)
    y_lo, y_hi = _axis_range(min(ys_lo), max(ys_hi), 0.06, y_label)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-size="17">{_escape(title)}</text>'
    )

    # gridlines and ticks
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 22}" text-anchor="middle" '
            f'font-size="13">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="13">{_fmt(t)}</text>'
        )

    # frame and axis labels
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 18}" '
        f'text-anchor="middle" font-size="15">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="24" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="15" transform="rotate(-90 24 {MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_escape(y_label)}</text>"
    )

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        for x, y, e in zip(s.xs, s.ys, s.errs):
            if e <= 0:
                continue
            cx, y1, y2 = px(x), py(y - e), py(y + e)
            out.append(
                f'<line x1="{cx:.2f}" y1="{y1:.2f}" x2="{cx:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
            for yy in (y1, y2):
                out.append(
                    f'<line x1="{cx - 4:.2f}" y1="{yy:.2f}" x2="{cx + 4:.2f}" '
                    f'y2="{yy:.2f}" stroke="{color}" stroke-width="1.2"/>'
                )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(s.xs, s.ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')

    # legend
    lx = MARGIN_LEFT + plot_w + 16
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = MARGIN_TOP + 12 + idx * 22
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<circle cx="{lx + 12}" cy="{ly}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-size="13">{_escape(s.label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
