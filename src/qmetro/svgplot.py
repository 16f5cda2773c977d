"""Minimal hand-built SVG line plots: axes, polylines, legend. No dependencies,
no timestamps, fully deterministic for fixed input data."""

from __future__ import annotations

from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_WIDTH, _HEIGHT = 640, 480
_MARGIN = {"left": 70, "right": 20, "top": 40, "bottom": 50}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    hlines: Sequence[tuple[str, float]] = (),
) -> str:
    """Render labelled (x, y) series as an SVG 1.1 document.

    hlines adds dashed horizontal reference lines, included in the y range.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys] + [v for _, v in hlines]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        # an integer 1: a float 1.0 rounds away at a nu of 2**53 or more
        x_hi = x_lo + 1
    # a zero-width y range is padded by a share of its size: a pad of 0.5 rounds
    # away above about 4.5e15, and the range would keep zero width
    pad = 0.05 * (y_hi - y_lo) or max(0.5, 0.05 * abs(y_lo))
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_l, px_r = _MARGIN["left"], _WIDTH - _MARGIN["right"]
    px_t, px_b = _MARGIN["top"], _HEIGHT - _MARGIN["bottom"]

    def sx(x: float) -> float:
        return px_l + (x - x_lo) / (x_hi - x_lo) * (px_r - px_l)

    def sy(y: float) -> float:
        return px_b - (y - y_lo) / (y_hi - y_lo) * (px_b - px_t)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]

    # axes and ticks
    out.append(
        f'<path d="M {px_l} {px_t} L {px_l} {px_b} L {px_r} {px_b}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        out.append(f'<line x1="{px:.1f}" y1="{px_b}" x2="{px:.1f}" y2="{px_b + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.1f}" y="{px_b + 18}" text-anchor="middle">{_fmt(xv)}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        out.append(f'<line x1="{px_l - 5}" y1="{py:.1f}" x2="{px_l}" y2="{py:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{px_l - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(yv)}</text>'
        )
    out += [
        f'<text x="{(px_l + px_r) / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{(px_t + px_b) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(px_t + px_b) / 2:.1f})">{ylabel}</text>',
    ]

    for label, value in hlines:
        py = sy(value)
        out.append(
            f'<line x1="{px_l}" y1="{py:.1f}" x2="{px_r}" y2="{py:.1f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )
        out.append(f'<text x="{px_r - 4}" y="{py - 4:.1f}" text-anchor="end" fill="gray">{label}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        ly = px_t + 16 * idx
        out.append(
            f'<line x1="{px_r - 120}" y1="{ly}" x2="{px_r - 100}" y2="{ly}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        out.append(f'<text x="{px_r - 94}" y="{ly + 4}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
