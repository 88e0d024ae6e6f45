"""Static SVG 1.1 rendering of a wall-and-chamber report.

This is the only module that converts rationals to floats; everything is
formatted with a fixed precision so identical reports produce identical
bytes.  The picture is the upper half-plane with beta horizontal, alpha
vertical, semicircular walls, the scanned vertical line, and one label per
chamber along that line.
"""

from __future__ import annotations

import math

from .walls import ChamberReport

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN = 56.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Frame:
    """Affine map from (beta, alpha) coordinates to SVG pixels (y flipped)."""

    def __init__(self, beta_min: float, beta_max: float, alpha_max: float):
        self.beta_min = beta_min
        self.beta_max = beta_max
        self.alpha_max = alpha_max
        self.sx = (_WIDTH - 2 * _MARGIN) / (beta_max - beta_min)
        self.sy = (_HEIGHT - 2 * _MARGIN) / alpha_max

    def x(self, beta: float) -> float:
        return _MARGIN + (beta - self.beta_min) * self.sx

    def y(self, alpha: float) -> float:
        return _HEIGHT - _MARGIN - alpha * self.sy


def _extent(report: ChamberReport) -> _Frame:
    beta0 = float(report.beta0)
    betas = [beta0 - 1.0, beta0 + 1.0]
    alphas = [1.0]
    for crossing in report.walls:
        center = float(crossing.locus.center_beta)
        radius = math.sqrt(float(crossing.locus.radius_sq))
        betas.extend([center - radius, center + radius])
        alphas.append(radius)
    pad = 0.35
    return _Frame(min(betas) - pad, max(betas) + pad, max(alphas) * 1.35)


def _tick_positions(lo: float, hi: float) -> list[float]:
    first = math.ceil(lo * 2)
    last = math.floor(hi * 2)
    return [k / 2 for k in range(first, last + 1)]


def render_svg(report: ChamberReport) -> str:
    """Render the report to an SVG 1.1 document string."""
    frame = _extent(report)
    beta0 = float(report.beta0)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>',
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN / 2)}" font-family="monospace" font-size="13">'
        f"walls for degree {report.degree}, lattice (1/{report.lattice[0]}, 1/{report.lattice[1]})</text>",
    ]

    # beta axis with half-integer ticks
    y_axis = frame.y(0.0)
    parts.append(
        f'<line x1="{_fmt(frame.x(frame.beta_min))}" y1="{_fmt(y_axis)}" '
        f'x2="{_fmt(frame.x(frame.beta_max))}" y2="{_fmt(y_axis)}" stroke="black" stroke-width="1"/>'
    )
    for tick in _tick_positions(frame.beta_min, frame.beta_max):
        x = frame.x(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y_axis)}" x2="{_fmt(x)}" y2="{_fmt(y_axis + 5)}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y_axis + 18)}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(frame.x(frame.beta_max) + 8)}" y="{_fmt(y_axis + 4)}" '
        f'font-family="monospace" font-size="12">beta</text>'
    )
    parts.append(
        f'<text x="{_fmt(frame.x(frame.beta_min) - 30)}" y="{_fmt(frame.y(frame.alpha_max) - 8)}" '
        f'font-family="monospace" font-size="12">alpha</text>'
    )

    # the scanned vertical line
    x0 = frame.x(beta0)
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(frame.y(0.0))}" x2="{_fmt(x0)}" y2="{_fmt(frame.y(frame.alpha_max))}" '
        f'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{_fmt(x0 + 4)}" y="{_fmt(frame.y(frame.alpha_max) + 12)}" font-family="monospace" '
        f'font-size="11" fill="#555555">beta = {report.beta0}</text>'
    )

    # walls
    crossing_alphas: list[float] = []
    for crossing in report.walls:
        center = float(crossing.locus.center_beta)
        radius = math.sqrt(float(crossing.locus.radius_sq))
        x_left, x_right = frame.x(center - radius), frame.x(center + radius)
        r_x, r_y = radius * frame.sx, radius * frame.sy
        parts.append(
            f'<path d="M {_fmt(x_left)} {_fmt(y_axis)} A {_fmt(r_x)} {_fmt(r_y)} 0 0 1 '
            f'{_fmt(x_right)} {_fmt(y_axis)}" fill="none" stroke="#c0392b" stroke-width="1.5"/>'
        )
        apex_y = frame.y(radius)
        parts.append(
            f'<text x="{_fmt(frame.x(center))}" y="{_fmt(apex_y - 6)}" font-family="monospace" '
            f'font-size="11" text-anchor="middle" fill="#c0392b">alpha^2 = {crossing.alpha_sq}</text>'
        )
        crossing_alphas.append(math.sqrt(float(crossing.alpha_sq)))

    # one label per chamber along the scanned line
    boundaries = [0.0] + sorted(crossing_alphas) + [frame.alpha_max]
    for index in range(len(boundaries) - 1):
        mid = (boundaries[index] + boundaries[index + 1]) / 2
        parts.append(
            f'<text x="{_fmt(x0 + 6)}" y="{_fmt(frame.y(mid))}" font-family="monospace" font-size="11" '
            f'fill="#2c3e50">chamber {index + 1}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(report: ChamberReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_svg(report))
