"""Static SVG polar plots of scans, obstacles, and goal markers.

Plots are scaled to the scan's max range with a dashed range ring; readings
at max range (no return) are drawn faint so real hits stand out.
"""

from __future__ import annotations

import functools
import math
import re

from .geometry import CIRCLE, _ray_directions
from .scan import GoalFeatures, Scan

_SIZE = 440
_MARGIN = 28

_COLOR_BASE = "#9ecae1"
_COLOR_COMBINED = "#15507a"
_COLOR_OBSTACLE = "#c0392b"
_COLOR_GOAL = "#f28c28"
_COLOR_RING = "#b5b5b5"
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")  # outside XML 1.0's Char


class _Frame:
    """World-to-screen transform; +y up, sensor at the canvas center."""

    def __init__(self, max_range: float):
        self.scale = (_SIZE / 2 - _MARGIN) / max_range
        self.cx = _SIZE / 2
        self.cy = _SIZE / 2
        self.max_range = max_range

    def pt(self, x: float, y: float) -> tuple[float, float]:
        # As Python floats, a point too far off the canvas maps to inf without a warning.
        return self.cx + float(x) * self.scale, self.cy - float(y) * self.scale


def _scan_points(frame: _Frame, scan: Scan, color: str, base: Scan | None = None) -> list[str]:
    """One point per reading; a ray whose reading has the bits of ``base``'s reuses that scan's point in ``color``."""
    reused = [None] * scan.n
    if base is not None and (base.n, base.max_range) == (scan.n, scan.max_range):
        same = (scan.readings.view("u8") == base.readings.view("u8")).tolist()
        reused = [point if keep else None for point, keep in zip(_base_points(base, color), same)]
    parts = []
    cos_rays, sin_rays = (units.tolist() for units in _ray_directions(scan.n))
    for reading, cos_t, sin_t, point in zip(scan.readings.tolist(), cos_rays, sin_rays, reused):
        if point is None:
            x, y = frame.pt(reading * cos_t, reading * sin_t)
            opacity = 0.22 if reading >= scan.max_range else 0.9
            point = f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.7" fill="{color}" fill-opacity="{opacity}"/>'
        parts.append(point)
    return parts


@functools.lru_cache(maxsize=2)
def _base_points(base: Scan, color: str) -> tuple[str, ...]:
    # An explain plots every counterfactual over one base scan, so it formats that scan's points once per colour.
    return tuple(_scan_points(_Frame(base.max_range), base, color))


def _plot(frame: _Frame, base: Scan | None, scan: Scan, obstacles, goal: GoalFeatures | None, label: str | None) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    if label:
        parts.append(f'<text x="10" y="18" font-family="sans-serif" font-size="13" fill="#555">{_NOT_XML_CHAR.sub("", label).translate(_XML_ESCAPES)}</text>')
    parts.append(
        f'<circle cx="{frame.cx:.2f}" cy="{frame.cy:.2f}" r="{frame.max_range * frame.scale:.2f}" fill="none" '
        f'stroke="{_COLOR_RING}" stroke-width="1" stroke-dasharray="5 4"/>'
    )
    parts.extend(() if base is None else _base_points(base, _COLOR_BASE))
    parts.extend(_scan_points(frame, scan, _COLOR_COMBINED, base))
    for shape in obstacles:
        cx, cy = frame.pt(shape.center.x, shape.center.y)
        w, h = (2 * v * frame.scale for v in shape.half_extents or (shape.radius, shape.radius))
        if not all(map(math.isfinite, (cx, cy, w, h))):
            continue  # the obstacle lies far beyond the range ring
        if shape.kind == CIRCLE:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{w / 2:.2f}" fill="none" '
                f'stroke="{_COLOR_OBSTACLE}" stroke-width="1.5"/>'
            )
        else:  # screen y points down, so a counter-clockwise world rotation is negative here
            parts.append(
                f'<rect x="{-w / 2:.2f}" y="{-h / 2:.2f}" width="{w:.2f}" height="{h:.2f}" fill="none" '
                f'stroke="{_COLOR_OBSTACLE}" stroke-width="1.5" '
                f'transform="translate({cx:.2f} {cy:.2f}) rotate({-math.degrees(shape.orientation):.2f})"/>'
            )
    if goal is not None:  # a goal beyond the plotted range is clamped onto the ring
        d = min(goal.distance, frame.max_range)
        x, y = frame.pt(d * goal.cos, d * goal.sin)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="{_COLOR_GOAL}" fill-opacity="0.9"/>')
    parts.append(f'<circle cx="{frame.cx:.2f}" cy="{frame.cy:.2f}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scan_plot_svg(scan: Scan, goal: GoalFeatures | None = None, label: str | None = None) -> str:
    """Polar plot of one scan: range ring, one point per reading, sensor dot, goal."""
    return _plot(_Frame(scan.max_range), None, scan, (), goal, label)


def cfe_plot_svg(
    base: Scan,
    combined: Scan,
    obstacles,
    goal: GoalFeatures | None = None,
    label: str | None = None,
) -> str:
    """Overlay plot: base scan light, combined scan dark, obstacle outlines, goal."""
    return _plot(_Frame(base.max_range), base, combined, obstacles, goal, label)
