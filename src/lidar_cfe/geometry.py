"""Exact 2D ray casting against circle and oriented-rectangle obstacles.

Conventions, used consistently across the package:

* ray 0 points along +x and ray indices increase counter-clockwise,
* tangent rays count as hits,
* a ray cast from inside a shape returns the exit distance,
* scan rays that hit nothing read exactly ``max_range``.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .scan import Scan

CIRCLE = "circle"
RECTANGLE = "rectangle"


@dataclass(frozen=True)
class Point2:
    """A point in the world frame, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point must be finite, got ({self.x}, {self.y})")


ORIGIN = Point2(0.0, 0.0)


@dataclass(frozen=True)
class ObstacleShape:
    """A circle or an oriented rectangle in world coordinates.

    Rectangles are symmetric under a half turn, so ``orientation`` is kept
    normalized to [0, pi). Circles ignore ``orientation`` and
    ``half_extents``; rectangles ignore ``radius``.
    """

    kind: str
    center: Point2
    radius: float | None = None
    half_extents: tuple[float, float] | None = None
    orientation: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == CIRCLE:
            if self.radius is None or not (0.0 < self.radius < math.inf):
                raise ValueError(f"circle radius must be positive, got {self.radius}")
            object.__setattr__(self, "radius", float(self.radius))
            object.__setattr__(self, "half_extents", None)
            object.__setattr__(self, "orientation", 0.0)
        elif self.kind == RECTANGLE:
            if self.half_extents is None:
                raise ValueError("rectangle needs half_extents")
            hx, hy = (float(h) for h in self.half_extents)
            if not (0.0 < hx < math.inf and 0.0 < hy < math.inf):
                raise ValueError(f"rectangle half_extents must be positive, got {self.half_extents}")
            if not math.isfinite(self.orientation):
                raise ValueError(f"orientation must be finite, got {self.orientation}")
            turn = float(self.orientation) % math.pi
            if turn >= math.pi:  # float mod can round up to the divisor itself
                turn = 0.0
            object.__setattr__(self, "radius", None)
            object.__setattr__(self, "half_extents", (hx, hy))
            object.__setattr__(self, "orientation", turn)
        else:
            raise ValueError(f"unknown shape kind: {self.kind!r}")

    @classmethod
    def circle(cls, center: Point2, radius: float) -> "ObstacleShape":
        return cls(kind=CIRCLE, center=center, radius=radius)

    @classmethod
    def rectangle(
        cls,
        center: Point2,
        half_extents: tuple[float, float],
        orientation: float = 0.0,
    ) -> "ObstacleShape":
        return cls(kind=RECTANGLE, center=center, half_extents=tuple(half_extents), orientation=orientation)


@functools.lru_cache(maxsize=32)
def _ray_directions(n_rays: int) -> tuple[np.ndarray, np.ndarray]:
    headings = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dx = np.cos(headings)
    dy = np.sin(headings)
    dx.flags.writeable = False
    dy.flags.writeable = False
    return dx, dy


@dataclass(frozen=True, eq=False)
class ShapeRows:
    """P candidate scenes of K obstacle slots each, as (P, K) parameter arrays.

    ``rect`` marks rectangle slots. ``size1`` is a circle's radius or a
    rectangle's first half extent, ``size2`` the second half extent (unused
    by circles); ``orientation`` is a rectangle's turn in [0, pi), with its
    cosine and sine in ``cos_o`` and ``sin_o``.
    """

    rect: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    size1: np.ndarray
    size2: np.ndarray
    orientation: np.ndarray
    cos_o: np.ndarray
    sin_o: np.ndarray

    @classmethod
    def from_shapes(cls, shapes) -> "ShapeRows":
        """One row holding ``shapes``."""
        params = [
            (s.kind == RECTANGLE, s.center.x, s.center.y, *(s.half_extents or (s.radius, s.radius)), s.orientation)
            for s in shapes
        ]
        rect, cx, cy, size1, size2, turn = np.moveaxis(np.array(params, dtype=float).reshape(1, -1, 6), 2, 0)
        return cls(rect == 1.0, cx, cy, size1, size2, turn, np.cos(turn), np.sin(turn))

    def take(self, index) -> "ShapeRows":
        """Every parameter array indexed by ``index``."""
        return ShapeRows(*(getattr(self, f.name)[index] for f in fields(self)))


def _circle_hit_distances(ox: float, oy: float, dx, dy, cx, cy, r) -> np.ndarray:
    # One row per circle: centers and radii are (P, 1) columns, directions (R,) rows.
    fx = ox - cx
    fy = oy - cy
    b = fx * dx + fy * dy
    c = fx * fx + fy * fy - r * r
    disc = b * b - c
    hit = disc >= 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    enter = -b - root
    leave = -b + root
    t = np.where(enter >= 0.0, enter, leave)
    return np.where(hit & (leave >= 0.0), t, np.inf)


def _slab_interval(o, d: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    # Entry/exit parameters of the slab |o + t d| <= h; rays parallel to the
    # slab map to (-inf, inf) when inside it and to an empty interval otherwise.
    parallel = d == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ta = (-h - o) / d
        tb = (h - o) / d
    lo = np.minimum(ta, tb)
    hi = np.maximum(ta, tb)
    inside = np.abs(o) <= h
    lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
    return lo, hi


def _rect_hit_distances(ox: float, oy: float, dx, dy, cx, cy, cos_o, sin_o, hx, hy) -> np.ndarray:
    # One row per rectangle, parameters as (P, 1) columns; slab test in its local frame.
    px = ox - cx
    py = oy - cy
    lox = px * cos_o + py * sin_o
    loy = -px * sin_o + py * cos_o
    ldx = dx * cos_o + dy * sin_o
    ldy = -dx * sin_o + dy * cos_o
    lo_x, hi_x = _slab_interval(lox, ldx, hx)
    lo_y, hi_y = _slab_interval(loy, ldy, hy)
    t_enter = np.maximum(lo_x, lo_y)
    t_exit = np.minimum(hi_x, hi_y)
    hit = (t_enter <= t_exit) & (t_exit >= 0.0)
    t = np.where(t_enter >= 0.0, t_enter, t_exit)
    return np.where(hit, t, np.inf)


def raycast_rows(origin: Point2, shapes: ShapeRows, n_rays: int, max_range: float) -> np.ndarray:
    """Scan readings of every scene in ``shapes``, one (n_rays,) row per scene.

    Loops over the obstacle slots, so temporaries stay (P, n_rays).
    """
    dx, dy = _ray_directions(n_rays)
    best = np.full((shapes.rect.shape[0], n_rays), np.inf)
    for k in range(shapes.rect.shape[1]):
        for rows in (np.flatnonzero(~shapes.rect[:, k]), np.flatnonzero(shapes.rect[:, k])):
            if rows.size == 0:
                continue
            s = shapes.take((rows, k, np.newaxis))  # (n, 1) columns of one slot, one kind
            if s.rect[0, 0]:
                t = _rect_hit_distances(origin.x, origin.y, dx, dy, s.cx, s.cy, s.cos_o, s.sin_o, s.size1, s.size2)
            else:
                t = _circle_hit_distances(origin.x, origin.y, dx, dy, s.cx, s.cy, s.size1)
            best[rows] = np.minimum(best[rows], t)
    return np.minimum(best, max_range)


def raycast_scan(
    origin: Point2,
    shapes: list[ObstacleShape] | tuple[ObstacleShape, ...],
    n_rays: int = 180,
    max_range: float = 3.5,
) -> Scan:
    """Cast ``n_rays`` evenly spaced rays from ``origin`` and return the scan.

    Reading i is the nearest boundary distance over all shapes along heading
    ``2*pi*i/n_rays``, clamped to ``max_range``; rays that hit nothing read
    exactly ``max_range``.
    """
    if n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    if not (0.0 < max_range < math.inf):
        raise ValueError(f"max_range must be positive and finite, got {max_range}")
    return Scan(raycast_rows(origin, ShapeRows.from_shapes(shapes), n_rays, max_range)[0], max_range)


def overlaps_disk_rows(shapes: ShapeRows, center: Point2, radius: float) -> np.ndarray:
    """(P, K) mask of the slots whose closed region intersects the closed disk."""
    # Circles compare the center gap; rectangles the gap from the disk center
    # to its closest point on the rectangle, in the rectangle's frame.
    px = center.x - shapes.cx
    py = center.y - shapes.cy
    lx = px * shapes.cos_o + py * shapes.sin_o
    ly = -px * shapes.sin_o + py * shapes.cos_o
    qx = np.minimum(np.maximum(lx, -shapes.size1), shapes.size1)
    qy = np.minimum(np.maximum(ly, -shapes.size2), shapes.size2)
    gap_x = np.where(shapes.rect, lx - qx, shapes.cx - center.x)
    gap_y = np.where(shapes.rect, ly - qy, shapes.cy - center.y)
    limit = np.where(shapes.rect, radius, shapes.size1 + radius)
    return np.hypot(gap_x, gap_y) <= limit


def shape_overlaps_disk(shape: ObstacleShape, center: Point2, radius: float) -> bool:
    """True iff the shape's closed region intersects the closed disk."""
    if radius < 0.0:
        raise ValueError(f"disk radius must be >= 0, got {radius}")
    return bool(overlaps_disk_rows(ShapeRows.from_shapes([shape]), center, radius)[0, 0])

