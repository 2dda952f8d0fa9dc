"""Exact 2D ray casting against circle and oriented-rectangle obstacles.

Conventions, used consistently across the package:

* ray 0 points along +x and ray indices increase counter-clockwise,
* tangent rays count as hits,
* a ray cast from inside a shape returns the exit distance,
* scan rays that hit nothing read exactly ``max_range``.

``raycast_rows`` works per obstacle, then per ray: terms that do not need the
ray (a circle's center offset and ``|f|^2 - r^2``, a rectangle's local
origin, slab numerators and inside flags) are computed once per (scene, slot)
pair, and each (pair, ray) element does only the ray-dependent arithmetic.

All functions are pure and safe for concurrent use: ``raycast_rows`` writes
only to the ``out`` array its caller gives it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .ga import require_real
from .scan import Scan

CIRCLE = "circle"
RECTANGLE = "rectangle"


@dataclass(frozen=True)
class Point2:
    """A point in the world frame, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(require_real("point x", self.x)) and math.isfinite(require_real("point y", self.y))):
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
            if self.radius is None or not (0.0 < require_real("radius", self.radius) < math.inf):
                raise ValueError(f"circle radius must be positive, got {self.radius}")
            object.__setattr__(self, "radius", float(self.radius))
            object.__setattr__(self, "half_extents", None)
            object.__setattr__(self, "orientation", 0.0)
        elif self.kind == RECTANGLE:
            if self.half_extents is None:
                raise ValueError("rectangle needs half_extents")
            hx, hy = (require_real("half_extents", h) for h in self.half_extents)
            if not (0.0 < hx < math.inf and 0.0 < hy < math.inf):
                raise ValueError(f"rectangle half_extents must be positive, got {self.half_extents}")
            if not math.isfinite(require_real("orientation", self.orientation)):
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

    def shapes(self, i: int) -> tuple[ObstacleShape, ...]:
        """Row ``i`` as obstacles, the inverse of ``from_shapes``."""
        params = zip(*(a[i].tolist() for a in (self.rect, self.cx, self.cy, self.size1, self.size2, self.orientation)))
        return tuple(
            ObstacleShape.rectangle(Point2(x, y), (s1, s2), turn) if rect else ObstacleShape.circle(Point2(x, y), s1)
            for rect, x, y, s1, s2, turn in params
        )

    def take(self, index) -> "ShapeRows":
        """Every parameter array indexed by ``index``."""
        return ShapeRows(*(getattr(self, f.name)[index] for f in fields(self)))


def _ray_windows(origin: Point2, shapes: ShapeRows, n_rays: int) -> tuple[np.ndarray, np.ndarray]:
    """First ray and ray count of the window of each (scene, slot) pair, flattened scene-major.

    A shape lies inside its bounding circle: radius rho (a circle's radius, a
    rectangle's half diagonal) at distance d from the origin. Only rays within
    asin(rho / d) of the direction to its center can hit it. A window covers
    those rays and one more on each side, which absorbs the rounding of the
    hit kernels; it may run past ray 0. Every ray is cast when the origin
    lies inside or on the bounding circle, when the center lies within 1e-100
    of the origin (nearer, the kernels' squares lose their precision), when a
    bound is not finite, or when the window would be as wide as the scan.
    """
    ex = (shapes.cx - origin.x).ravel()
    ey = (shapes.cy - origin.y).ravel()
    d = np.hypot(ex, ey)
    rho = np.where(shapes.rect, np.hypot(shapes.size1, shapes.size2), shapes.size1).ravel()
    near = (d <= rho * (1.0 + 1e-9)) | (d < 1e-100)
    step = 2.0 * math.pi / n_rays
    half = np.arcsin(np.divide(rho, d, out=np.ones_like(d), where=~near)) / step
    center = np.arctan2(ey, ex) / step
    first = np.floor(center - half) - 1.0
    width = np.floor(center + half) + 2.0 - first
    every = near | ~np.isfinite(width) | (width >= n_rays)
    return np.where(every, 0.0, first).astype(np.int64), np.where(every, n_rays, width).astype(np.int64)


def _circle_hits(origin: Point2, w: np.ndarray, dx: np.ndarray, dy: np.ndarray, cx, cy, r) -> np.ndarray:
    # Per pair: the center offset f and c = |f|^2 - r^2; per ray: b = f.d and
    # the roots of t^2 + 2 b t + c = 0.
    fx, fy = origin.x - cx, origin.y - cy
    b = np.repeat(fx, w) * dx + np.repeat(fy, w) * dy
    disc = b * b - np.repeat(fx * fx + fy * fy - r * r, w)
    hit = disc >= 0.0
    root = np.sqrt(np.where(hit, disc, 0.0))
    enter, leave = -b - root, -b + root
    t = np.where(enter >= 0.0, enter, leave)
    return np.where(hit & (leave >= 0.0), t, np.inf)


def _slab_intervals(o: np.ndarray, h: np.ndarray, w: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Entry/exit parameters of the slab |o + t d| <= h. The numerators and the
    # inside flag are per pair; rays parallel to the slab (d exactly 0) map to
    # (-inf, inf) when inside it and to an empty interval otherwise.
    ta, tb = np.repeat(-h - o, w) / d, np.repeat(h - o, w) / d
    lo, hi = np.minimum(ta, tb), np.maximum(ta, tb, out=ta)
    parallel = np.flatnonzero(d == 0.0)
    if parallel.size:
        lo[parallel] = np.where(np.abs(o) <= h, -np.inf, np.inf)[np.searchsorted(np.cumsum(w), parallel, side="right")]
        hi[parallel] = -lo[parallel]
    return lo, hi


def _rect_hits(origin: Point2, w: np.ndarray, dx: np.ndarray, dy: np.ndarray, cx, cy, cos_o, sin_o, hx, hy) -> np.ndarray:
    # Slab test in the rectangle's local frame: local origin per pair, local direction per ray.
    px, py = origin.x - cx, origin.y - cy
    ray_cos, ray_sin = np.repeat(cos_o, w), np.repeat(sin_o, w)
    lo_x, hi_x = _slab_intervals(px * cos_o + py * sin_o, hx, w, dx * ray_cos + dy * ray_sin)
    lo_y, hi_y = _slab_intervals(py * cos_o - px * sin_o, hy, w, dy * ray_cos - dx * ray_sin)
    t_enter, t_exit = np.maximum(lo_x, lo_y, out=lo_x), np.minimum(hi_x, hi_y, out=hi_x)
    hit = (t_enter <= t_exit) & (t_exit >= 0.0)
    t = np.where(t_enter >= 0.0, t_enter, t_exit)
    return np.where(hit, t, np.inf)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # far shapes overflow to misses; parallel rays divide by 0
def raycast_rows(origin: Point2, shapes: ShapeRows, n_rays: int, max_range: float, out: np.ndarray | None = None) -> np.ndarray:
    """Scan readings of every scene in ``shapes``, one (n_rays,) row per scene.

    Each obstacle is cast only against the rays of its window
    (``_ray_windows``), outside of which no ray can hit it. The pairs are
    ordered by kind once; each kind's kernel spreads its per-pair terms over
    the windows with ``np.repeat``, so every (pair, ray) element sees the
    operations and operands of a kernel run on every ray. With one slot per
    scene no two elements share a reading, and the distances are written
    straight into the rows. With several, they are scatter-minimized into the
    rows in scene-major, slot-minor order, so even a tie of +0 and -0
    resolves as in a sweep. Either way a reading has a sweep's bits.

    The readings are written into ``out``, which the caller gives as a
    C-contiguous (scenes, n_rays) float array, or into a new array; the
    array written is returned.
    """
    n_scenes, n_slots = shapes.rect.shape
    if out is None:
        out = np.empty((n_scenes, n_rays))
    first, width = _ray_windows(origin, shapes, n_rays)
    rect = shapes.rect.ravel()
    pair = np.argsort(rect, kind="stable")  # circles, then rectangles, each in scene-major order
    w = width[pair]
    block = np.cumsum(w) - w  # first element of each pair's window, in kind order
    element = np.arange(w.sum())
    ray = (element + np.repeat(first[pair] - block, w)) % n_rays
    cell = ray + np.repeat(pair // n_slots * n_rays, w)  # each element's flat reading index, in kind order
    cx, cy, cos_o, sin_o, size1, size2 = (getattr(shapes, p).ravel()[pair] for p in ("cx", "cy", "cos_o", "sin_o", "size1", "size2"))
    dx, dy = (d[ray] for d in _ray_directions(n_rays))
    k = rect.size - np.count_nonzero(rect)  # circle pairs
    e = w[:k].sum()  # their elements
    circles = _circle_hits(origin, w[:k], dx[:e], dy[:e], cx[:k], cy[:k], size1[:k])
    rects = _rect_hits(origin, w[k:], dx[e:], dy[e:], cx[k:], cy[k:], cos_o[k:], sin_o[k:], size1[k:], size2[k:])
    out.fill(np.inf)
    flat = out.reshape(-1)
    if n_slots == 1:  # no two elements share a reading
        flat[cell[:e]], flat[cell[e:]] = circles, rects
    else:
        element += np.repeat((np.cumsum(width) - width)[pair] - block, w)  # its place in scene-major, slot-minor order
        cells, t = np.empty_like(cell), np.empty(cell.size)
        cells[element], t[element[:e]], t[element[e:]] = cell, circles, rects
        np.minimum.at(flat, cells, t)
    return np.minimum(out, max_range, out=out)


def raycast_scan(origin: Point2, shapes: list[ObstacleShape] | tuple[ObstacleShape, ...], n_rays: int = 180, max_range: float = 3.5) -> Scan:
    """Cast ``n_rays`` evenly spaced rays from ``origin`` and return the scan.

    Reading i is the nearest boundary distance over all shapes along heading
    ``2*pi*i/n_rays``, clamped to ``max_range``; rays that hit nothing read
    exactly ``max_range``. ``Scenario`` checks both sizes.
    """
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
    """True iff the shape's closed region intersects the closed disk of radius >= 0."""
    return bool(overlaps_disk_rows(ShapeRows.from_shapes([shape]), center, radius)[0, 0])

