"""Independent reference implementations used to cross-check the library.

Everything here re-derives results from first principles (occupancy
marching, naive nested-loop network passes, literal piecewise formulas)
without calling the code paths under test. ``conv1d_forward`` is the one
exception: it only reshapes signals for the library's own convolution
kernel, so that tests can hold that kernel against ``naive_conv1d``.
``full_sweep_raycast_rows`` keeps a frozen copy of the element-wise hit
kernels that ``raycast_rows`` once ran on every ray, so that the library's
per-pair kernels and windows are both checked against the arithmetic they
must reproduce bit for bit. ``frozen_state_lines`` keeps the bridge's
former line formatter, which formatted every distinct value of a batch, so
that the reference-spliced lines are checked against it byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lidar_cfe import ActionVector, Activation, Conv1d, Dense, ModelState, NetworkPolicy, NetworkSpec, Scan
from lidar_cfe.geometry import (
    CIRCLE,
    ORIGIN,
    RECTANGLE,
    ObstacleShape,
    Point2,
    shape_overlaps_disk,
)
from lidar_cfe.model import (
    AVOID_THRESHOLD,
    BLEND_WIDTH,
    BLOCK_THRESHOLD,
    CONE_HALF_ANGLE,
    FORWARD_SPEED,
    GEMM_MIN_OUTPUTS,
    REVERSE_SPEED,
    ROW_FLOOR,
    SIDE_THRESHOLD,
    TURN_GAIN,
    TURN_MAGNITUDE,
    _conv_rows,
)


# ---------------------------------------------------------------------------
# One ray against one shape, in plain scalar math. The vectorized scan kernels
# must agree with it.


@dataclass(frozen=True)
class Ray:
    """A half line from ``origin`` along ``heading`` (radians, wrapped to [0, 2pi))."""

    origin: Point2
    heading: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.heading):
            raise ValueError(f"heading must be finite, got {self.heading}")
        h = float(self.heading) % (2.0 * math.pi)
        if h >= 2.0 * math.pi:
            h = 0.0
        object.__setattr__(self, "heading", h)


def ray_circle_intersect(ray: Ray, circle: ObstacleShape) -> float | None:
    """Distance along the ray to the circle boundary, or None if missed.

    Returns the entry distance, the exit distance when the ray starts
    inside, and the tangent distance for a grazing ray.
    """
    if circle.kind != CIRCLE:
        raise ValueError(f"expected a circle, got {circle.kind}")
    dx = math.cos(ray.heading)
    dy = math.sin(ray.heading)
    fx = ray.origin.x - circle.center.x
    fy = ray.origin.y - circle.center.y
    # Unit direction, so t^2 + 2 b t + c = 0 with b = f.d and c = |f|^2 - r^2.
    b = fx * dx + fy * dy
    c = fx * fx + fy * fy - circle.radius * circle.radius
    disc = b * b - c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    t_exit = -b + root
    if t_exit < 0.0:
        return None
    t_enter = -b - root
    return t_enter if t_enter >= 0.0 else t_exit


def ray_rect_intersect(ray: Ray, rect: ObstacleShape) -> float | None:
    """Distance along the ray to the oriented rectangle, or None if missed.

    Slab test in the rectangle's local frame; same inside/exit conventions
    as :func:`ray_circle_intersect`.
    """
    if rect.kind != RECTANGLE:
        raise ValueError(f"expected a rectangle, got {rect.kind}")
    cos_o = math.cos(rect.orientation)
    sin_o = math.sin(rect.orientation)
    px = ray.origin.x - rect.center.x
    py = ray.origin.y - rect.center.y
    ox = px * cos_o + py * sin_o
    oy = -px * sin_o + py * cos_o
    wx = math.cos(ray.heading)
    wy = math.sin(ray.heading)
    dx = wx * cos_o + wy * sin_o
    dy = -wx * sin_o + wy * cos_o
    hx, hy = rect.half_extents
    t_enter = -math.inf
    t_exit = math.inf
    for o, d, h in ((ox, dx, hx), (oy, dy, hy)):
        if d == 0.0:
            if abs(o) > h:
                return None
            continue  # ray runs inside this slab; no constraint
        ta = (-h - o) / d
        tb = (h - o) / d
        if ta > tb:
            ta, tb = tb, ta
        t_enter = max(t_enter, ta)
        t_exit = min(t_exit, tb)
        if t_enter > t_exit:
            return None
    if t_exit < 0.0:
        return None
    return t_enter if t_enter >= 0.0 else t_exit


def rowwise(objective):
    """A population objective from a one-genome objective: one call per row."""
    return lambda pop: np.array([objective(genome) for genome in pop], dtype=float)


# ---------------------------------------------------------------------------
# Scan merging, proximity and point containment, one scan or point at a time.
# The library computes them only inside its batched paths.


def _check_compatible(a: Scan, b: Scan) -> None:
    if a.n != b.n:
        raise ValueError(f"scan length mismatch: {a.n} vs {b.n}")
    if a.max_range != b.max_range:
        raise ValueError(f"scan max_range mismatch: {a.max_range} vs {b.max_range}")


def combine_min_distance(base: Scan, generated: Scan) -> Scan:
    """Merge two scans by keeping the nearer reading on every ray."""
    _check_compatible(base, generated)
    return Scan(np.minimum(base.readings, generated.readings), base.max_range)


def combine_gen_priority(base: Scan, generated: Scan) -> Scan:
    """Merge two scans, letting every actual generated return override the base.

    A generated reading counts as a return when it is strictly below
    max_range; no-return rays fall back to the base reading, even when the
    base reading is nearer.
    """
    _check_compatible(base, generated)
    merged = np.where(generated.readings < generated.max_range, generated.readings, base.readings)
    return Scan(merged, base.max_range)


def proximity_loss(combined: Scan, base: Scan) -> float:
    """Mean absolute per-ray deviation between two scans, on unit-normalized readings.

    Zero for identical scans and always non-negative; used as a penalty that
    keeps generated scans close to the base scan.
    """
    _check_compatible(combined, base)
    total = float(np.abs(combined.readings - base.readings).sum())
    return total / (combined.n * combined.max_range)


def shape_contains(shape: ObstacleShape, point: Point2) -> bool:
    """Closed-region membership test."""
    if shape.kind == CIRCLE:
        return np.hypot(point.x - shape.center.x, point.y - shape.center.y) <= shape.radius
    cos_o = np.cos(shape.orientation)
    sin_o = np.sin(shape.orientation)
    px = point.x - shape.center.x
    py = point.y - shape.center.y
    lx = px * cos_o + py * sin_o
    ly = -px * sin_o + py * cos_o
    hx, hy = shape.half_extents
    return abs(lx) <= hx and abs(ly) <= hy


def scalar_state(scan, goal, d_g_max):
    """Model state: readings over max_range, then goal cos and sin through
    (v + 1) / 2 and distance over d_g_max, each goal value clamped to [0, 1]."""
    goal_part = [(goal.cos + 1.0) / 2.0, (goal.sin + 1.0) / 2.0, goal.distance / d_g_max]
    return ModelState(np.concatenate([scan.readings / scan.max_range, [min(max(v, 0.0), 1.0) for v in goal_part]]))


# ---------------------------------------------------------------------------
# The one-genome scoring chain, written out shape by shape and state by state
# as the library computed it before whole populations were scored together.
# Batched scores must equal it bit for bit. Its transcendentals are numpy's,
# called on one value at a time: Python's math can differ from numpy in the
# last bit, and tests/test_invariance.py checks that numpy's bits do not
# depend on how many values share a call.


def scalar_decode(genome, n_obstacles, world_bounds, size_limits):
    lo, hi = size_limits
    span = hi - lo
    shapes = []
    for t, x, y, theta, s1, s2 in np.asarray(genome, dtype=float).reshape(n_obstacles, 6):
        center = Point2((2.0 * x - 1.0) * world_bounds, (2.0 * y - 1.0) * world_bounds)
        if t < 0.5:
            shapes.append(ObstacleShape.circle(center, lo + s1 * span))
        else:
            shapes.append(ObstacleShape.rectangle(center, (lo + s1 * span, lo + s2 * span), orientation=theta * math.pi))
    return shapes


def scalar_overlaps_disk(shape, radius):
    """Closed shape against the closed disk of ``radius`` around the origin."""
    if shape.kind == "circle":
        return np.hypot(shape.center.x, shape.center.y) <= shape.radius + radius
    cos_o = np.cos(shape.orientation)
    sin_o = np.sin(shape.orientation)
    px = 0.0 - shape.center.x
    py = 0.0 - shape.center.y
    lx = px * cos_o + py * sin_o
    ly = -px * sin_o + py * cos_o
    hx, hy = shape.half_extents
    return np.hypot(lx - min(max(lx, -hx), hx), ly - min(max(ly, -hy), hy)) <= radius


def _scalar_slab(o, d, h):
    parallel = d == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ta = (-h - o) / d
        tb = (h - o) / d
    inside = abs(o) <= h
    lo = np.where(parallel, -np.inf if inside else np.inf, np.minimum(ta, tb))
    hi = np.where(parallel, np.inf if inside else -np.inf, np.maximum(ta, tb))
    return lo, hi


def scalar_raycast(shapes, n_rays, max_range):
    """Readings from the origin, one shape at a time over all rays."""
    headings = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dx, dy = np.cos(headings), np.sin(headings)
    best = np.full(n_rays, np.inf)
    for shape in shapes:
        fx = 0.0 - shape.center.x
        fy = 0.0 - shape.center.y
        if shape.kind == "circle":
            b = fx * dx + fy * dy
            disc = b * b - (fx * fx + fy * fy - shape.radius * shape.radius)
            root = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
            enter, leave = -b - root, -b + root
            t = np.where((disc >= 0.0) & (leave >= 0.0), np.where(enter >= 0.0, enter, leave), np.inf)
        else:
            cos_o = np.cos(shape.orientation)
            sin_o = np.sin(shape.orientation)
            lo_x, hi_x = _scalar_slab(fx * cos_o + fy * sin_o, dx * cos_o + dy * sin_o, shape.half_extents[0])
            lo_y, hi_y = _scalar_slab(-fx * sin_o + fy * cos_o, -dx * sin_o + dy * cos_o, shape.half_extents[1])
            t_enter, t_exit = np.maximum(lo_x, lo_y), np.minimum(hi_x, hi_y)
            t = np.where((t_enter <= t_exit) & (t_exit >= 0.0), np.where(t_enter >= 0.0, t_enter, t_exit), np.inf)
        best = np.minimum(best, t)
    return np.minimum(best, max_range)


# The hit kernels as ``raycast_rows`` ran them on every element before it
# hoisted the per-obstacle terms, frozen here as the reference arithmetic.


def _circle_hit_distances(ox: float, oy: float, dx, dy, cx, cy, r) -> np.ndarray:
    # Elementwise: centers, radii and ray directions broadcast against each other.
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
    # Elementwise, as for circles; slab test in the rectangle's local frame.
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


@np.errstate(over="ignore", invalid="ignore")
def full_sweep_raycast_rows(origin, shapes, n_rays, max_range):
    """``raycast_rows`` without windows: every slot against every ray, one slot and kind at a time.

    It runs the frozen element-wise kernels above, so it checks the per-pair
    kernels, the windows and the scatter-min of ``raycast_rows``.
    """
    headings = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dx, dy = np.cos(headings), np.sin(headings)
    best = np.full((shapes.rect.shape[0], n_rays), np.inf)
    for k in range(shapes.rect.shape[1]):
        for rows in (np.flatnonzero(~shapes.rect[:, k]), np.flatnonzero(shapes.rect[:, k])):
            if rows.size == 0:
                continue
            cx, cy, cos_o, sin_o, size1, size2 = (
                getattr(shapes, name)[rows, k, np.newaxis] for name in ("cx", "cy", "cos_o", "sin_o", "size1", "size2")
            )  # (n, 1) columns of one slot, one kind
            if shapes.rect[rows[0], k]:
                t = _rect_hit_distances(origin.x, origin.y, dx, dy, cx, cy, cos_o, sin_o, size1, size2)
            else:
                t = _circle_hit_distances(origin.x, origin.y, dx, dy, cx, cy, size1)
            best[rows] = np.minimum(best[rows], t)
    return np.minimum(best, max_range)


def _logistic(x):
    if x >= 0.0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def scalar_scripted_act(kind, n, values):
    """The scripted policies on one state of ``n`` rays, in plain float arithmetic."""
    headings = np.arange(n) * (2.0 * math.pi / n)
    cone = np.minimum(headings, 2.0 * math.pi - headings) <= CONE_HALF_ANGLE + 1e-12
    left = (headings > 1e-12) & (headings < math.pi - 1e-12)
    lidar = values[:n]
    bearing = np.arctan2(2.0 * values[n + 1] - 1.0, 2.0 * values[n] - 1.0)
    goal_steer = max(-1.0, min(1.0, TURN_GAIN * bearing))
    min_forward = float(lidar[cone].min())
    blocked = _logistic((BLOCK_THRESHOLD - min_forward) / BLEND_WIDTH)
    linear = (1.0 - blocked) * FORWARD_SPEED + blocked * REVERSE_SPEED
    if kind == "goal_seeker":
        return np.array([linear, goal_steer])
    avoid = _logistic((AVOID_THRESHOLD - min_forward) / BLEND_WIDTH)
    left_clear = _logistic((float(lidar[left].min()) - SIDE_THRESHOLD) / BLEND_WIDTH)
    swerve = TURN_MAGNITUDE * (2.0 * left_clear - 1.0)
    return np.array([linear, avoid * swerve + (1.0 - avoid) * goal_steer])


def _one_state_product(rows, w):
    """``rows @ w.T`` for one state's rows, by the engine's product rule: a
    gemm on the state repeated to the engine's row floor, or one
    matrix-vector product per row."""
    if len(w) > 1 and len(rows) * len(w) >= GEMM_MIN_OUTPUTS:
        return (np.concatenate([rows] * ROW_FLOOR) @ w.T)[: len(rows)]
    return np.array([w @ row for row in rows]).reshape(len(rows), len(w))


def scalar_net_act(spec, weights, values):
    """The network engine on one state: im2col convolutions and dense layers, each
    product run as the engine runs it, with windows gathered by index arithmetic."""
    x = values[: spec.lidar_inputs][np.newaxis, :]
    for layer, entry in zip(spec.layers, weights):
        if isinstance(layer, Conv1d):
            w, b = entry
            p = layer.padding
            x = np.concatenate([x[:, x.shape[1] - p:], x, x[:, :p]], axis=1) if layer.circular else np.pad(x, ((0, 0), (p, p)))
            n_out = (x.shape[1] - layer.kernel) // layer.stride + 1
            at = np.arange(n_out)[:, np.newaxis] * layer.stride + np.arange(layer.kernel)
            rows = x[:, at].transpose(1, 0, 2).reshape(n_out, -1)  # (n_out, in * kernel)
            x = (_one_state_product(rows, w.reshape(len(w), -1)) + b).T
        elif isinstance(layer, Dense):
            if x.ndim == 2:
                x = np.concatenate([x.reshape(-1), values[spec.lidar_inputs:]])
            w, b = entry
            x = _one_state_product(x[np.newaxis], w)[0] + b
        else:
            x = np.maximum(x, 0.0) if layer.fn == "relu" else np.tanh(x)
    return x


def scalar_act(model, state):
    """One action: scripted policies and networks re-derived here, any other model through its act."""
    if getattr(model, "kind", None) in ("goal_seeker", "left_preferrer"):
        return ActionVector(scalar_scripted_act(model.kind, model.n_lidar, state.values))
    if isinstance(model, NetworkPolicy):
        return ActionVector(scalar_net_act(model.spec, model.weights, state.values))
    return model.act(state)


def scalar_score(query, model, genome):
    """Score one genome: decode, guard, raycast, combine, state, act, hinge and proximity.

    Returns ``(fitness, combined, action, hinge, proximity)`` with every part
    computed, also for a genome whose obstacles crowd the sensor disk
    (fitness -inf).
    """
    base = query.base_scan
    shapes = scalar_decode(genome, query.n_obstacles, query.world_bounds, query.size_limits)
    crowds_sensor = any(scalar_overlaps_disk(s, query.d_min) for s in shapes)
    combine = combine_min_distance if query.combination == "min_distance" else combine_gen_priority
    combined = combine(base, Scan(scalar_raycast(shapes, base.n, base.max_range), base.max_range))
    action = scalar_act(model, scalar_state(combined, query.goal, query.d_g_max))
    hinge = hinge_oracle(action.values, query.bounds.lower, query.bounds.upper)
    proximity = proximity_loss(combined, base)
    fitness = -math.inf if crowds_sensor else -query.lambda_y * hinge - query.lambda_p * proximity
    return fitness, combined, action, hinge, proximity


def shape_inside_mask(shape, xs, ys):
    """Closed-region membership for arrays of points, with its own math."""
    if shape.kind == "circle":
        return (xs - shape.center.x) ** 2 + (ys - shape.center.y) ** 2 <= shape.radius**2
    c = math.cos(shape.orientation)
    s = math.sin(shape.orientation)
    px = xs - shape.center.x
    py = ys - shape.center.y
    lx = px * c + py * s
    ly = -px * s + py * c
    hx, hy = shape.half_extents
    return (np.abs(lx) <= hx) & (np.abs(ly) <= hy)


@functools.lru_cache(maxsize=8)
def _march_grid(headings, max_range, step, origin):
    """Sample distances and the (heading, distance) sample points, read-only."""
    headings = np.array(headings, dtype=float)
    ts = np.arange(0.0, max_range + step / 2, step)
    xs = origin[0] + np.cos(headings)[:, None] * ts[None, :]
    ys = origin[1] + np.sin(headings)[:, None] * ts[None, :]
    for array in (ts, xs, ys):
        array.flags.writeable = False
    return ts, xs, ys


def march_headings(shapes, headings, max_range, step=1e-3, origin=(0.0, 0.0)):
    """Walk each heading in fixed steps; distance of the first occupied sample.

    A shape is tested only on the samples whose distance t from the origin
    lies within its bounding radius, plus two steps, of its center's
    distance: by the triangle inequality no other sample can be inside it.
    """
    ts, xs, ys = _march_grid(tuple(np.asarray(headings, dtype=float).tolist()), max_range, step, tuple(origin))
    inside = np.zeros(xs.shape, dtype=bool)
    for shape in shapes:
        reach = (shape.radius if shape.kind == "circle" else math.hypot(*shape.half_extents)) + 2 * step
        gap = math.hypot(shape.center.x - origin[0], shape.center.y - origin[1])
        near = slice(np.searchsorted(ts, gap - reach, side="left"), np.searchsorted(ts, gap + reach, side="right"))
        inside[:, near] |= shape_inside_mask(shape, xs[:, near], ys[:, near])
    any_hit = inside.any(axis=1)
    first = np.argmax(inside, axis=1)
    return np.where(any_hit, first * step, max_range)


def march_scan(shapes, n_rays, max_range, step=1e-3, origin=(0.0, 0.0)):
    headings = np.arange(n_rays) * (2.0 * math.pi / n_rays)
    return march_headings(shapes, headings, max_range, step=step, origin=origin)


def march_ray(shapes, heading, max_range, step=1e-4, origin=(0.0, 0.0)):
    return float(march_headings(shapes, [heading], max_range, step=step, origin=origin)[0])


def _forward_chords(shape, headings):
    """Length of each ray's forward passage through the closed shape, 0 on a miss.

    Own entry/exit math; used only to keep generated scenes inside the
    marching oracle's resolution (a corner graze thinner than the marching
    step is invisible to occupancy sampling, so such shapes are resampled).
    """
    dx = np.cos(headings)
    dy = np.sin(headings)
    if shape.kind == "circle":
        fx, fy = -shape.center.x, -shape.center.y
        b = fx * dx + fy * dy
        disc = b * b - (fx * fx + fy * fy - shape.radius**2)
        ok = disc > 0.0
        root = np.sqrt(np.where(ok, disc, 0.0))
        enter = -b - root
        leave = -b + root
        chord = np.maximum(leave, 0.0) - np.maximum(enter, 0.0)
        return np.where(ok & (leave > 0.0), chord, 0.0)
    c = math.cos(shape.orientation)
    s = math.sin(shape.orientation)
    ox = -shape.center.x * c - shape.center.y * s
    oy = shape.center.x * s - shape.center.y * c
    ldx = dx * c + dy * s
    ldy = -dx * s + dy * c
    enter = np.full(headings.shape, -np.inf)
    leave = np.full(headings.shape, np.inf)
    for o, d, h in ((ox, ldx, shape.half_extents[0]), (oy, ldy, shape.half_extents[1])):
        parallel = d == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (-h - o) / d
            tb = (h - o) / d
        lo = np.where(parallel, np.where(abs(o) <= h, -np.inf, np.inf), np.minimum(ta, tb))
        hi = np.where(parallel, np.where(abs(o) <= h, np.inf, -np.inf), np.maximum(ta, tb))
        enter = np.maximum(enter, lo)
        leave = np.minimum(leave, hi)
    ok = (enter <= leave) & (leave > 0.0)
    chord = np.maximum(leave, 0.0) - np.maximum(enter, 0.0)
    return np.where(ok, chord, 0.0)


def random_scene(
    rng,
    n_shapes=None,
    extent=3.0,
    size_range=(0.05, 1.0),
    clear_radius=0.3,
    max_shapes=5,
    graze_free_rays=None,
    min_chord=3e-3,
):
    """Shapes scattered around the sensor, never crowding the origin disk.

    With ``graze_free_rays`` set, shapes that one of that many evenly spaced
    rays would clip with a passage shorter than ``min_chord`` are resampled,
    so a step-1e-3 occupancy march can resolve every hit.
    """
    count = int(n_shapes) if n_shapes is not None else int(rng.integers(1, max_shapes + 1))
    lo, hi = size_range
    headings = None
    if graze_free_rays is not None:
        headings = np.arange(graze_free_rays) * (2.0 * math.pi / graze_free_rays)
    shapes = []
    while len(shapes) < count:
        center = Point2(rng.uniform(-extent, extent), rng.uniform(-extent, extent))
        if rng.random() < 0.5:
            shape = ObstacleShape.circle(center, rng.uniform(lo, hi))
        else:
            shape = ObstacleShape.rectangle(
                center, (rng.uniform(lo, hi), rng.uniform(lo, hi)), rng.uniform(0.0, math.pi)
            )
        if shape_overlaps_disk(shape, ORIGIN, clear_radius):
            continue
        if headings is not None:
            chords = _forward_chords(shape, headings)
            if np.any((chords > 0.0) & (chords < min_chord)):
                continue
        shapes.append(shape)
    return shapes


def hinge_oracle(action, lowers, uppers):
    """Literal piecewise hinge: 0 inside the range, distance to nearest edge outside."""
    total = 0.0
    for y, lo, hi in zip(action, lowers, uppers):
        if lo <= y <= hi:
            continue
        total += min(abs(y - lo), abs(y - hi))
    return total


def naive_conv1d(x, w, b, stride, padding, circular):
    """Direct-definition convolution with explicit index arithmetic."""
    c_in, length = x.shape
    out_ch, _, kernel = w.shape
    n_out = (length + 2 * padding - kernel) // stride + 1

    def sample(channel, pos):
        j = pos - padding
        if 0 <= j < length:
            return x[channel, j]
        if circular:
            return x[channel, j % length]
        return 0.0

    y = np.zeros((out_ch, n_out))
    for o in range(out_ch):
        for i in range(n_out):
            acc = float(b[o])
            for c in range(c_in):
                for k in range(kernel):
                    acc += float(w[o, c, k]) * float(sample(c, i * stride + k))
            y[o, i] = acc
    return y


def conv1d_forward(x, weight, bias, stride=1, padding=0, circular=True):
    """``model._conv_rows`` on (..., channels, length) signals; ``weight`` is (out, in, kernel).

    Leading axes of ``x`` are batch axes. The output length is
    ``(length + 2*padding - kernel) // stride + 1``.
    """
    *batch_shape, in_channels, length = x.shape
    y = _conv_rows(np.swapaxes(x, -1, -2).reshape(-1, length * in_channels), weight, bias, stride, padding, circular)
    return np.swapaxes(y.reshape(*batch_shape, -1, len(weight)), -1, -2)


def naive_net_forward(spec, weights, values):
    """Loop-based forward pass mirroring the documented network semantics."""
    values = np.asarray(values, dtype=float)
    x = values[: spec.lidar_inputs][None, :]
    vec = None
    for idx, layer in enumerate(spec.layers):
        if isinstance(layer, Conv1d):
            w, b = weights[idx]
            x = naive_conv1d(x, np.asarray(w), np.asarray(b), layer.stride, layer.padding, layer.circular)
        elif isinstance(layer, Dense):
            if vec is None:
                vec = np.concatenate([x.reshape(-1), values[spec.lidar_inputs:]])
            w, b = weights[idx]
            out = np.zeros(layer.out_size)
            for o in range(layer.out_size):
                acc = float(b[o])
                for i in range(layer.in_size):
                    acc += float(w[o][i]) * float(vec[i])
                out[o] = acc
            vec = out
        else:
            if vec is None:
                x = np.maximum(x, 0.0) if layer.fn == "relu" else np.tanh(x)
            else:
                vec = np.maximum(vec, 0.0) if layer.fn == "relu" else np.tanh(vec)
    return vec


def random_micro_net(rng, n_outputs=2):
    """A random small net: up to 2 conv layers, 1-2 dense layers, tanh head."""
    n_lidar = int(rng.integers(8, 25))
    extra = 3
    layers = []
    weights = []
    channels, length = 1, n_lidar
    for _ in range(int(rng.integers(0, 3))):
        if length < 3:
            break
        out_ch = int(rng.integers(1, 5))
        kernel = int(rng.choice([3, 5]))
        stride = int(rng.choice([1, 2]))
        padding = (kernel - 1) // 2 if rng.random() < 0.7 else 0
        circular = bool(rng.random() < 0.7)
        if circular and padding > length:
            padding = length
        if length + 2 * padding < kernel:
            break
        layers.append(Conv1d(channels, out_ch, kernel, stride, padding, circular))
        weights.append((rng.normal(0.0, 0.5, (out_ch, channels, kernel)), rng.normal(0.0, 0.2, out_ch)))
        length = (length + 2 * padding - kernel) // stride + 1
        channels = out_ch
        if rng.random() < 0.7:
            layers.append(Activation("relu"))
            weights.append(None)
    size_in = channels * length + extra
    n_dense = int(rng.integers(1, 3))
    for d in range(n_dense):
        size_out = n_outputs if d == n_dense - 1 else int(rng.integers(3, 17))
        layers.append(Dense(size_in, size_out))
        weights.append((rng.normal(0.0, 0.4, (size_out, size_in)), rng.normal(0.0, 0.2, size_out)))
        if d < n_dense - 1:
            layers.append(Activation("relu"))
            weights.append(None)
        size_in = size_out
    layers.append(Activation("tanh"))
    weights.append(None)
    return NetworkSpec(n_lidar, extra, tuple(layers)), weights


def random_wide_net(rng):
    """A random net wide enough that its convolutions and first dense layer run as gemm."""
    n_lidar = int(rng.integers(32, 65))
    c1, kernel = int(rng.integers(4, 9)), int(rng.choice([3, 5]))
    layers = (
        Conv1d(1, c1, kernel, 1, (kernel - 1) // 2, bool(rng.random() < 0.5)),
        Activation("relu"),
        Conv1d(c1, 8, 3, 2, 1, bool(rng.random() < 0.5)),
        Activation("relu"),
        Dense(8 * ((n_lidar - 1) // 2 + 1) + 3, 128),
        Activation("relu"),
        Dense(128, 2),
        Activation("tanh"),
    )
    weights = [tuple(rng.normal(0.0, 0.3, shape) for shape in layer.param_shapes()) or None for layer in layers]
    return NetworkSpec(n_lidar, 3, layers), weights


# ---------------------------------------------------------------------------
# GA breeding as it once ran, with a sorted copy of the contenders,
# put_along_axis, np.stack and np.vstack. The library's operators must draw
# the same numbers in the same order and breed the same generation, bit for bit.


def frozen_tournament_rows(fitnesses, n_winners, k, rng):
    contenders = np.sort(np.argpartition(rng.random((n_winners, fitnesses.size)), k - 1, axis=1)[:, :k], axis=1)
    return contenders[np.arange(n_winners), np.argmax(fitnesses[contenders], axis=1)]


def frozen_crossover_rows(a, b, rng):
    length = a.shape[1]
    if length == 1:
        return a.copy(), b.copy()
    head = np.arange(length) < rng.integers(1, length, size=len(a))[:, np.newaxis]
    return np.where(head, a, b), np.where(head, b, a)


def frozen_mutate_rows(genomes, fraction, rng):
    out = genomes.copy()
    count = int(round(fraction * out.shape[1]))
    if count == 0:
        return out
    where = np.argpartition(rng.random(out.shape), count - 1, axis=1)[:, :count]
    np.put_along_axis(out, where, rng.random((len(out), count)), axis=1)
    return out


def frozen_next_generation(pop, fits, order, config, rng):
    parents = pop[frozen_tournament_rows(fits, config.parents_mating, config.tournament_size, rng)]
    elites = pop[order[: config.keep_parents]]
    n_children = config.population - config.keep_parents
    pair = np.arange((n_children + 1) // 2)
    c1, c2 = frozen_crossover_rows(parents[pair % len(parents)], parents[(pair + 1) % len(parents)], rng)
    children = np.stack([c1, c2], axis=1).reshape(-1, pop.shape[1])[:n_children]
    return np.vstack([elites, frozen_mutate_rows(children, config.mutation_fraction, rng)])


def frozen_state_lines(states: np.ndarray) -> bytes:
    """One LF-terminated line of ``repr`` decimals per state row, each distinct value (by its bits) formatted once."""
    bits = np.ascontiguousarray(states, dtype=float).view(np.int64)
    distinct, where = np.unique(bits, return_inverse=True)
    texts = np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)
    rows = texts[where.reshape(states.shape)].tolist()
    return "".join([" ".join(row) + "\n" for row in rows]).encode("ascii")
