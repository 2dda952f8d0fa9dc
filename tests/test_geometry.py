import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_cfe import ActionBounds, CfeQuery, GoalFeatures, Scan, Scenario
from lidar_cfe.cfe import _decode_rows
from lidar_cfe.geometry import (
    ORIGIN,
    ObstacleShape,
    Point2,
    ShapeRows,
    _ray_windows,
    raycast_rows,
    raycast_scan,
    shape_overlaps_disk,
)

from oracles import (
    Ray,
    full_sweep_raycast_rows,
    march_ray,
    march_scan,
    random_scene,
    ray_circle_intersect,
    ray_rect_intersect,
    shape_contains,
)


def rotate_shape(shape, phi):
    c, s = math.cos(phi), math.sin(phi)
    center = Point2(c * shape.center.x - s * shape.center.y, s * shape.center.x + c * shape.center.y)
    if shape.kind == "circle":
        return ObstacleShape.circle(center, shape.radius)
    return ObstacleShape.rectangle(center, shape.half_extents, shape.orientation + phi)


class TestRayCircle:
    def test_collinear_hit(self):
        circle = ObstacleShape.circle(Point2(2.0, 0.0), 0.5)
        assert ray_circle_intersect(Ray(ORIGIN, 0.0), circle) == pytest.approx(1.5, abs=1e-12)

    def test_ray_points_away(self):
        circle = ObstacleShape.circle(Point2(2.0, 0.0), 0.5)
        assert ray_circle_intersect(Ray(ORIGIN, math.pi / 2), circle) is None

    def test_offset_circle(self):
        # (t - 2)^2 + 0.3^2 = 0.25 along the x axis gives t = 2 - 0.4 = 1.6.
        circle = ObstacleShape.circle(Point2(2.0, 0.3), 0.5)
        t = ray_circle_intersect(Ray(ORIGIN, 0.0), circle)
        assert t == pytest.approx(1.6, abs=1e-12)
        assert t == pytest.approx(march_ray([circle], 0.0, 3.5, step=1e-4), abs=2e-4)

    def test_origin_inside_returns_exit(self):
        circle = ObstacleShape.circle(Point2(0.1, 0.0), 0.5)
        assert ray_circle_intersect(Ray(ORIGIN, 0.0), circle) == pytest.approx(0.6, abs=1e-12)
        assert ray_circle_intersect(Ray(ORIGIN, math.pi), circle) == pytest.approx(0.4, abs=1e-12)

    def test_tangent_counts_as_hit(self):
        circle = ObstacleShape.circle(Point2(2.0, 0.5), 0.5)
        assert ray_circle_intersect(Ray(ORIGIN, 0.0), circle) == pytest.approx(2.0, abs=1e-9)

    def test_wrong_kind_rejected(self):
        rect = ObstacleShape.rectangle(Point2(1.0, 0.0), (0.2, 0.2))
        with pytest.raises(ValueError):
            ray_circle_intersect(Ray(ORIGIN, 0.0), rect)


class TestRayRect:
    def test_axis_aligned_slab(self):
        rect = ObstacleShape.rectangle(Point2(0.0, 2.0), (1.0, 0.25))
        assert ray_rect_intersect(Ray(ORIGIN, math.pi / 2), rect) == pytest.approx(1.75, abs=1e-12)

    def test_off_axis_miss(self):
        rect = ObstacleShape.rectangle(Point2(0.0, 5.0), (0.1, 0.1))
        assert ray_rect_intersect(Ray(ORIGIN, 0.0), rect) is None

    def test_origin_inside_returns_exit(self):
        rect = ObstacleShape.rectangle(Point2(0.0, 0.0), (0.5, 0.3))
        assert ray_rect_intersect(Ray(ORIGIN, 0.0), rect) == pytest.approx(0.5, abs=1e-12)
        assert ray_rect_intersect(Ray(ORIGIN, math.pi / 2), rect) == pytest.approx(0.3, abs=1e-12)

    def test_rotated_rect_matches_marching(self):
        rng = np.random.default_rng(7)
        rect = ObstacleShape.rectangle(Point2(1.2, 0.8), (0.6, 0.3), math.pi / 4)
        for _ in range(60):
            heading = rng.uniform(0.0, 2.0 * math.pi)
            t = ray_rect_intersect(Ray(ORIGIN, heading), rect)
            marched = march_ray([rect], heading, 3.5, step=1e-3)
            expected = marched if marched < 3.5 else None
            if expected is None:
                assert t is None or t > 3.5 - 2e-3
            else:
                assert t == pytest.approx(expected, abs=2e-3)

    def test_wrong_kind_rejected(self):
        circle = ObstacleShape.circle(Point2(1.0, 0.0), 0.2)
        with pytest.raises(ValueError):
            ray_rect_intersect(Ray(ORIGIN, 0.0), circle)


def test_plug_back_property():
    # Any returned distance must land the ray on the shape boundary.
    rng = np.random.default_rng(11)
    for _ in range(300):
        shapes = random_scene(rng, n_shapes=1, clear_radius=0.0)
        shape = shapes[0]
        ray = Ray(Point2(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0, 2 * math.pi))
        if shape.kind == "circle":
            t = ray_circle_intersect(ray, shape)
        else:
            t = ray_rect_intersect(ray, shape)
        if t is None:
            continue
        x = ray.origin.x + t * math.cos(ray.heading)
        y = ray.origin.y + t * math.sin(ray.heading)
        if shape.kind == "circle":
            assert abs(math.hypot(x - shape.center.x, y - shape.center.y) - shape.radius) < 1e-9
        else:
            c, s = math.cos(shape.orientation), math.sin(shape.orientation)
            lx = (x - shape.center.x) * c + (y - shape.center.y) * s
            ly = -(x - shape.center.x) * s + (y - shape.center.y) * c
            hx, hy = shape.half_extents
            assert abs(lx) <= hx + 1e-9 and abs(ly) <= hy + 1e-9
            assert abs(lx) >= hx - 1e-9 or abs(ly) >= hy - 1e-9


class TestRaycastScan:
    def test_empty_scene(self):
        scan = raycast_scan(ORIGIN, [], 180, 3.5)
        assert scan.n == 180
        assert np.all(scan.readings == 3.5)

    def test_single_circle(self):
        scan = raycast_scan(ORIGIN, [ObstacleShape.circle(Point2(2.0, 0.0), 0.5)], 180, 3.5)
        assert scan.readings[0] == pytest.approx(1.5, abs=1e-12)
        # Rays pointing away never touch the circle.
        assert np.all(scan.readings[45:136] == 3.5)

    def test_matches_scalar_intersections(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            shapes = random_scene(rng)
            scan = raycast_scan(ORIGIN, shapes, 90, 3.5)
            for i in range(90):
                ray = Ray(ORIGIN, 2.0 * math.pi * i / 90)
                best = 3.5
                for shape in shapes:
                    t = (
                        ray_circle_intersect(ray, shape)
                        if shape.kind == "circle"
                        else ray_rect_intersect(ray, shape)
                    )
                    if t is not None:
                        best = min(best, t)
                assert scan.readings[i] == pytest.approx(best, abs=1e-12)

    def test_random_scenes_match_marching_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            shapes = random_scene(rng, graze_free_rays=180)
            scan = raycast_scan(ORIGIN, shapes, 180, 3.5)
            marched = march_scan(shapes, 180, 3.5, step=1e-3)
            assert np.max(np.abs(scan.readings - marched)) < 2e-3

    def test_adding_a_shape_never_increases_readings(self):
        rng = np.random.default_rng(5)
        shapes = random_scene(rng, n_shapes=4)
        for k in range(1, 5):
            before = raycast_scan(ORIGIN, shapes[: k - 1], 180, 3.5).readings
            after = raycast_scan(ORIGIN, shapes[:k], 180, 3.5).readings
            assert np.all(after <= before)

    def test_readings_live_in_half_open_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scan = raycast_scan(ORIGIN, random_scene(rng), 180, 3.5)
            assert np.all(scan.readings > 0.0)
            assert np.all(scan.readings <= 3.5)

    def test_rotating_scene_permutes_readings(self):
        rng = np.random.default_rng(8)
        shapes = random_scene(rng, n_shapes=3)
        n = 180
        for k in (1, 17, 90):
            phi = 2.0 * math.pi * k / n
            rotated = [rotate_shape(s, phi) for s in shapes]
            base = raycast_scan(ORIGIN, shapes, n, 3.5).readings
            turned = raycast_scan(ORIGIN, rotated, n, 3.5).readings
            assert np.allclose(np.roll(base, k), turned, atol=1e-9)

    def test_argument_validation(self):
        # raycast_scan trusts its sizes; Scenario, which gives them, checks both.
        with pytest.raises(ValueError, match="n_rays"):
            Scenario("s", Point2(1.0, 0.0), n_rays=0)
        with pytest.raises(ValueError, match="max_range"):
            Scenario("s", Point2(1.0, 0.0), max_range=0.0)


# Multiples of 1/64 add exactly, so edge, corner and rim points built from
# them land exactly on the boundary of an unturned shape.
EXACT = st.integers(-192, 192).map(lambda i: i / 64)
COORDS = st.one_of(EXACT, st.floats(-3.0, 3.0))
SIZES = st.one_of(st.integers(4, 64).map(lambda i: i / 64), st.floats(0.05, 1.0))


@st.composite
def shape_and_point(draw):
    """A circle or rectangle, and a point on its boundary or anywhere near it."""
    center = Point2(draw(COORDS), draw(COORDS))
    if draw(st.booleans()):
        radius = draw(SIZES)
        shape = ObstacleShape.circle(center, radius)
        angle = draw(st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]), st.floats(0.0, 2.0 * math.pi)))
        lx, ly, turn = radius, 0.0, angle
    else:
        hx, hy = draw(SIZES), draw(SIZES)
        shape = ObstacleShape.rectangle(center, (hx, hy), draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi))))
        u = draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))  # +-1 picks a corner
        lx, ly = draw(st.sampled_from([(hx, u * hy), (-hx, u * hy), (u * hx, hy), (u * hx, -hy)]))
        turn = shape.orientation
    if draw(st.booleans()):
        c, s = math.cos(turn), math.sin(turn)
        return shape, Point2(center.x + lx * c - ly * s, center.y + lx * s + ly * c)
    return shape, Point2(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))


class TestOverlapDisk:
    def test_near_circle(self):
        circle = ObstacleShape.circle(Point2(0.1, 0.0), 0.05)
        assert shape_overlaps_disk(circle, ORIGIN, 0.2)

    def test_far_circle(self):
        circle = ObstacleShape.circle(Point2(5.0, 5.0), 0.1)
        assert not shape_overlaps_disk(circle, ORIGIN, 0.2)

    def test_rect_grazing_matches_boundary_sampling(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            rect = ObstacleShape.rectangle(
                Point2(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                (rng.uniform(0.05, 0.8), rng.uniform(0.05, 0.8)),
                rng.uniform(0.0, math.pi),
            )
            radius = rng.uniform(0.05, 0.8)
            # Dense boundary + interior sampling as the membership oracle.
            u = np.linspace(-1.0, 1.0, 2500)
            hx, hy = rect.half_extents
            edge = np.concatenate(
                [
                    np.stack([u * hx, np.full_like(u, hy)], axis=1),
                    np.stack([u * hx, np.full_like(u, -hy)], axis=1),
                    np.stack([np.full_like(u, hx), u * hy], axis=1),
                    np.stack([np.full_like(u, -hx), u * hy], axis=1),
                ]
            )
            c, s = math.cos(rect.orientation), math.sin(rect.orientation)
            world = np.stack(
                [
                    rect.center.x + edge[:, 0] * c - edge[:, 1] * s,
                    rect.center.y + edge[:, 0] * s + edge[:, 1] * c,
                ],
                axis=1,
            )
            sampled = bool(np.any(np.hypot(world[:, 0], world[:, 1]) <= radius))
            # Disk center swallowed by the rect counts too (own math, not the library's).
            olx = -rect.center.x * c - rect.center.y * s
            oly = rect.center.x * s - rect.center.y * c
            sampled = sampled or (abs(olx) <= hx and abs(oly) <= hy)
            got = shape_overlaps_disk(rect, ORIGIN, radius)
            if got != sampled:
                # Sampling can miss a graze narrower than the sample spacing.
                gap = float(np.min(np.hypot(world[:, 0], world[:, 1])))
                assert abs(gap - radius) < 1e-3
            else:
                assert got == sampled

    def test_radius_validation(self):
        # The disk tests trust their radius: Scenario passes 0, and the search
        # the query's d_min, which the query checks.
        with pytest.raises(ValueError, match="d_min must be >= 0"):
            CfeQuery(Scan.empty(8, 3.5), GoalFeatures(1.0, 0.0, 1.0), ActionBounds.from_pairs([(-1.0, 1.0)]), d_min=-0.1)

    @settings(max_examples=400, deadline=None)
    @given(case=shape_and_point())
    def test_zero_radius_overlap_is_point_containment(self, case):
        shape, point = case
        assert shape_overlaps_disk(shape, point, 0.0) == shape_contains(shape, point)


class TestShapeTypes:
    def test_circle_validation(self):
        with pytest.raises(ValueError):
            ObstacleShape.circle(Point2(0, 0), 0.0)
        with pytest.raises(ValueError):
            ObstacleShape.circle(Point2(0, 0), -1.0)

    def test_rect_validation(self):
        with pytest.raises(ValueError):
            ObstacleShape.rectangle(Point2(0, 0), (0.0, 0.1))

    def test_orientation_wraps_to_half_turn(self):
        rect = ObstacleShape.rectangle(Point2(0, 0), (1, 1), math.pi + 0.25)
        assert rect.orientation == pytest.approx(0.25, abs=1e-12)
        assert ObstacleShape.rectangle(Point2(0, 0), (1, 1), math.pi).orientation == 0.0

    def test_point_must_be_finite(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)

    def test_ray_heading_wraps(self):
        assert Ray(ORIGIN, 2.0 * math.pi + 0.5).heading == pytest.approx(0.5, abs=1e-12)
        assert Ray(ORIGIN, -0.5).heading == pytest.approx(2.0 * math.pi - 0.5, abs=1e-12)

    def test_contains(self):
        rect = ObstacleShape.rectangle(Point2(1.0, 0.0), (0.5, 0.25), math.pi / 2)
        assert shape_overlaps_disk(rect, Point2(1.0, 0.4), 0.0)
        assert not shape_overlaps_disk(rect, Point2(1.4, 0.0), 0.0)


# ---------------------------------------------------------------------------
# raycast_rows casts each obstacle only against the rays of its window. Its
# readings must keep the bits of a sweep of every ray over every slot.

RAY_COUNTS = st.sampled_from([1, 2, 3, 7, 180, 360])
ORIGINS = st.one_of(st.just(ORIGIN), st.builds(Point2, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
# Powers of ten for distances and sizes: 1e-200 squares to zero, 1e160 squares
# to infinity, 1e-101 and 1e-99 sit either side of the smallest distance a
# window is cut for.
SCALES = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-200.0, -101.0, -99.0, -60.0, 60.0, 150.0, 160.0, 300.0]))


def assert_same_bits(origin, shapes, n_rays, max_range=3.5):
    got = raycast_rows(origin, shapes, n_rays, max_range)
    want = full_sweep_raycast_rows(origin, shapes, n_rays, max_range)
    assert got.shape == want.shape
    differ = np.argwhere(got.view(np.uint64) != want.view(np.uint64))
    if differ.size:
        first = tuple(differ[0])
        pytest.fail(f"{len(differ)} readings differ from the full sweep, first at (scene, ray) {first}: {got[first]!r} != {want[first]!r}")


@st.composite
def decoded_scenes(draw):
    """Genomes decoded as a search decodes them, with the decode square and the sizes at any scale."""
    n_scenes, n_slots = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    genes = draw(st.lists(st.floats(0.0, 1.0), min_size=6 * n_slots * n_scenes, max_size=6 * n_slots * n_scenes))
    world = 10.0 ** draw(SCALES)
    lo = 10.0 ** draw(SCALES)
    hi = lo * 10.0 ** draw(st.floats(0.0, 2.0))
    return _decode_rows(np.reshape(genes, (n_scenes, 6 * n_slots)), world, (lo, hi))


@settings(max_examples=300, deadline=None)
@given(shapes=decoded_scenes(), origin=ORIGINS, n_rays=RAY_COUNTS)
def test_windowed_readings_of_decoded_scenes_equal_the_full_sweep(shapes, origin, n_rays):
    assert_same_bits(origin, shapes, n_rays)


@st.composite
def window_edge_scenes(draw):
    """Scenes of slots placed on the window rule's edges, with one origin and ray count.

    Each slot's center lies on a ray, halfway between two rays or anywhere,
    often near ray 0 so that windows wrap. Its bounding radius rho over its
    distance d is sin(k * step), so that tangent rays fall on a window edge,
    or close to 1, so that the bounding circle holds the origin, passes
    through it or just misses it, or anything up to 3. Few distinct angles
    make the windows of a scene's slots overlap.
    """
    origin, n_rays = draw(ORIGINS), draw(RAY_COUNTS)
    n_scenes, n_slots = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    step = 2.0 * math.pi / n_rays
    angles = st.one_of(
        st.integers(-3, 3).map(lambda i: i * step),
        st.integers(-3, 3).map(lambda i: (i + 0.5) * step),
        st.floats(-4.0, 4.0),
    )
    ratios = st.one_of(
        st.integers(0, max(1, n_rays // 4)).map(lambda k: math.sin(k * step)),
        st.sampled_from([1.0 - 1e-12, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 2e-9, 2.0]),
        st.floats(1e-6, 3.0),
    )
    columns = {name: np.empty((n_scenes, n_slots)) for name in ("cx", "cy", "size1", "size2", "orientation")}
    rect = np.zeros((n_scenes, n_slots), dtype=bool)
    for i in range(n_scenes):
        for k in range(n_slots):
            angle, d = draw(angles), 10.0 ** draw(SCALES)
            rho = draw(ratios) * d
            columns["cx"][i, k] = origin.x + d * math.cos(angle)
            columns["cy"][i, k] = origin.y + d * math.sin(angle)
            rect[i, k] = draw(st.booleans())
            if rect[i, k]:  # half extents with a half diagonal of rho
                split = draw(st.floats(0.01, math.pi / 2 - 0.01))
                columns["size1"][i, k], columns["size2"][i, k] = rho * math.cos(split), rho * math.sin(split)
                columns["orientation"][i, k] = draw(st.floats(0.0, math.pi, exclude_max=True))
            else:
                columns["size1"][i, k] = columns["size2"][i, k] = rho
                columns["orientation"][i, k] = 0.0
    turn = columns["orientation"]
    return origin, ShapeRows(rect=rect, **columns, cos_o=np.cos(turn), sin_o=np.sin(turn)), n_rays


@settings(max_examples=400, deadline=None)
@given(case=window_edge_scenes())
def test_windowed_readings_on_window_edges_equal_the_full_sweep(case):
    assert_same_bits(*case)


def test_window_covers_the_bounding_circle_and_a_ray_either_side():
    # Radius 0.1 at distance 2 on ray 0: asin(0.05) is 1.43 ray steps of 180, so
    # the window runs from ray -3 (177) to ray 2.
    shapes = ShapeRows.from_shapes([ObstacleShape.circle(Point2(2.0, 0.0), 0.1)])
    first, width = _ray_windows(ORIGIN, shapes, 180)
    assert (first[0], width[0]) == (-3, 6)
    # A bounding circle through the origin casts every ray.
    shapes = ShapeRows.from_shapes([ObstacleShape.rectangle(Point2(0.3, 0.4), (0.3, 0.4))])
    assert tuple(_ray_windows(ORIGIN, shapes, 180)[1]) == (180,)


def test_readings_written_into_a_given_array_keep_their_bits():
    shapes = _decode_rows(np.random.default_rng(2).random((6, 12)), 3.5, (0.05, 1.0))
    want = raycast_rows(ORIGIN, shapes, 180, 3.5)
    out = np.full((6, 180), np.nan)
    assert raycast_rows(ORIGIN, shapes, 180, 3.5, out=out) is out
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def stacked_rows(scenes):
    """One ShapeRows row per scene; every scene holds the same number of shapes."""
    rows = [ShapeRows.from_shapes(scene) for scene in scenes]
    return ShapeRows(*(np.concatenate([getattr(row, f.name) for row in rows]) for f in dataclasses.fields(ShapeRows)))


def test_zero_distance_ties_resolve_in_slot_order():
    # A circle and a rectangle whose boundaries pass exactly through the
    # origin: each reads 0 on many rays, +0 on some and -0 on others. On a
    # tie np.minimum keeps its second operand, so the sweep keeps the later
    # slot's zero, and the scatter-min must meet the slots of a scene in slot
    # order, whichever kind comes first.
    circles = [ObstacleShape.circle(Point2(0.0, 0.5), 0.5), ObstacleShape.circle(Point2(0.0, -0.25), 0.25)]
    rects = [ObstacleShape.rectangle(Point2(0.5, 0.0), (0.5, 0.2)), ObstacleShape.rectangle(Point2(-0.3, 0.0), (0.3, 0.1))]
    scenes = [[c, r] for c in circles for r in rects] + [[r, c] for r in rects for c in circles]
    shapes = stacked_rows(scenes)
    one_slot = [full_sweep_raycast_rows(ORIGIN, shapes.take((slice(None), [k])), 180, 3.5) for k in range(2)]
    opposite = (one_slot[0] == 0.0) & (one_slot[1] == 0.0) & (np.signbit(one_slot[0]) != np.signbit(one_slot[1]))
    assert opposite.any(axis=1).all()  # every scene has a ray whose two slots disagree on the sign of zero
    assert_same_bits(ORIGIN, shapes, 180)
    assert_same_bits(ORIGIN, shapes, 7)
    # Each slot alone: one slot per scene, whose distances are written straight
    # into the rows. Every bounding circle reaches the sensor, so every window
    # is the whole scan, and the readings hold zeros of both signs.
    for k, readings in enumerate(one_slot):
        alone = shapes.take((slice(None), [k]))
        assert np.all(_ray_windows(ORIGIN, alone, 180)[1] == 180)
        assert set(np.signbit(readings[readings == 0.0]).tolist()) == {False, True}
        assert_same_bits(ORIGIN, alone, 180)
        assert_same_bits(ORIGIN, alone, 7)


@pytest.mark.parametrize("batch", ["circles", "rectangles", "no_slots", "no_scenes"])
def test_batches_missing_a_kind_equal_the_full_sweep(batch):
    n_scenes, n_slots = {"no_slots": (4, 0), "no_scenes": (0, 3)}.get(batch, (5, 3))
    shapes = _decode_rows(np.random.default_rng(3).random((n_scenes, 6 * n_slots)), 3.5, (0.05, 1.0))
    shapes = dataclasses.replace(shapes, rect=np.full(shapes.rect.shape, batch == "rectangles"))
    assert raycast_rows(ORIGIN, shapes, 180, 3.5).shape == (n_scenes, 180)
    assert_same_bits(ORIGIN, shapes, 180)
    if batch == "no_slots":
        assert np.all(raycast_rows(ORIGIN, shapes, 180, 3.5) == 3.5)


def test_rays_along_a_rectangle_edge_hit_it():
    # Ray 0 runs exactly along an edge of these axis-aligned rectangles, so
    # its local direction is exactly parallel to one slab and its origin lies
    # on that slab's boundary: a tangent ray, which hits the near corner.
    shapes = stacked_rows(
        [
            [ObstacleShape.rectangle(Point2(1.0, 0.2), (0.5, 0.2))],
            [ObstacleShape.rectangle(Point2(1.0, -0.2), (0.5, 0.2))],
            [ObstacleShape.rectangle(Point2(0.5, 0.2), (0.5, 0.2))],  # its corner is the origin
        ]
    )
    assert raycast_rows(ORIGIN, shapes, 180, 3.5)[:, 0].tolist() == [0.5, 0.5, 0.0]
    assert_same_bits(ORIGIN, shapes, 180)
