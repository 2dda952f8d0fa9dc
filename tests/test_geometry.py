import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidar_cfe.geometry import ORIGIN, ObstacleShape, Point2, raycast_scan, shape_overlaps_disk

from oracles import Ray, march_ray, march_scan, random_scene, ray_circle_intersect, ray_rect_intersect, shape_contains


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
        with pytest.raises(ValueError):
            raycast_scan(ORIGIN, [], 0, 3.5)
        with pytest.raises(ValueError):
            raycast_scan(ORIGIN, [], 10, 0.0)


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
        with pytest.raises(ValueError):
            shape_overlaps_disk(ObstacleShape.circle(Point2(1, 1), 0.1), ORIGIN, -0.1)

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
