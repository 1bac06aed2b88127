import math

import numpy as np
import pytest

from cotrack.geometry import (
    Blockers,
    Box3D,
    Pose,
    Region,
    bev_iou,
    center_distance_matrix,
    compose,
    inverse,
    segments_hit_blockers,
    transform_box,
    wrap_angle,
)


def make_box(x=0.0, y=0.0, z=0.0, w=2.0, l=4.0, h=1.5, yaw=0.0):
    return Box3D(x=x, y=y, z=z, w=w, l=l, h=h, yaw=yaw)


class TestPose:
    def test_compose_identity(self):
        p = Pose(3.0, -2.0, 1.0, 0.7)
        assert compose(Pose.identity(), p) == p
        assert compose(p, Pose.identity()) == p

    def test_compose_with_inverse_is_identity(self):
        p = Pose(1.5, 2.5, -0.5, 2.2)
        q = compose(p, inverse(p))
        assert abs(q.x) < 1e-12 and abs(q.y) < 1e-12 and abs(q.z) < 1e-12
        assert abs(q.yaw) < 1e-12

    def test_compose_rotates_translation(self):
        # Rotating frame by pi/2 sends the point (1, 0) to (0, 1).
        a = Pose(1.0, 0.0, 0.0, math.pi / 2)
        b = Pose(1.0, 0.0, 0.0, 0.0)
        c = compose(a, b)
        assert c.x == pytest.approx(1.0)
        assert c.y == pytest.approx(1.0)
        assert c.yaw == pytest.approx(math.pi / 2)

    def test_yaw_normalized_to_half_open_interval(self):
        assert Pose(yaw=math.pi).yaw == pytest.approx(math.pi)
        assert Pose(yaw=-math.pi).yaw == pytest.approx(math.pi)
        assert Pose(yaw=3 * math.pi).yaw == pytest.approx(math.pi)
        assert Pose(yaw=2 * math.pi).yaw == pytest.approx(0.0)

    def test_wrap_angle_array(self):
        vals = wrap_angle(np.array([0.0, math.pi, -math.pi, 5 * math.pi / 2]))
        assert vals == pytest.approx([0.0, math.pi, math.pi, math.pi / 2])


class TestTransformBox:
    def test_identity(self):
        b = make_box(1.0, 2.0, 0.5, yaw=0.3)
        assert transform_box(b, Pose.identity()) == b

    def test_pure_translation(self):
        b = make_box(0.0, 0.0, 0.0, yaw=0.4)
        out = transform_box(b, Pose(5.0, 0.0, 0.0, 0.0))
        assert (out.x, out.y, out.z) == pytest.approx((5.0, 0.0, 0.0))
        assert out.yaw == pytest.approx(0.4)
        assert (out.w, out.l, out.h) == (b.w, b.l, b.h)

    def test_quarter_turn(self):
        b = make_box(1.0, 0.0, 0.0, yaw=0.0)
        out = transform_box(b, Pose(0.0, 0.0, 0.0, math.pi / 2))
        assert out.x == pytest.approx(0.0, abs=1e-12)
        assert out.y == pytest.approx(1.0)
        assert out.yaw == pytest.approx(math.pi / 2)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = make_box(
                *rng.uniform(-50, 50, size=3),
                w=rng.uniform(0.5, 3.0),
                l=rng.uniform(0.5, 8.0),
                h=rng.uniform(0.5, 3.0),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            p = Pose(*rng.uniform(-20, 20, size=3), yaw=rng.uniform(-math.pi, math.pi))
            back = transform_box(transform_box(b, p), inverse(p))
            for field in ("x", "y", "z", "w", "l", "h"):
                assert getattr(back, field) == pytest.approx(getattr(b, field), abs=1e-9)
            assert float(wrap_angle(back.yaw - b.yaw)) == pytest.approx(0.0, abs=1e-9)


def center_distance(a, b):
    """One box pair's entry of the pairwise distance matrix."""
    return center_distance_matrix([a], [b])[0, 0]


class TestCenterDistance:
    def test_identical_boxes(self):
        b = make_box(3.0, 4.0, 5.0)
        assert center_distance(b, b) == 0.0

    def test_three_four_five(self):
        assert center_distance(make_box(0, 0, 0), make_box(3, 4, 0)) == pytest.approx(5.0)

    def test_hand_computed(self):
        assert center_distance(make_box(1, 1, 1), make_box(2, 3, 3)) == pytest.approx(3.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b, c = (make_box(*rng.uniform(-100, 100, size=3)) for _ in range(3))
            assert center_distance(a, c) <= center_distance(a, b) + center_distance(b, c) + 1e-9


class TestBevIou:
    def test_identical(self):
        b = make_box(2.0, 3.0, yaw=0.7)
        assert bev_iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bev_iou(make_box(0, 0), make_box(100, 0)) == 0.0

    def test_offset_squares(self):
        # Two 2x2 squares offset by one meter: intersection 2, union 6.
        a = Box3D(0, 0, 0, w=2, l=2, h=1)
        b = Box3D(1, 0, 0, w=2, l=2, h=1)
        assert bev_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = make_box(*rng.uniform(-5, 5, size=2), 0.0, w=rng.uniform(0.5, 4), l=rng.uniform(0.5, 6), yaw=rng.uniform(-math.pi, math.pi))
            b = make_box(*rng.uniform(-5, 5, size=2), 0.0, w=rng.uniform(0.5, 4), l=rng.uniform(0.5, 6), yaw=rng.uniform(-math.pi, math.pi))
            ab = bev_iou(a, b)
            assert ab == pytest.approx(bev_iou(b, a), abs=1e-12)
            assert 0.0 <= ab <= 1.0

    def test_rotated_self_overlap(self):
        # A square rotated by 45 degrees about its own center: intersection is
        # the regular octagon, area 8*(sqrt(2)-1) for a 2x2 square.
        a = Box3D(0, 0, 0, w=2, l=2, h=1, yaw=0.0)
        b = Box3D(0, 0, 0, w=2, l=2, h=1, yaw=math.pi / 4)
        inter = 8 * (math.sqrt(2) - 1)
        assert bev_iou(a, b) == pytest.approx(inter / (8 - inter))


class TestRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Region(1.0, 0.0, 0.0, 1.0)

    def test_contains_is_closed(self):
        r = Region(0.0, -1.0, 10.0, 1.0)
        assert r.contains(0.0, -1.0)
        assert r.contains(10.0, 1.0)
        assert not r.contains(10.0001, 0.0)


UNIT_RECT = Blockers.of(walls=[(0, 0, 2, 1)])


class TestSegmentHits:
    def test_segment_through_rect(self):
        hit = segments_hit_blockers(np.array([[-1.0, 0.5]]), np.array([[3.0, 0.5]]), UNIT_RECT)[0]
        assert hit[0]

    def test_segment_misses_rect(self):
        hit = segments_hit_blockers(np.array([[-1.0, 5.0]]), np.array([[3.0, 5.0]]), UNIT_RECT)[0]
        assert not hit[0]

    def test_segment_ends_on_boundary_not_hit(self):
        # Ray cast exactly to a point on the rectangle edge does not count.
        hit = segments_hit_blockers(np.array([[-1.0, 0.5]]), np.array([[0.0, 0.5]]), UNIT_RECT)[0]
        assert not hit[0]

    def test_oriented_box_hit(self):
        box = make_box(5.0, 0.0, 0.0, w=2.0, l=4.0, yaw=math.pi / 2)
        starts = np.array([[0.0, 0.0], [0.0, 10.0]])
        ends = np.array([[10.0, 0.0], [10.0, 10.0]])
        hits = segments_hit_blockers(starts, ends, Blockers.of([box]))[0]
        assert hits[0] and not hits[1]
