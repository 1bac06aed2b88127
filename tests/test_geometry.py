import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrack.errors import ConfigurationError, NumericError
from cotrack.geometry import (
    Boxes,
    Category,
    Pose,
    Region,
    center_distances,
    compose,
    inverse,
    rays_hit_blockers,
    wrap_angle,
)
from oracle_utils import Box3D, blockers_of, record_of, rows_of


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


def first_formula(angle):
    """``wrap_angle`` before its out-of-range fallback."""
    return angle - 2.0 * math.pi * np.ceil((angle - math.pi) / (2.0 * math.pi))


def float_bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def near(x: float, steps: int = 3) -> list:
    """``x`` and the ``steps`` floats on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# Neighbours of +-pi and of the odd multiples of pi where a turn ends.
EDGES = [v for k in (1, 3, 5, 101) for sign in (1.0, -1.0) for v in near(sign * k * math.pi)]


class TestWrapAngle:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_in_range_idempotent_and_the_first_formula_where_that_is_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert float_bits(wrap_angle(wrapped)) == float_bits(wrapped)
        first = first_formula(angle)
        if -math.pi < first <= math.pi:
            assert float_bits(wrapped) == float_bits(first)

    @pytest.mark.parametrize("angle", EDGES)
    def test_neighbours_of_plus_minus_pi(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert float_bits(wrap_angle(wrapped)) == float_bits(wrapped)
        assert abs(math.remainder(wrapped - angle, 2.0 * math.pi)) < 1e-12 * max(1.0, abs(angle))

    def test_one_ulp_above_minus_pi_stays_put(self):
        angle = math.nextafter(-math.pi, 0.0)
        assert first_formula(angle) > math.pi  # the first formula's slip
        assert float_bits(wrap_angle(angle)) == float_bits(angle)

    def test_array_equals_each_scalar(self):
        angles = np.array(EDGES + [0.0, -0.0, 1e300, -1e300, 7.5])
        assert float_bits(wrap_angle(angles)) == float_bits([wrap_angle(a) for a in angles])


def transform_box(b: Box3D, pose: Pose) -> Box3D:
    """One box moved through ``Boxes.transformed``."""
    return rows_of(record_of([b]).transformed(pose))[0]


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
    return center_distances(np.array([[a.x, a.y, a.z]]), np.array([[b.x, b.y, b.z]]))[0, 0]


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


class TestRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Region(1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bounds", [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0),
                                        (0.0, 0.0, math.nan, 1.0)])
    def test_bad_bounds_are_a_configuration_error(self, bounds):
        with pytest.raises(ConfigurationError, match="x_min < x_max"):
            Region(*bounds)

    def test_contains_is_closed(self):
        r = Region(0.0, -1.0, 10.0, 1.0)
        assert r.contains(0.0, -1.0)
        assert r.contains(10.0, 1.0)
        assert not r.contains(10.0001, 0.0)

    def test_contains_is_elementwise_on_arrays(self):
        r = Region(0.0, -1.0, 10.0, 1.0)
        xs = np.array([0.0, 10.0, 10.0001, 5.0, math.nan])
        ys = np.array([-1.0, 1.0, 0.0, -1.5, 0.0])
        assert r.contains(xs, ys).tolist() == [r.contains(x, y) for x, y in zip(xs, ys)]


class TestBoxes:
    def test_rows_round_trip_every_field_and_category(self):
        boxes = [make_box(1.0, -2.0, 0.5, yaw=-3.0), Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
                                                           yaw=math.pi, category=Category.BUS)]
        record = record_of(boxes, [0.25, 1.0])
        assert rows_of(record) == boxes
        assert record.score.tolist() == [0.25, 1.0] and len(record) == 2
        assert len(record_of([])) == 0 and rows_of(record_of([])) == []

    @pytest.mark.parametrize("column", range(7))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_field_is_a_numeric_error(self, column, value):
        values = np.ones((3, 7))
        values[1, column] = value
        with pytest.raises(NumericError, match="finite"):
            Boxes(values, np.zeros(3, dtype=np.uint8), np.ones(3))

    def test_finite_fields_whose_sum_overflows_are_accepted(self):
        values = np.full((2, 7), 1e308)
        assert len(Boxes(values, np.zeros(2, dtype=np.uint8), np.ones(2))) == 2

    @pytest.mark.parametrize("column", [3, 4, 5])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_a_non_positive_dim_is_a_configuration_error(self, column, value):
        values = np.ones((3, 7))
        values[2, column] = value
        with pytest.raises(ConfigurationError, match="dims must be positive"):
            Boxes(values, np.zeros(3, dtype=np.uint8), np.ones(3))

    @pytest.mark.parametrize("score", [-0.01, 1.01, math.nan])
    def test_a_score_outside_zero_one_is_a_numeric_error(self, score):
        with pytest.raises(NumericError, match="scores"):
            Boxes(np.ones((2, 7)), np.zeros(2, dtype=np.uint8), np.array([0.5, score]))


UNIT_RECT = blockers_of(walls=[(0, 0, 2, 1)])


def hits_from(origin, ends, blockers):
    ends = np.asarray(ends, dtype=float)
    return rays_hit_blockers(np.asarray(origin, dtype=float), ends[:, 0], ends[:, 1], blockers)


class TestSegmentHits:
    def test_segment_through_rect(self):
        hit = hits_from([-1.0, 0.5], [[3.0, 0.5]], UNIT_RECT)[0]
        assert hit[0]

    def test_segment_misses_rect(self):
        hit = hits_from([-1.0, 5.0], [[3.0, 5.0]], UNIT_RECT)[0]
        assert not hit[0]

    def test_segment_ends_on_boundary_not_hit(self):
        # Ray cast exactly to a point on the rectangle edge does not count.
        hit = hits_from([-1.0, 0.5], [[0.0, 0.5]], UNIT_RECT)[0]
        assert not hit[0]

    def test_oriented_box_hit(self):
        box = make_box(5.0, 0.0, 0.0, w=2.0, l=4.0, yaw=math.pi / 2)
        blockers = blockers_of([box])
        assert hits_from([0.0, 0.0], [[10.0, 0.0]], blockers)[0, 0]
        assert not hits_from([0.0, 10.0], [[10.0, 10.0]], blockers)[0, 0]
