import math

import numpy as np
import pytest

from cotrack.channel import Channel, LatencyModel, MessageKind, encode_message
from cotrack.errors import ConfigurationError, ShapeMismatchError
from cotrack.fusion import (
    EgoInputs,
    FusionKind,
    FusionMethod,
    align_grid,
    cooperative_feature,
    fuse_early,
    fuse_late,
    fuse_middle,
)
from cotrack.geometry import Boxes, Category, Pose
from cotrack.sensing import FeatureGrid, GridSpec, PointCloud, rasterize_bev
from oracle_utils import Box3D, record_of, rows_of

SPEC = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=20, rows=16)


def grid(values, spec=SPEC, t=0.0, frame="infra"):
    return FeatureGrid(spec=spec, values=values, timestamp=t, frame=frame)


COMPRESSED = True
RAW = False


def send(ch, kind, content, t_send, compress=COMPRESSED):
    return ch.send(encode_message(kind, content, compress, t_send))


def one_hot(r, c, value=1.0, spec=SPEC):
    vals = np.zeros(spec.shape)
    vals[r, c, :] = value
    return vals


class TestAlignGrid:
    def test_identity_same_spec_unchanged(self):
        vals = np.random.default_rng(0).random(SPEC.shape)
        out = align_grid(grid(vals), Pose.identity(), SPEC)
        assert np.allclose(out.values, vals, atol=1e-9)
        assert out.frame == "vehicle"

    def test_one_cell_translation(self):
        out = align_grid(grid(one_hot(5, 7)), Pose(0.5, 0.0, 0.0, 0.0), SPEC)
        expected = one_hot(5, 8)
        assert np.array_equal(out.values, expected)

    def test_all_zero_any_pose(self):
        out = align_grid(grid(np.zeros(SPEC.shape)), Pose(3.2, -1.1, 0.0, 0.7), SPEC)
        assert not out.values.any()

    def test_quarter_turn_moves_mass_to_rotated_cell(self):
        # Source cell center (3.75, 1.25) under a +90 degree infra->ego
        # rotation lands at ego (-1.25, 3.75).
        dst = GridSpec(x0=-5.0, y0=0.0, cell_size=0.5, cols=20, rows=16)
        src_vals = one_hot(2, 7)  # center x=3.75, y=1.25
        out = align_grid(grid(src_vals), Pose(0.0, 0.0, 0.0, math.pi / 2), dst)
        r = int((3.75 - dst.y0) / 0.5)
        c = int((-1.25 - dst.x0) / 0.5)
        assert out.values[r, c, 0] == pytest.approx(1.0, abs=1e-9)
        assert out.values.sum() == pytest.approx(src_vals.sum(), abs=1e-6)

    def test_out_of_source_cells_zero(self):
        out = align_grid(grid(np.ones(SPEC.shape)), Pose(100.0, 0.0, 0.0, 0.0), SPEC)
        assert not out.values.any()

    def test_subcell_translation_bilinear_weights(self):
        out = align_grid(grid(one_hot(5, 7)), Pose(0.25, 0.0, 0.0, 0.0), SPEC)
        assert out.values[5, 7, 0] == pytest.approx(0.5)
        assert out.values[5, 8, 0] == pytest.approx(0.5)


class TestFuseEarly:
    def test_empty_infra_equals_ego_raster(self):
        pts = np.array([[1.2, 1.2, 1.0, 0.5], [3.4, 2.0, 0.5, 0.25]])
        ego = PointCloud(pts, "vehicle", 0.0)
        infra = PointCloud(np.zeros((0, 4)), "infra", 0.0)
        fused = fuse_early(ego, infra, Pose(5.0, 0.0, 0.0, 1.0), SPEC)
        assert np.array_equal(fused.values, rasterize_bev(ego, SPEC).values)

    def test_duplicate_cloud_doubles_density(self):
        pts = np.array([[1.2, 1.2, 1.0, 0.5]])
        ego = PointCloud(pts, "vehicle", 0.0)
        infra = PointCloud(pts.copy(), "infra", 0.0)
        fused = fuse_early(ego, infra, Pose.identity(), SPEC, density_cap=10.0)
        assert fused.values[2, 2, 0] == pytest.approx(0.2)  # two points

    def test_infra_points_transformed(self):
        ego = PointCloud(np.zeros((0, 4)), "vehicle", 0.0)
        infra = PointCloud(np.array([[1.0, 0.0, 0.5, 1.0]]), "infra", 0.0)
        fused = fuse_early(ego, infra, Pose(0.0, 0.0, 0.0, math.pi / 2), SPEC)
        # (1, 0) rotates to (0, 1)
        assert fused.values[2, 0, 0] > 0

    def test_infra_fills_ego_blind_spot(self):
        ego = PointCloud(np.array([[1.2, 1.2, 1.0, 0.5]]), "vehicle", 0.0)
        infra = PointCloud(np.array([[8.0, 6.0, 1.0, 0.5]]), "infra", 0.0)
        ego_only = rasterize_bev(ego, SPEC)
        fused = fuse_early(ego, infra, Pose.identity(), SPEC)
        gained = (fused.values[:, :, 0] > 0) & (ego_only.values[:, :, 0] == 0)
        assert gained.any()


class TestFuseMiddle:
    def test_zero_infra_max_keeps_ego(self):
        ego = grid(np.random.default_rng(1).random(SPEC.shape), frame="vehicle")
        inf = grid(np.zeros(SPEC.shape), frame="vehicle")
        assert np.array_equal(fuse_middle(ego, inf).values, ego.values)

    def test_max_idempotent_commutative_associative(self):
        a = grid(np.random.default_rng(2).random(SPEC.shape), frame="vehicle")
        b = grid(np.random.default_rng(3).random(SPEC.shape), frame="vehicle")
        c = grid(np.random.default_rng(4).random(SPEC.shape), frame="vehicle")
        assert np.array_equal(fuse_middle(a, a).values, a.values)
        ab = fuse_middle(a, b)
        ba = fuse_middle(b, a)
        assert np.array_equal(ab.values, ba.values)
        left = fuse_middle(ab, c).values
        right = fuse_middle(a, fuse_middle(b, c)).values
        assert np.array_equal(left, right)

    def test_spec_mismatch_rejected(self):
        other = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=10, rows=16)
        with pytest.raises(ShapeMismatchError):
            fuse_middle(grid(np.zeros(SPEC.shape)),
                        FeatureGrid(other, np.zeros(other.shape), 0.0, "vehicle"))


def dets(*xs, scores=None):
    """Cars at (x, 0, 0.75), each scored 0.5 unless ``scores`` says otherwise."""
    return record_of([Box3D(x=x, y=0.0, z=0.75, w=1.8, l=4.5, h=1.5) for x in xs],
                     [0.5] * len(xs) if scores is None else scores)


def same(a: Boxes, b: Boxes) -> bool:
    return rows_of(a) == rows_of(b) and a.score.tolist() == b.score.tolist()


class TestFuseLate:
    def test_one_side_empty_passthrough(self):
        both = dets(1.0, 5.0)
        assert same(fuse_late(both, record_of([]), 2.0), both)
        assert same(fuse_late(record_of([]), both, 2.0), both)

    def test_identical_singletons_merge(self):
        out = fuse_late(dets(1.0), dets(1.0), 2.0)
        assert len(out) == 1
        assert out.values[0, 0] == pytest.approx(1.0)
        assert out.score[0] == 0.5

    def test_far_apart_kept_separate(self):
        out = fuse_late(dets(0.0), dets(10.0), 2.0)
        assert len(out) == 2

    def test_zero_threshold_concatenates_distinct_centers(self):
        out = fuse_late(dets(0.0, 4.0), dets(1.0, 5.0), 0.0)
        assert out.values[:, 0].tolist() == [0.0, 4.0, 1.0, 5.0]

    def test_score_weighted_average_and_max_score(self):
        a = record_of([Box3D(0.0, 0.0, 0.75, 1.8, 4.5, 1.5, yaw=0.3)], [0.75])
        b = record_of([Box3D(2.0, 0.0, 0.75, 1.8, 4.5, 1.5, yaw=-0.2, category=Category.BUS)],
                      [0.25])
        out = fuse_late(a, b, 3.0)
        assert len(out) == 1
        assert out.values[0, 0] == pytest.approx(0.5)  # (0.75*0 + 0.25*2) / 1.0
        assert out.score[0] == 0.75
        assert out.values[0, 6] == 0.3  # higher score wins yaw
        assert rows_of(out)[0].category is Category.CAR  # and category

    def test_nonpositive_threshold_rejected(self):
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigurationError):
                FusionMethod(FusionKind.LATE, late_threshold_m=threshold)


def affine_grid_maker(spec):
    rng = np.random.default_rng(42)
    base = rng.uniform(0.5, 2.0, spec.shape)
    slope = rng.uniform(-0.4, 0.4, spec.shape)

    def at(t, frame="infra"):
        return FeatureGrid(spec=spec, values=base + slope * t, timestamp=t, frame=frame)

    return at


class TestCooperativeFeature:
    def make_ego(self, values=None):
        vals = np.zeros(SPEC.shape) if values is None else values
        return EgoInputs(
            cloud=PointCloud(np.zeros((0, 4)), "vehicle", 1.0),
            grid=grid(vals, t=1.0, frame="vehicle"),
            detections=dets(3.0),
        )

    def test_vehicle_only_ignores_channel(self):
        ch = Channel(latency=LatencyModel())
        send(ch, MessageKind.FEATURE, grid(np.ones(SPEC.shape)), 0.9)
        ego = self.make_ego()
        out = cooperative_feature(FusionMethod(FusionKind.VEHICLE_ONLY), ch, 1.0, ego,
                                  Pose.identity(), SPEC, COMPRESSED)
        assert out.grid is ego.grid
        assert out.detections == ego.detections
        assert not out.used_fallback

    def test_fallback_before_first_arrival(self):
        ch = Channel(latency=LatencyModel(500.0))
        send(ch, MessageKind.FEATURE, grid(np.ones(SPEC.shape)), 0.9)
        ego = self.make_ego()
        out = cooperative_feature(FusionMethod(FusionKind.MIDDLE_STATIC), ch, 1.0, ego,
                                  Pose.identity(), SPEC, COMPRESSED)
        assert out.used_fallback
        assert np.array_equal(out.grid.values, ego.grid.values)

    def test_unknown_kind_is_a_configuration_error(self):
        # Rejected when the method is built, so no run or sweep cell gets one.
        for kind in ("psychic", "late", None):
            with pytest.raises(ConfigurationError, match="unknown fusion kind"):
                FusionMethod(kind)

    def test_late_fallback_returns_ego_detections(self):
        ch = Channel(latency=LatencyModel(500.0))
        ego = self.make_ego()
        out = cooperative_feature(FusionMethod(FusionKind.LATE), ch, 1.0, ego, Pose.identity(),
                                  SPEC, COMPRESSED)
        assert out.used_fallback
        assert out.detections == ego.detections

    def test_flow_equals_static_at_zero_latency_bitwise(self):
        at = affine_grid_maker(SPEC)
        ego = self.make_ego(at(1.0).values * 0.5)
        static_ch = Channel(latency=LatencyModel())
        send(static_ch, MessageKind.FEATURE, at(1.0), 1.0)
        flow_ch = Channel(latency=LatencyModel())
        flow_vals = (at(1.0).values - at(0.9).values) / 0.1
        send(flow_ch, MessageKind.FEATURE_WITH_FLOW,
                     (at(1.0), grid(flow_vals, t=1.0)), 1.0)
        out_static = cooperative_feature(FusionMethod(FusionKind.MIDDLE_STATIC), static_ch,
                                         1.0, ego, Pose.identity(), SPEC, COMPRESSED)
        out_flow = cooperative_feature(FusionMethod(FusionKind.MIDDLE_FLOW), flow_ch,
                                       1.0, ego, Pose.identity(), SPEC, COMPRESSED)
        assert np.array_equal(out_static.grid.values, out_flow.grid.values)
        assert out_flow.tau_s == 0.0

    def test_flow_prediction_cancels_latency_on_affine_grids(self):
        at = affine_grid_maker(SPEC)
        ego = self.make_ego(np.zeros(SPEC.shape))
        # Stale capture at t=0.8 carrying its flow, arriving before t_v=1.0.
        ch = Channel(latency=LatencyModel(200.0))
        flow_vals = (at(0.8).values - at(0.7).values) / 0.1
        send(ch, MessageKind.FEATURE_WITH_FLOW, (at(0.8), grid(flow_vals, t=0.8)), 0.8,
             compress=RAW)
        out = cooperative_feature(FusionMethod(FusionKind.MIDDLE_FLOW), ch, 1.0, ego,
                                  Pose.identity(), SPEC, RAW)
        fresh = cooperative_feature(
            FusionMethod(FusionKind.MIDDLE_STATIC),
            _instant_channel(at(1.0)), 1.0, ego, Pose.identity(), SPEC, RAW,
        )
        assert out.tau_s == pytest.approx(0.2)
        np.testing.assert_allclose(out.grid.values, fresh.grid.values, atol=1e-6)

    def test_early_and_late_paths(self):
        ego = self.make_ego()
        ch = Channel(latency=LatencyModel())
        send(ch, MessageKind.RAW_POINTS, PointCloud(np.array([[2.0, 2.0, 1.0, 0.5]]), "infra", 1.0), 1.0)
        out = cooperative_feature(FusionMethod(FusionKind.EARLY), ch, 1.0, ego, Pose.identity(),
                                  SPEC, COMPRESSED)
        assert out.grid.values[:, :, 0].sum() > 0

        ch2 = Channel(latency=LatencyModel())
        send(ch2, MessageKind.DETECTIONS, dets(6.0), 1.0)
        out2 = cooperative_feature(FusionMethod(FusionKind.LATE), ch2, 1.0, ego, Pose.identity(),
                                   SPEC, COMPRESSED)
        assert len(out2.detections) == 2


def _instant_channel(g):
    ch = Channel(latency=LatencyModel())
    send(ch, MessageKind.FEATURE, g, g.timestamp, compress=RAW)
    return ch
