import math
from dataclasses import replace

import numpy as np
import pytest

from cotrack.channel import MessageKind, encode_message
from cotrack.errors import ConfigurationError, NumericError, OrderingError, ShapeMismatchError
from cotrack.fusion import fuse_early
from cotrack.geometry import compose, inverse
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import AgentPopulation, Lane, ScenarioConfig, generate_scenario
from cotrack.sensing import (
    FeatureGrid,
    GridSpec,
    NoiseConfig,
    PointCloud,
    View,
    extract_feature_flow,
    predict_feature,
    rasterize_bev,
    sample_point_cloud,
)
from oracle_utils import (Box3D, box_at, corners_bev, per_box_sample_point_cloud,
                          ufunc_at_rasterize_bev)

SPEC = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=20, rows=10)


def owned_bytes(arr):
    """Bytes an array keeps alive: those of the buffer that owns its data."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.nbytes


def make_grid(values, t=0.0, spec=SPEC):
    return FeatureGrid(spec=spec, values=values, timestamp=t, frame="infra")


def single_agent_config(**noise_kw):
    return ScenarioConfig(
        duration_s=2.0,
        ego_start=(0.0, 0.0),
        infra_position=(50.0, 0.0),
        agents=AgentPopulation(count=1, speed_range=(5.0, 5.0),
                               lanes=(Lane(5.0),), x_start_range=(20.0, 20.0)),
        noise=NoiseConfig(**noise_kw),
    )


def perimeter_distance(box: Box3D, pt):
    """2D distance from a point to the box outline."""
    corners = corners_bev(box)
    best = math.inf
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        ab = b - a
        t = np.clip(np.dot(pt - a, ab) / np.dot(ab, ab), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(a + t * ab - pt)))
    return best


class TestSamplePointCloud:
    def test_no_agents_no_clutter_is_empty(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            agents=AgentPopulation(count=0),
            noise=NoiseConfig(sigma_m=0.0, clutter_per_m2=0.0),
        )
        scn = generate_scenario(cfg, 3)
        pc = sample_point_cloud(scn, 0.0, View.VEHICLE)
        assert len(pc) == 0

    def test_fully_occluded_agent_has_no_points(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            ego_start=(0.0, 0.0),
            agents=AgentPopulation(count=1, speed_range=(0.0, 0.0),
                                   lanes=(Lane(0.0),), x_start_range=(30.0, 30.0)),
            occluders=((10.0, -5.0, 12.0, 5.0),),  # wall between ego and agent
            noise=NoiseConfig(sigma_m=0.0, clutter_per_m2=0.0),
        )
        scn = generate_scenario(cfg, 1)
        pc = sample_point_cloud(scn, 0.0, View.VEHICLE)
        assert len(pc) == 0
        # Same agent seen from the roadside sensor across the wall direction.
        pc_inf = sample_point_cloud(scn, 0.0, View.INFRA)
        assert len(pc_inf) > 0

    def test_noiseless_points_lie_on_perimeter(self):
        cfg = single_agent_config(sigma_m=0.0, dropout_p=0.0, clutter_per_m2=0.0)
        scn = generate_scenario(cfg, 7)
        pc = sample_point_cloud(scn, 0.0, View.VEHICLE)
        assert len(pc) > 40
        box = box_at(scn.agents[0], 0)
        for pt in pc.points:
            assert perimeter_distance(box, pt[:2]) < 1e-9
            assert 0.0 <= pt[2] <= box.h

    def test_deterministic_for_fixed_seed(self):
        cfg = single_agent_config(sigma_m=0.1, dropout_p=0.1, clutter_per_m2=0.5)
        a = sample_point_cloud(generate_scenario(cfg, 11), 0.5, View.INFRA)
        b = sample_point_cloud(generate_scenario(cfg, 11), 0.5, View.INFRA)
        assert np.array_equal(a.points, b.points)
        c = sample_point_cloud(generate_scenario(cfg, 12), 0.5, View.INFRA)
        assert not np.array_equal(a.points, c.points)

    def test_cloud_in_sensor_frame(self):
        cfg = single_agent_config(sigma_m=0.0, clutter_per_m2=0.0)
        scn = generate_scenario(cfg, 2)
        pc = sample_point_cloud(scn, 0.0, View.INFRA)
        # Agent at world (20, 5); infra sensor at (50, 0): local x ~ -30.
        assert abs(np.mean(pc.points[:, 0]) + 30.0) < 3.0
        assert pc.frame == "infra"


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_matches_ufunc_at(cloud, spec):
    assert np.array_equal(bits(rasterize_bev(cloud, spec).values),
                          bits(ufunc_at_rasterize_bev(cloud, spec).values))


class TestScenarioClutter:
    def test_clutter_is_made_once_per_scenario_and_read_only(self):
        scn = generate_scenario(ScenarioConfig(duration_s=1.0), 3)
        for view in View:
            clutter = scn.clutter[view]
            arrays = [a for a in (*clutter.field, clutter.xyz, *clutter.grid[1:]) if a is not None]
            assert len(arrays) == 8 and len(clutter.xyz) > 0
            for arr in arrays:
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                clutter.xyz[0, 0] = 1.0

    def test_carried_clouds_share_the_scenarios_read_only_xyz(self):
        scn = generate_scenario(ScenarioConfig(duration_s=1.0), 3)
        clutter = scn.clutter[View.INFRA]
        assert clutter.xyz.shape == (len(clutter.xyz), 3) and not clutter.xyz.flags.writeable
        assert not hasattr(clutter, "points")
        for t in (0.0, 0.5):
            pc = sample_point_cloud(scn, t, View.INFRA)
            assert pc.clutter is clutter and pc.clutter.xyz is clutter.xyz
            assert not any(np.shares_memory(clutter.xyz, a) for a in (pc.own, pc.intensity))

    @pytest.mark.parametrize("scenario", [ScenarioConfig(), hidden_lane_scenario()],
                             ids=["default", "hidden_lane"])
    def test_a_carried_cloud_holds_its_own_rows_and_the_clutter_intensities(self, scenario):
        scn = generate_scenario(replace(scenario, duration_s=0.5), 2)
        for view in View:
            clutter = scn.clutter[view]
            for t in scn.frame_times():
                pc = sample_point_cloud(scn, t, view)
                want = per_box_sample_point_cloud(scn, t, view)
                assert pc.clutter is clutter is want.clutter
                held = sum(owned_bytes(v) for v in vars(pc).values()
                           if isinstance(v, np.ndarray))
                assert held == 32 * len(pc.own) + 8 * len(clutter.xyz)
                assert len(pc) == len(pc.own) + len(clutter.xyz)
                # The oracle's rows, laid out here without PointCloud.points.
                rows = np.vstack([want.own, np.column_stack([clutter.xyz, want.intensity])])
                points = pc.points
                assert not points.flags.writeable
                assert points.shape == rows.shape and points.tobytes() == rows.tobytes()
                assert points is not pc.points  # built on each read, never held

    @pytest.mark.parametrize("scenario", [ScenarioConfig(), hidden_lane_scenario()],
                             ids=["default", "hidden_lane"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_cloud_of_a_benchmark_scene_carries_its_sorted_clutter(self, scenario, seed):
        """The benchmark workloads run on these scenes: a change that sends
        them to the whole-cloud sort fails here, not only in the timings."""
        scn = generate_scenario(scenario, seed)
        grids = {View.VEHICLE: scenario.vehicle_grid, View.INFRA: scenario.infra_grid}
        for view in View:
            clutter = scn.clutter[view]
            assert clutter.grid is not None and clutter.grid.spec == grids[view]
            for t in scn.frame_times():
                pc = sample_point_cloud(scn, t, view)
                assert pc.clutter is clutter
                assert np.array_equal(bits(pc.points[-len(clutter.xyz):, :3]), bits(clutter.xyz))

    def test_a_moving_ego_carries_its_clutter_only_at_frame_zero(self):
        cfg = ScenarioConfig(duration_s=1.0, ego_speed=5.0)
        scn = generate_scenario(cfg, 4)
        n = len(scn.clutter[View.VEHICLE].xyz)
        first, later = (sample_point_cloud(scn, t, View.VEHICLE) for t in (0.0, 0.1))
        assert first.clutter is scn.clutter[View.VEHICLE] and later.clutter is None
        # The draw is kept: it sits still in the sensor frame but for rounding,
        # as its points are moved to the new pose and back.
        assert not np.array_equal(first.points[-n:, :3], later.points[-n:, :3])
        assert np.allclose(first.points[-n:, :3], later.points[-n:, :3], rtol=0.0, atol=1e-9)
        assert_matches_ufunc_at(later, cfg.vehicle_grid)

    def test_dropout_clouds_carry_no_clutter(self):
        cfg = ScenarioConfig(duration_s=1.0, noise=NoiseConfig(dropout_p=0.2))
        scn = generate_scenario(cfg, 5)
        assert scn.clutter[View.INFRA].grid is not None
        for t in (0.0, 0.5):
            pc = sample_point_cloud(scn, t, View.INFRA)
            assert pc.clutter is None and not pc.points.flags.writeable
            assert 0 < len(pc) < len(scn.clutter[View.INFRA].xyz)
            assert_matches_ufunc_at(pc, cfg.infra_grid)

    def test_noiseless_clutter_ties_and_has_no_cached_sort(self):
        cfg = ScenarioConfig(duration_s=1.0, noise=NoiseConfig(sigma_m=0.0))
        scn = generate_scenario(cfg, 6)
        for view, spec in ((View.VEHICLE, cfg.vehicle_grid), (View.INFRA, cfg.infra_grid)):
            assert scn.clutter[view].grid is None
            pc = sample_point_cloud(scn, 0.5, view)
            assert pc.clutter is scn.clutter[view]
            assert_matches_ufunc_at(pc, spec)

    def test_a_copy_of_a_carrying_cloud_carries_nothing_and_rasterizes_the_same(self):
        cfg = ScenarioConfig(duration_s=1.0)
        pc = sample_point_cloud(generate_scenario(cfg, 5), 0.5, View.INFRA)
        assert pc.clutter is not None and not pc.points.flags.writeable
        copy = PointCloud(pc.points.copy(), pc.frame, pc.timestamp)
        assert copy.clutter is None
        assert np.array_equal(bits(rasterize_bev(pc, cfg.infra_grid).values),
                              bits(rasterize_bev(copy, cfg.infra_grid).values))
        assert_matches_ufunc_at(pc, cfg.infra_grid)

    @pytest.mark.parametrize("scenario", [ScenarioConfig(), hidden_lane_scenario()],
                             ids=["default", "hidden_lane"])
    def test_carried_and_whole_clouds_rasterize_encode_and_fuse_alike(self, scenario):
        scn = generate_scenario(replace(scenario, duration_s=0.3), 4)
        infra_to_ego = compose(inverse(scn.ego_pose(0.2)), scn.infra_pose)
        for t in scn.frame_times():
            carried = {view: sample_point_cloud(scn, t, view) for view in View}
            whole = {view: PointCloud(pc.points.copy(), pc.frame, pc.timestamp)
                     for view, pc in carried.items()}
            assert all(carried[v].clutter is scn.clutter[v] and whole[v].clutter is None
                       for v in View)
            for view, spec in ((View.VEHICLE, scenario.vehicle_grid),
                               (View.INFRA, scenario.infra_grid)):
                assert (bits(rasterize_bev(carried[view], spec).values).tobytes()
                        == bits(rasterize_bev(whole[view], spec).values).tobytes())
            for compress in (True, False):
                a, b = (encode_message(MessageKind.RAW_POINTS, c[View.INFRA], compress, t)
                        for c in (carried, whole))
                assert (a.content, a.raw_bytes, a.payload_bytes) == (b.content, b.raw_bytes,
                                                                     b.payload_bytes)
            a, b = (fuse_early(c[View.VEHICLE], c[View.INFRA], infra_to_ego,
                               scenario.vehicle_grid, scenario.density_cap)
                    for c in (carried, whole))
            assert bits(a.values).tobytes() == bits(b.values).tobytes()


class TestRasterize:
    def test_empty_cloud_all_zero(self):
        pc = PointCloud(np.zeros((0, 4)), "vehicle", 0.0)
        grid = rasterize_bev(pc, SPEC)
        assert not grid.values.any()

    def test_single_point_single_cell(self):
        pc = PointCloud(np.array([[1.25, 0.75, 1.0, 0.5]]), "vehicle", 0.0)
        grid = rasterize_bev(pc, SPEC)
        nz = np.nonzero(grid.values[:, :, 0])
        assert len(nz[0]) == 1
        assert (nz[0][0], nz[1][0]) == (1, 2)

    def test_density_and_height_formula(self):
        heights = [0.5, 0.75, 1.0, 1.25, 1.5]
        pts = np.array([[0.2, 0.2, h, 0.4] for h in heights])
        grid = rasterize_bev(PointCloud(pts, "vehicle", 0.0), SPEC, density_cap=10.0)
        assert grid.values[0, 0, 0] == pytest.approx(0.5)
        assert grid.values[0, 0, 1] == pytest.approx(1.5)
        assert grid.values[0, 0, 2] == pytest.approx(0.4)

    def test_density_clipped_at_one(self):
        pts = np.tile(np.array([[0.2, 0.2, 1.0, 0.5]]), (25, 1))
        grid = rasterize_bev(PointCloud(pts, "vehicle", 0.0), SPEC, density_cap=10.0)
        assert grid.values[0, 0, 0] == 1.0

    def test_points_outside_grid_ignored(self):
        pts = np.array([[-1.0, 0.2, 1.0, 0.5], [100.0, 0.2, 1.0, 0.5]])
        grid = rasterize_bev(PointCloud(pts, "vehicle", 0.0), SPEC)
        assert not grid.values.any()

    def test_exact_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([
            rng.uniform(0, 10, 500),
            rng.uniform(0, 5, 500),
            rng.uniform(0, 2, 500),
            rng.random(500),
        ])
        g1 = rasterize_bev(PointCloud(pts, "vehicle", 0.0), SPEC)
        g2 = rasterize_bev(PointCloud(pts[rng.permutation(500)], "vehicle", 0.0), SPEC)
        assert np.array_equal(g1.values, g2.values)


class TestNonFinite:
    def test_grid_of_nan_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="finite"):
            FeatureGrid(GridSpec(0, 0, 1, 2, 2), np.full((2, 2, 3), np.nan), 0.0, "x")

    def test_cloud_with_inf_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="non-finite"):
            PointCloud(np.array([[1.0, 2.0, np.inf, 0.5]]), "vehicle", 0.0)


class TestPointCloudShape:
    @pytest.mark.parametrize("shape", [(4, 3), (3, 3), (12,), (0,), (2, 4, 1)])
    def test_anything_but_n_by_4_is_a_shape_mismatch(self, shape):
        with pytest.raises(ShapeMismatchError, match=r"\(N, 4\)"):
            PointCloud(np.arange(float(np.prod(shape))).reshape(shape), "vehicle", 0.0)

    def test_carried_intensities_must_match_the_clutter_rows(self):
        pc = sample_point_cloud(generate_scenario(ScenarioConfig(duration_s=0.1), 1), 0.0,
                                View.INFRA)
        for intensity in (pc.intensity[:-1], np.append(pc.intensity, 0.5),
                          pc.intensity[:, None], None):
            with pytest.raises(ShapeMismatchError, match="clutter intensities"):
                PointCloud(pc.own, pc.frame, pc.timestamp, pc.clutter, intensity)
        with pytest.raises(ShapeMismatchError, match="clutter intensities"):
            PointCloud(pc.own, pc.frame, pc.timestamp, None, pc.intensity)

    def test_n_by_4_is_kept_as_given(self):
        pts = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(PointCloud(pts, "vehicle", 0.0).points, pts)
        assert PointCloud(np.zeros((0, 4)), "vehicle", 0.0).points.shape == (0, 4)


class TestFeatureFlow:
    def test_identical_grids_zero_flow(self):
        g = make_grid(np.ones(SPEC.shape), t=1.0)
        flow = extract_feature_flow(make_grid(np.ones(SPEC.shape), t=0.9), g)
        assert not flow.values.any()
        # A flow is a grid of rates with its current grid's spec, time and frame.
        assert (flow.spec, flow.timestamp, flow.frame) == (g.spec, g.timestamp, g.frame)

    def test_unit_step_over_tenth_second(self):
        a = make_grid(np.zeros(SPEC.shape), t=0.0)
        b_vals = np.zeros(SPEC.shape)
        b_vals[3, 4, 0] = 1.0
        b = make_grid(b_vals, t=0.1)
        flow = extract_feature_flow(a, b)
        assert flow.values[3, 4, 0] == pytest.approx(10.0)

    def test_elementwise_difference_oracle(self):
        rng = np.random.default_rng(4)
        va, vb = rng.random(SPEC.shape), rng.random(SPEC.shape)
        flow = extract_feature_flow(make_grid(va, t=2.0), make_grid(vb, t=2.5))
        assert np.allclose(flow.values, (vb - va) / 0.5, atol=1e-12)

    def test_spec_mismatch_rejected(self):
        other = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=21, rows=10)
        with pytest.raises(ShapeMismatchError):
            extract_feature_flow(
                make_grid(np.zeros(SPEC.shape), t=0.0),
                FeatureGrid(other, np.zeros(other.shape), 0.1, "infra"),
            )

    def test_non_increasing_time_rejected(self):
        with pytest.raises(OrderingError):
            extract_feature_flow(
                make_grid(np.zeros(SPEC.shape), t=1.0),
                make_grid(np.zeros(SPEC.shape), t=1.0),
            )


class TestPredictFeature:
    def test_zero_horizon_is_identity(self):
        rng = np.random.default_rng(1)
        f0 = make_grid(rng.random(SPEC.shape), t=1.0)
        f1 = make_grid(rng.standard_normal(SPEC.shape), t=1.0)
        out = predict_feature(f0, f1, 0.0)
        assert np.array_equal(out.values, f0.values)
        assert out.timestamp == f0.timestamp

    def test_zero_flow_any_horizon(self):
        f0 = make_grid(np.full(SPEC.shape, 0.7), t=1.0)
        f1 = make_grid(np.zeros(SPEC.shape), t=1.0)
        assert np.array_equal(predict_feature(f0, f1, 0.8).values, f0.values)

    def test_linear_arithmetic(self):
        vals = np.zeros(SPEC.shape)
        vals[2, 2, 0] = 1.0
        flow_vals = np.zeros(SPEC.shape)
        flow_vals[2, 2, 0] = 0.5
        out = predict_feature(make_grid(vals, t=0.0), make_grid(flow_vals, t=0.0), 0.2)
        assert out.values[2, 2, 0] == pytest.approx(1.1)
        assert out.timestamp == pytest.approx(0.2)

    def test_density_clamped_nonnegative_others_not(self):
        vals = np.zeros(SPEC.shape)
        flow_vals = np.full(SPEC.shape, -5.0)
        out = predict_feature(make_grid(vals, t=0.0), make_grid(flow_vals, t=0.0), 1.0)
        assert (out.values[:, :, 0] == 0.0).all()
        assert (out.values[:, :, 1] == -5.0).all()

    def test_flow_of_current_frame_roundtrip_exact(self):
        rng = np.random.default_rng(6)
        prev = make_grid(rng.random(SPEC.shape), t=0.9)
        cur = make_grid(rng.random(SPEC.shape), t=1.0)
        flow = extract_feature_flow(prev, cur)
        assert np.array_equal(predict_feature(cur, flow, 0.0).values, cur.values)

    def test_affine_sequence_reconstructed_exactly(self):
        # Cells affine in time are the regime the linear model nails.
        rng = np.random.default_rng(9)
        base = rng.uniform(1.0, 3.0, SPEC.shape)
        slope = rng.uniform(-0.5, 0.5, SPEC.shape)

        def grid_at(t):
            return make_grid(base + slope * t, t=t)

        flow = extract_feature_flow(grid_at(0.9), grid_at(1.0))
        for tau in (0.1, 0.2, 0.3, 0.5):
            predicted = predict_feature(grid_at(1.0), flow, tau)
            np.testing.assert_allclose(predicted.values, grid_at(1.0 + tau).values, atol=1e-9)

    def test_negative_horizon_rejected(self):
        f0 = make_grid(np.zeros(SPEC.shape))
        with pytest.raises(ConfigurationError):
            predict_feature(f0, make_grid(np.zeros(SPEC.shape)), -0.1)
