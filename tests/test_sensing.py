import math
from dataclasses import replace

import numpy as np
import pytest

from cotrack import sensing
from cotrack.errors import ConfigurationError, NumericError, OrderingError, ShapeMismatchError
from cotrack.experiment import ExperimentConfig, run_sweep
from cotrack.fusion import FusionKind, FusionMethod
from cotrack.geometry import Box3D
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
    static_returns,
)

SPEC = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=20, rows=10)


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
    corners = box.corners_bev()
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
        pc = sample_point_cloud(scn, 0.0, View.VEHICLE, cfg.noise, 3)
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
        pc = sample_point_cloud(scn, 0.0, View.VEHICLE, cfg.noise, 1)
        assert len(pc) == 0
        # Same agent seen from the roadside sensor across the wall direction.
        pc_inf = sample_point_cloud(scn, 0.0, View.INFRA, cfg.noise, 1)
        assert len(pc_inf) > 0

    def test_noiseless_points_lie_on_perimeter(self):
        cfg = single_agent_config(sigma_m=0.0, dropout_p=0.0, clutter_per_m2=0.0)
        scn = generate_scenario(cfg, 7)
        pc = sample_point_cloud(scn, 0.0, View.VEHICLE, cfg.noise, 7)
        assert len(pc) > 40
        _, box = scn.agent_boxes_at(0.0)[0]
        for pt in pc.points:
            assert perimeter_distance(box, pt[:2]) < 1e-9
            assert 0.0 <= pt[2] <= box.h

    def test_deterministic_for_fixed_seed(self):
        cfg = single_agent_config(sigma_m=0.1, dropout_p=0.1, clutter_per_m2=0.5)
        scn = generate_scenario(cfg, 5)
        a = sample_point_cloud(scn, 0.5, View.INFRA, cfg.noise, 11)
        b = sample_point_cloud(scn, 0.5, View.INFRA, cfg.noise, 11)
        assert np.array_equal(a.points, b.points)
        c = sample_point_cloud(scn, 0.5, View.INFRA, cfg.noise, 12)
        assert not np.array_equal(a.points, c.points)

    def test_cloud_in_sensor_frame(self):
        cfg = single_agent_config(sigma_m=0.0, clutter_per_m2=0.0)
        scn = generate_scenario(cfg, 2)
        pc = sample_point_cloud(scn, 0.0, View.INFRA, cfg.noise, 2)
        # Agent at world (20, 5); infra sensor at (50, 0): local x ~ -30.
        assert abs(np.mean(pc.points[:, 0]) + 30.0) < 3.0
        assert pc.frame == "infra"


class TestStaticReturns:
    def test_cache_stays_bounded_and_read_only_after_a_multi_seed_sweep(self):
        cfg = ExperimentConfig(scenario=ScenarioConfig(duration_s=1.0), seeds=(1, 2, 3),
                               latencies_ms=(100.0,),
                               fusions=(FusionMethod(FusionKind.VEHICLE_ONLY),
                                        FusionMethod(FusionKind.MIDDLE_STATIC)))
        reports, failures = run_sweep(cfg)
        assert not failures and len(reports) == 6
        assert len(sensing._static_cache) == 2
        assert {key[:2] for key in sensing._static_cache} == {(3, View.INFRA), (3, View.VEHICLE)}
        for returns in sensing._static_cache.values():
            grids = list(returns._grids.values())
            assert len(grids) == 1
            arrays = [a for a in (*returns.field, returns.points, *grids[0]) if a is not None]
            assert len(arrays) == 9
            for arr in arrays:
                assert not arr.flags.writeable

    def test_a_moving_ego_keeps_its_draw_and_its_clouds_hold_no_static_rows(self):
        cfg = ScenarioConfig(duration_s=1.0, ego_speed=5.0)
        scn = generate_scenario(cfg, 4)
        sensing._static_cache.clear()  # no pose seen before
        seen = []
        for t in (0.0, 0.1):
            assert sample_point_cloud(scn, t, View.VEHICLE, cfg.noise, 4).static_rows is None
            seen.append(sensing._static_cache[(4, View.VEHICLE, cfg.noise, cfg.vehicle_range_m)])
        a, b = seen
        assert a is not b and a.field is b.field and not b.reused
        assert not np.array_equal(a.points, b.points)

    def test_a_still_sensor_holds_its_static_rows_from_the_second_frame(self):
        cfg = ScenarioConfig(duration_s=1.0, noise=NoiseConfig(dropout_p=0.2))
        scn = generate_scenario(cfg, 5)
        sensing._static_cache.clear()  # no pose seen before
        first, pc = (sample_point_cloud(scn, t, View.INFRA, cfg.noise, 5) for t in (0.0, 0.5))
        assert first.static_rows is None and not first.points.flags.writeable
        rows = pc.static_rows
        assert rows.count == rows.kept.sum() and 0 < rows.count < len(pc)
        assert np.array_equal(pc.points[-rows.count:, :3], rows.returns.points[rows.kept, :3])
        assert not pc.points.flags.writeable
        copy = replace(pc, points=pc.points.copy())
        assert copy.static_rows is None
        grid = rasterize_bev(pc, cfg.infra_grid).values
        assert np.array_equal(grid.view(np.uint64),
                              rasterize_bev(copy, cfg.infra_grid).values.view(np.uint64))


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
