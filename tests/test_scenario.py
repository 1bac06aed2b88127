import math
from dataclasses import replace

import numpy as np
import pytest

from cotrack.errors import AlignmentError, ConfigurationError
from cotrack.geometry import Category, Pose, Region, inverse
from cotrack.scenario import (
    MAX_CLUTTER_PER_VIEW,
    MAX_FRAME_INTERVALS,
    MAX_PTS_PER_M,
    AgentPopulation,
    Lane,
    Provenance,
    ScenarioConfig,
    TrackedObject,
    cooperative_ground_truth,
    generate_scenario,
    ground_truth_at,
    objects_to_frame,
)
from cotrack.sensing import MAX_GRID_CELLS, GridSpec, NoiseConfig, View


def one_agent_config(speed=10.0, lane_y=0.0, x0=0.0, duration=3.0):
    return ScenarioConfig(
        duration_s=duration,
        ego_start=(0.0, 0.0),
        agents=AgentPopulation(count=1, speed_range=(speed, speed),
                               lanes=(Lane(lane_y),), x_start_range=(x0, x0)),
        noise=NoiseConfig(sigma_m=0.0, clutter_per_m2=0.0),
    )


class TestGenerateScenario:
    def test_deterministic_for_fixed_seed(self):
        cfg = ScenarioConfig(duration_s=4.0)
        a = generate_scenario(cfg, seed=1)
        b = generate_scenario(cfg, seed=1)
        assert len(a.agents) == len(b.agents)
        for agent_a, agent_b in zip(a.agents, b.agents):
            assert agent_a.waypoints.tobytes() == agent_b.waypoints.tobytes()
        c = generate_scenario(cfg, seed=2)
        assert any(
            x.waypoints.tobytes() != y.waypoints.tobytes() for x, y in zip(a.agents, c.agents)
        )

    def test_zero_agents_empty_ground_truth(self):
        cfg = ScenarioConfig(duration_s=1.0, agents=AgentPopulation(count=0))
        scn = generate_scenario(cfg, 1)
        for t in scn.frame_times():
            assert ground_truth_at(scn, t, View.VEHICLE) == []
            assert ground_truth_at(scn, t, View.INFRA) == []

    def test_constant_velocity_kinematics(self):
        scn = generate_scenario(one_agent_config(speed=10.0), 1)
        agent = scn.agents[0]
        t, x, y, yaw, speed = agent.waypoints[20]  # t = 2.0 s
        assert t == pytest.approx(2.0)
        assert x == pytest.approx(20.0)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert speed == pytest.approx(10.0)

    def test_turn_segment_changes_heading(self):
        cfg = ScenarioConfig(
            duration_s=10.0,
            agents=AgentPopulation(count=1, speed_range=(5.0, 5.0), lanes=(Lane(0.0),),
                                   x_start_range=(0.0, 0.0), turn_fraction=1.0,
                                   turn_rate=0.3),
        )
        scn = generate_scenario(cfg, 4)
        yaws = scn.agents[0].waypoints[:, 3]
        assert abs(yaws[-1] - yaws[0]) > 1.0

    def test_frame_grid(self):
        scn = generate_scenario(ScenarioConfig(duration_s=1.5), 1)
        times = scn.frame_times()
        assert len(times) == 16
        assert times[-1] == pytest.approx(1.5)
        with pytest.raises(ValueError):
            scn.frame_index(0.123)
        with pytest.raises(ValueError):
            scn.frame_index(99.0)

    def test_a_time_off_the_frame_grid_is_an_alignment_error(self):
        scn = generate_scenario(ScenarioConfig(duration_s=1.0), 1)
        with pytest.raises(AlignmentError, match="frame grid"):
            scn.frame_index(0.05)

    @pytest.mark.parametrize("t", [-0.1, 1.1, 5.0])
    def test_a_time_outside_the_duration_is_an_alignment_error(self, t):
        scn = generate_scenario(ScenarioConfig(duration_s=1.0), 1)
        with pytest.raises(AlignmentError, match="outside scenario duration"):
            scn.frame_index(t)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            AgentPopulation(count=-1)
        with pytest.raises(ConfigurationError):
            AgentPopulation(lanes=())
        with pytest.raises(ConfigurationError):
            generate_scenario(ScenarioConfig(), seed=-1)

    @pytest.mark.parametrize("key", ["density_cap", "surface_pts_per_m"])
    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_nonpositive_point_densities_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"{key} must be positive"):
            ScenarioConfig(**{key: value})

    def test_sizes_past_their_caps_rejected(self):
        """Each of these once loaded and then failed its cell with a MemoryError."""
        with pytest.raises(ConfigurationError, match="surface_pts_per_m must be at most"):
            ScenarioConfig(surface_pts_per_m=1e12)
        with pytest.raises(ConfigurationError, match="clutter points"):
            ScenarioConfig(noise=NoiseConfig(clutter_per_m2=1e12))
        with pytest.raises(ConfigurationError, match="cells"):
            GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=10**8, rows=10**8)
        for duration in (1e300, float(MAX_FRAME_INTERVALS)):
            with pytest.raises(ConfigurationError, match="frame_rate_hz must be at most"):
                ScenarioConfig(duration_s=duration)

    def test_sizes_at_their_caps_load(self):
        cfg = ScenarioConfig(surface_pts_per_m=MAX_PTS_PER_M,
                             agents=AgentPopulation(categories=tuple(Category)))
        outlines = generate_scenario(replace(cfg, duration_s=0.1), 1).geometry.outlines
        assert max(outlines.size) == 27_000  # a bus's
        with pytest.raises(ConfigurationError):
            ScenarioConfig(surface_pts_per_m=MAX_PTS_PER_M + 0.5)
        # The longer of the two sensor ranges sets the clutter a sensor expects.
        disc = math.pi * 110.0 * 110.0
        ScenarioConfig(noise=NoiseConfig(clutter_per_m2=0.999 * MAX_CLUTTER_PER_VIEW / disc))
        with pytest.raises(ConfigurationError):
            ScenarioConfig(infra_range_m=111.0,
                           noise=NoiseConfig(clutter_per_m2=0.999 * MAX_CLUTTER_PER_VIEW / disc))
        GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=1000, rows=MAX_GRID_CELLS // 1000)
        with pytest.raises(ConfigurationError):
            GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=1001, rows=MAX_GRID_CELLS // 1000)
        cfg = ScenarioConfig(duration_s=MAX_FRAME_INTERVALS / 10)
        assert cfg.duration_s * cfg.frame_rate_hz == MAX_FRAME_INTERVALS
        with pytest.raises(ConfigurationError):
            ScenarioConfig(duration_s=MAX_FRAME_INTERVALS / 10 + 0.01)

    def test_lane_slots_keep_agents_apart(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            agents=AgentPopulation(count=4, speed_range=(5.0, 5.0), lanes=(Lane(0.0),),
                                   x_start_range=(0.0, 5.0), lane_slot_spacing_m=30.0),
        )
        scn = generate_scenario(cfg, 2)
        xs = sorted(a.waypoints[0][1] for a in scn.agents)
        gaps = np.diff(xs)
        assert (gaps > 20.0).all()


class TestGroundTruth:
    def test_occluded_from_vehicle_visible_to_infra(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            ego_start=(0.0, 0.0),
            infra_position=(60.0, 0.0),
            agents=AgentPopulation(count=1, speed_range=(0.0, 0.0), lanes=(Lane(0.0),),
                                   x_start_range=(30.0, 30.0)),
            occluders=((10.0, -3.0, 12.0, 3.0),),
            noise=NoiseConfig(sigma_m=0.0, clutter_per_m2=0.0),
        )
        scn = generate_scenario(cfg, 1)
        assert ground_truth_at(scn, 0.0, View.VEHICLE) == []
        infra = ground_truth_at(scn, 0.0, View.INFRA)
        assert [o.track_id for o in infra] == [1]
        assert infra[0].provenance is Provenance.INFRA_SIDE

    def test_both_views_equal_without_occlusion(self):
        cfg = ScenarioConfig(
            duration_s=2.0,
            vehicle_range_m=500.0,
            infra_range_m=500.0,
            agents=AgentPopulation(count=3, speed_range=(3.0, 6.0),
                                   lanes=(Lane(-6.0), Lane(0.0), Lane(6.0)),
                                   x_start_range=(10.0, 30.0)),
            noise=NoiseConfig(sigma_m=0.0, clutter_per_m2=0.0),
        )
        scn = generate_scenario(cfg, 3)
        for t in scn.frame_times():
            gt_v = ground_truth_at(scn, t, View.VEHICLE)
            gt_i = ground_truth_at(scn, t, View.INFRA)
            assert [o.track_id for o in gt_v] == [o.track_id for o in gt_i] == [1, 2, 3]
            for a, b in zip(gt_v, gt_i):
                assert a.box == b.box

    def test_out_of_range_sensor_sees_nothing(self):
        cfg = one_agent_config(x0=80.0)
        cfg = ScenarioConfig(**{**cfg.__dict__, "vehicle_range_m": 50.0})
        scn = generate_scenario(cfg, 1)
        assert ground_truth_at(scn, 0.0, View.VEHICLE) == []

    def test_track_ids_are_agent_ids(self):
        scn = generate_scenario(ScenarioConfig(duration_s=1.0), 1)
        gt = ground_truth_at(scn, 0.0, View.INFRA)
        assert all(o.track_id in {a.id for a in scn.agents} for o in gt)


def obj(track_id, x, y, z=0.0, t=0.0, prov=Provenance.VEHICLE_SIDE):
    from cotrack.geometry import Box3D

    return TrackedObject(
        box=Box3D(x=x, y=y, z=z, w=2.0, l=4.0, h=1.5), track_id=track_id,
        timestamp=t, provenance=prov,
    )


class TestCooperativeGroundTruth:
    REGION = Region(0.0, -40.0, 100.0, 40.0)

    def test_idempotent_union(self):
        a = obj(1, 10.0, 0.0)
        out = cooperative_ground_truth([a], [obj(1, 10.0, 0.0, prov=Provenance.INFRA_SIDE)], self.REGION)
        assert len(out) == 1
        assert out[0].provenance is Provenance.VEHICLE_SIDE  # vehicle side wins

    def test_disjoint_union(self):
        out = cooperative_ground_truth([obj(1, 10.0, 0.0)], [obj(2, 20.0, 5.0)], self.REGION)
        assert [o.track_id for o in out] == [1, 2]

    def test_region_filter(self):
        out = cooperative_ground_truth([obj(1, 10.0, 0.0)], [obj(3, 200.0, 0.0)], self.REGION)
        assert [o.track_id for o in out] == [1]

    def test_superset_of_each_filtered_view_and_unique_ids(self):
        # Shared ids denote the same agent, so both views carry the same box.
        rng = np.random.default_rng(8)
        for _ in range(50):
            world = {i: (rng.uniform(-20, 120), rng.uniform(-50, 50)) for i in range(10)}
            seen_v = rng.choice(10, size=5, replace=False)
            seen_i = rng.choice(10, size=5, replace=False)
            gt_v = [obj(int(i), *world[int(i)]) for i in seen_v]
            gt_i = [obj(int(i), *world[int(i)], prov=Provenance.INFRA_SIDE) for i in seen_i]
            out = cooperative_ground_truth(gt_v, gt_i, self.REGION)
            ids = [o.track_id for o in out]
            assert len(set(ids)) == len(ids)
            for side in (gt_v, gt_i):
                for o in side:
                    if self.REGION.contains(o.box.x, o.box.y):
                        assert o.track_id in ids


class TestObjectsToFrame:
    def test_world_to_ego_roundtrip(self):
        pose = Pose(5.0, -3.0, 0.0, 0.7)
        objs = [obj(1, 10.0, 2.0, 0.75)]
        back = objects_to_frame(objects_to_frame(objs, pose), inverse(pose))
        assert back[0].box.x == pytest.approx(10.0)
        assert back[0].box.y == pytest.approx(2.0)
        assert back[0].track_id == 1
