import math
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from cotrack.errors import AlignmentError, ConfigurationError
from cotrack.geometry import CATEGORY_ORDER, Category, Pose, Region, inverse
from cotrack import scenario
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import (
    CATEGORY_DIMS,
    MAX_AGENTS,
    MAX_CLUTTER_PER_VIEW,
    MAX_FRAME_INTERVALS,
    MAX_GEOMETRY_BYTES,
    MAX_OCCLUDERS,
    MAX_PTS_PER_M,
    AgentPopulation,
    Lane,
    Provenance,
    ScenarioConfig,
    generate_scenario,
    geometry_table_bytes,
    ground_truth_at,
)
from cotrack.sensing import MAX_GRID_CELLS, GridSpec, NoiseConfig, View
from oracle_utils import (Box3D, TrackedObject, cooperative_ground_truth, objects_to_frame,
                          rows_of)


def one_agent_config(speed=10.0, lane_y=0.0, x0=0.0, duration=3.0):
    return ScenarioConfig(
        duration_s=duration,
        ego_start=(0.0, 0.0),
        agents=AgentPopulation(count=1, speed_range=(speed, speed),
                               lanes=(Lane(lane_y),), x_start_range=(x0, x0)),
        noise=NoiseConfig(sigma_m=0.0, clutter_per_m2=0.0),
    )


def held_bytes(obj, seen) -> int:
    """Bytes of the numpy buffers reachable from ``obj`` through dataclass
    fields, tuples, lists and dicts, each buffer counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return held_bytes(obj.base, seen) if isinstance(obj.base, np.ndarray) else obj.nbytes
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    return sum(held_bytes(x, seen) for x in obj) if isinstance(obj, (tuple, list)) else 0


class TestGenerateScenario:
    def test_deterministic_for_fixed_seed(self):
        cfg = ScenarioConfig(duration_s=4.0)
        a, b, c = (generate_scenario(cfg, seed).geometry for seed in (1, 1, 2))
        assert a.centres.tobytes() == b.centres.tobytes() and a.yaws.tobytes() == b.yaws.tobytes()
        assert a.centres.tobytes() != c.centres.tobytes()

    @pytest.mark.parametrize("count", [0, 8])
    def test_beside_its_tables_a_scenario_holds_the_egos_track_alone(self, count):
        """Each agent's track is kept once, in ``geometry``: what a scenario
        holds beside ``geometry`` and ``clutter`` grows by at most 24 bytes
        (the ego's x, y and yaw) a frame, whatever the agent count."""

        def held(duration):
            cfg = ScenarioConfig(duration_s=duration, agents=AgentPopulation(count=count))
            s = generate_scenario(cfg, 1)
            rest = [getattr(s, f.name) for f in fields(s) if f.name not in ("geometry", "clutter")]
            return held_bytes(rest, set())

        assert held(3.0) - held(1.0) <= 24 * 20

    def test_boxes_and_ids_follow_the_category_cycle(self):
        cats = (Category.BUS, Category.CAR, Category.TRUCK)
        cfg = ScenarioConfig(duration_s=1.0, agents=AgentPopulation(count=7, categories=cats))
        geo = generate_scenario(cfg, 1).geometry
        shapes = geo.shapes
        assert geo.ids.tolist() == [1, 2, 3, 4, 5, 6, 7]
        for a in range(7):
            w, l, h = CATEGORY_DIMS[cats[a % 3]]
            assert shapes.values[a].tolist() == [0.0, 0.0, 0.5 * h, w, l, h, 0.0]
            assert CATEGORY_ORDER[shapes.category[a]] is cats[a % 3]
        assert shapes.score.tolist() == [1.0] * 7

    def test_zero_agents_empty_ground_truth(self):
        cfg = ScenarioConfig(duration_s=1.0, agents=AgentPopulation(count=0))
        scn = generate_scenario(cfg, 1)
        for t in scn.frame_times():
            for view in View:
                ids, boxes = ground_truth_at(scn, t, view)
                assert ids.shape == (0,) and boxes.values.shape == (0, 7)

    def test_constant_velocity_kinematics(self):
        scn = generate_scenario(one_agent_config(speed=10.0), 1)
        track = scn.geometry.centres[:, 0]
        x, y = track[20]
        assert scn.frame_times()[20] == pytest.approx(2.0)
        assert x == pytest.approx(20.0)
        assert y == pytest.approx(0.0, abs=1e-12)
        steps = np.hypot(*np.diff(track, axis=0).T) * scn.frame_rate
        assert steps == pytest.approx(np.full(len(steps), 10.0))

    def test_turn_segment_changes_heading(self):
        cfg = ScenarioConfig(
            duration_s=10.0,
            agents=AgentPopulation(count=1, speed_range=(5.0, 5.0), lanes=(Lane(0.0),),
                                   x_start_range=(0.0, 0.0), turn_fraction=1.0,
                                   turn_rate=0.3),
        )
        scn = generate_scenario(cfg, 4)
        yaws = scn.geometry.yaws[:, 0]
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
        with pytest.raises(ConfigurationError, match=r"agent count must be in \[0, 100\]"):
            AgentPopulation(count=MAX_AGENTS + 1)
        with pytest.raises(ConfigurationError, match="at most 100 occluders"):
            ScenarioConfig(occluders=((0.0, 0.0, 1.0, 1.0),) * (MAX_OCCLUDERS + 1))

    @pytest.mark.parametrize("rect", [(16.0, 0.5, 14.0, 26.0), (14.0, 0.5, 14.0, 26.0),
                                      (14.0, 26.0, 16.0, 0.5), (14.0, 0.5, 16.0, 0.5),
                                      (14.0, 0.5, 16.0)])
    def test_a_degenerate_wall_fails_when_the_config_is_made(self, rect):
        with pytest.raises(ConfigurationError, match="with x0 < x1 and y0 < y1"):
            ScenarioConfig(occluders=((0.0, 0.0, 1.0, 1.0), rect))

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

    def test_geometry_table_bytes_count_the_frame_geometry_tables(self):
        geo = generate_scenario(hidden_lane_scenario(duration_s=1.0), 1).geometry
        tables = (geo.centres, geo.yaws, geo.corners, geo.rot_t, geo.centre,
                  *geo.visible.values())
        assert sum(t.nbytes for t in tables) == geometry_table_bytes(11, 4, 1)

    def test_frame_geometry_tables_capped(self):
        """At the agent and occluder caps a frame's tables take 18.6 KB, so
        MAX_GEOMETRY_BYTES holds 14,432 frames; one more is rejected."""
        agents = AgentPopulation(count=MAX_AGENTS)
        walls = ((0.0, 0.0, 1.0, 1.0),) * MAX_OCCLUDERS
        per_frame = geometry_table_bytes(1, MAX_AGENTS, MAX_OCCLUDERS)
        assert per_frame == 18_600
        frames = MAX_GEOMETRY_BYTES // per_frame
        cfg = ScenarioConfig(duration_s=(frames - 1) / 10, agents=agents, occluders=walls)
        assert int(round(cfg.duration_s * cfg.frame_rate_hz)) + 1 == frames == 14_432
        with pytest.raises(ConfigurationError, match="bytes of frame geometry, more than"):
            ScenarioConfig(duration_s=frames / 10, agents=agents, occluders=walls)

    def test_generation_memory_at_the_agent_and_occluder_caps(self):
        """The visibility pass ray-tests one frame at a time at the caps: about
        54 MB at peak, where 16 frames at a time took about 580 MB."""
        walls = tuple((200.0 + 3 * k, 50.0, 201.0 + 3 * k, 51.0) for k in range(MAX_OCCLUDERS))
        cfg = ScenarioConfig(duration_s=1.0, agents=AgentPopulation(count=MAX_AGENTS),
                             occluders=walls)
        tracemalloc.start()
        try:
            generate_scenario(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6

    @pytest.mark.parametrize("cfg, frames", [
        (ScenarioConfig(duration_s=3.0), 16),
        (hidden_lane_scenario(duration_s=3.0), 16),
        (ScenarioConfig(duration_s=1.0, agents=AgentPopulation(count=MAX_AGENTS)), 1),
    ], ids=["default", "hidden_lane", "agent_cap"])
    def test_visibility_block_size_leaves_the_tables_unchanged(self, cfg, frames, monkeypatch):
        """Shipped scenes ray-test 16 frames at a time and the agent cap one;
        every block size gives the same visibility tables."""
        blocks = []
        real = scenario._visible

        def spy(geo, block, *args):
            blocks.append(block.stop - block.start)
            return real(geo, block, *args)

        monkeypatch.setattr(scenario, "_visible", spy)
        tables = generate_scenario(cfg, 1).geometry.visible
        assert blocks[0] == frames
        monkeypatch.setattr(scenario, "_BLOCK_FLOATS", 0)
        blocks.clear()
        one_frame = generate_scenario(cfg, 1).geometry.visible
        assert set(blocks) == {1}
        assert all(np.array_equal(tables[view], one_frame[view]) for view in View)

    def test_lane_slots_keep_agents_apart(self):
        cfg = ScenarioConfig(
            duration_s=1.0,
            agents=AgentPopulation(count=4, speed_range=(5.0, 5.0), lanes=(Lane(0.0),),
                                   x_start_range=(0.0, 5.0), lane_slot_spacing_m=30.0),
        )
        scn = generate_scenario(cfg, 2)
        xs = sorted(scn.geometry.centres[0, :, 0])
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
        assert ground_truth_at(scn, 0.0, View.VEHICLE)[0].tolist() == []
        ids, boxes = ground_truth_at(scn, 0.0, View.INFRA)
        assert ids.tolist() == [1]
        assert boxes.values[0, :2].tolist() == [30.0, 0.0]

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
            ids_v, gt_v = ground_truth_at(scn, t, View.VEHICLE)
            ids_i, gt_i = ground_truth_at(scn, t, View.INFRA)
            assert ids_v.tolist() == ids_i.tolist() == [1, 2, 3]
            assert rows_of(gt_v) == rows_of(gt_i)

    def test_out_of_range_sensor_sees_nothing(self):
        cfg = one_agent_config(x0=80.0)
        cfg = ScenarioConfig(**{**cfg.__dict__, "vehicle_range_m": 50.0})
        scn = generate_scenario(cfg, 1)
        assert ground_truth_at(scn, 0.0, View.VEHICLE)[0].tolist() == []

    def test_track_ids_are_agent_ids(self):
        cfg = ScenarioConfig(duration_s=1.0)
        ids, _ = ground_truth_at(generate_scenario(cfg, 1), 0.0, View.INFRA)
        assert set(ids.tolist()) <= set(range(1, cfg.agents.count + 1))


def obj(track_id, x, y, z=0.0, t=0.0, prov=Provenance.VEHICLE_SIDE):
    return TrackedObject(
        box=Box3D(x=x, y=y, z=z, w=2.0, l=4.0, h=1.5), track_id=track_id,
        timestamp=t, provenance=prov,
    )


class TestCooperativeGroundTruth:
    """The per-object union in ``oracle_utils``, the reference for the run's
    scored ground truth (``test_frame_geometry``)."""

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
    """The per-object transform in ``oracle_utils``."""

    def test_world_to_ego_roundtrip(self):
        pose = Pose(5.0, -3.0, 0.0, 0.7)
        objs = [obj(1, 10.0, 2.0, 0.75)]
        back = objects_to_frame(objects_to_frame(objs, pose), inverse(pose))
        assert back[0].box.x == pytest.approx(10.0)
        assert back[0].box.y == pytest.approx(2.0)
        assert back[0].track_id == 1
