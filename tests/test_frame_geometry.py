"""Each scenario's frame geometry and visibility tables against the per-call path.

``generate_scenario`` builds every frame's agent corners, ray blockers and
each view's ground-truth visibility once (``Scenario.geometry``). The
references in ``oracle_utils`` are what ground truth and the point sampler
built on every call: a ``Box3D`` per agent, its corners and blocker row one
box at a time, and the batched probe test. Every value must match bit for
bit, in every frame and view.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotrack.geometry import Category
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import AgentPopulation, ScenarioConfig, generate_scenario
from cotrack.sensing import View
from oracle_utils import per_call_frame


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def assert_matches_per_call_path(s):
    geo = s.geometry
    n_frames, n_agents = len(s.frame_times()), len(s.agents)
    assert geo.corners.shape == (n_frames, n_agents, 4, 2)
    for view in View:
        assert geo.visible[view].shape == (n_frames, n_agents)
    for f in range(n_frames):
        boxes, corners, blockers, visible = per_call_frame(s, f)
        centres = np.array([(b.x, b.y) for b in boxes]).reshape(-1, 2)
        assert np.array_equal(bits(geo.centres[f]), bits(centres))
        assert np.array_equal(bits(geo.yaws[f]), bits([b.yaw for b in boxes]))
        assert np.array_equal(bits(geo.corners[f]), bits(corners))
        mine = geo.blockers(f)
        for name in ("rot_t", "centre", "lo", "hi"):
            assert np.array_equal(bits(getattr(mine, name)), bits(getattr(blockers, name))), name
        for view in View:
            assert np.array_equal(geo.visible[view][f], visible[view])


SCENES = {
    "default": ScenarioConfig(duration_s=8.0),
    "hidden_lane": hidden_lane_scenario(duration_s=3.0),
    "hidden_lane_15s": hidden_lane_scenario(duration_s=15.0),
    "moving_rotated_ego": ScenarioConfig(duration_s=4.0, ego_speed=6.0, ego_yaw=0.4,
                                         occluders=((10.0, -6.0, 12.0, 6.0),)),
    "all_turn": ScenarioConfig(duration_s=6.0, agents=AgentPopulation(count=8, turn_fraction=1.0)),
    "short_range": ScenarioConfig(duration_s=3.0, vehicle_range_m=30.0, infra_range_m=15.0),
    "no_agents": ScenarioConfig(duration_s=2.0, agents=AgentPopulation(count=0)),
}


class TestFrameGeometry:
    @pytest.mark.parametrize("name", SCENES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_per_call_path_in_every_frame_and_view(self, name, seed):
        assert_matches_per_call_path(generate_scenario(SCENES[name], seed))

    def test_scenes_see_and_miss_agents(self):
        # The scenes above exercise both answers of the table, and the short
        # range scene hides agents by range alone.
        for name in ("default", "hidden_lane", "short_range"):
            vis = generate_scenario(SCENES[name], 1).geometry.visible
            assert any(v.any() and not v.all() for v in vis.values()), name
        s = generate_scenario(SCENES["short_range"], 1)
        far = [math.hypot(*(s.geometry.centres[0, a] - (s.infra_pose.x, s.infra_pose.y))) > 15.0
               for a in range(len(s.agents))]
        assert any(far) and not s.geometry.visible[View.INFRA][0][far].any()

    def test_arrays_are_read_only(self):
        geo = generate_scenario(SCENES["hidden_lane"], 1).geometry
        arrays = [geo.centres, geo.yaws, geo.corners, geo.rot_t, geo.centre, geo.lo, geo.hi,
                  *geo.visible.values()]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
        with pytest.raises(ValueError):
            geo.blockers(0).rot_t[0, 0, 0] = 2.0

    @pytest.mark.parametrize("pts_per_m", [6.0, 0.1, 20.0])
    def test_outline_table_is_each_edge_evenly_sampled(self, pts_per_m):
        cfg = ScenarioConfig(duration_s=1.0, surface_pts_per_m=pts_per_m,
                             agents=AgentPopulation(count=5, categories=tuple(Category)))
        s = generate_scenario(cfg, 1)
        ol = s.geometry.outlines
        rows = []
        for a, agent in enumerate(s.agents):
            w, l, h = agent.dims
            counts = [max(1, int(round(pts_per_m * edge))) for edge in (w, l, w, l)]
            assert ol.size[a] == sum(counts) and ol.height[a] == h
            rows += [(4 * a + e, a, e, float(i), float(n))
                     for e, n in enumerate(counts) for i in range(n)]
        table = list(zip(ol.edge.tolist(), ol.agent.tolist(), ol.side.tolist(),
                         ol.index.tolist(), ol.count.tolist()))
        assert table == rows
        for arr in vars(ol).values():
            assert not arr.flags.writeable

    def test_same_config_and_seed_give_equal_tables(self):
        cfg = SCENES["moving_rotated_ego"]
        a, b = generate_scenario(cfg, 5).geometry, generate_scenario(cfg, 5).geometry
        for name in ("centres", "yaws", "corners", "rot_t", "centre", "lo", "hi"):
            assert np.array_equal(bits(getattr(a, name)), bits(getattr(b, name)))
        for view in View:
            assert np.array_equal(a.visible[view], b.visible[view])


# Occluders on a half-metre lattice near the lanes, so rays graze their edges.
lattice = st.integers(-40, 120).map(lambda v: v / 2.0)
extent = st.integers(1, 20).map(lambda v: v / 2.0)
walls = st.lists(st.tuples(lattice, st.integers(-30, 30).map(lambda v: v / 2.0), extent, extent)
                 .map(lambda r: (r[0], r[1], r[0] + r[2], r[1] + r[3])), max_size=3)
ranges = st.one_of(st.just(110.0), st.floats(5.0, 60.0))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), count=st.integers(0, 8), occluders=walls,
       vehicle_range=ranges, infra_range=ranges, turn=st.sampled_from([0.0, 0.5, 1.0]),
       ego_speed=st.sampled_from([0.0, 5.0]), ego_yaw=st.sampled_from([0.0, 0.3, -math.pi / 2]))
def test_generated_scenarios_equal_per_call_path(seed, count, occluders, vehicle_range,
                                                 infra_range, turn, ego_speed, ego_yaw):
    cfg = ScenarioConfig(duration_s=1.0, vehicle_range_m=vehicle_range, infra_range_m=infra_range,
                         agents=AgentPopulation(count=count, turn_fraction=turn),
                         occluders=tuple(occluders), ego_speed=ego_speed, ego_yaw=ego_yaw)
    assert_matches_per_call_path(generate_scenario(cfg, seed))
