"""The batched ray-occlusion kernel against one-blocker-at-a-time references.

``segments_hit_blockers`` tests every segment against every wall and box in
one slab test, and ``visible_agents`` tests every agent's probes in one call.
The references below are the loops they replaced: one single-blocker
``segments_hit_blockers`` call per blocker, and one probe set per agent.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrack.geometry import Blockers, Box3D, segments_hit_blockers
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import ScenarioConfig, generate_scenario, ground_truth_at
from cotrack.sensing import View, sample_point_cloud, static_returns, visible_agents

PROBE_OFFSETS = (0.1, 0.3, 0.5, 0.7, 0.9)


def hits_per_blocker(starts, ends, boxes, walls):
    """Reference: one slab test per box, then one per wall, stacked as rows."""
    rows = [segments_hit_blockers(starts, ends, Blockers.of([box]))[0] for box in boxes]
    rows += [segments_hit_blockers(starts, ends, Blockers.of(walls=[rect]))[0] for rect in walls]
    return np.array(rows, dtype=bool).reshape(len(rows), len(starts))


def visible_per_agent(sensor_xy, boxes, walls, range_m):
    """Reference: each agent's 20 probes tested against every other blocker in turn."""
    out = []
    for i, box in enumerate(boxes):
        if math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) > range_m:
            out.append(False)
            continue
        corners = box.corners_bev()
        probes = np.concatenate([
            corners[e] + np.array(PROBE_OFFSETS)[:, None] * (corners[(e + 1) % 4] - corners[e])
            for e in range(4)
        ])
        starts = np.broadcast_to(np.asarray(sensor_xy, dtype=float), probes.shape)
        others = [b for j, b in enumerate(boxes) if j != i]
        blocked = hits_per_blocker(starts, probes, others, walls).any(axis=0)
        out.append(bool(np.any(~blocked)))
    return np.array(out, dtype=bool)


def slab_hit(s, e, lo, hi, eps=1e-9):
    """Scalar slab test of one segment against one rectangle in its own frame."""
    near, far = -math.inf, math.inf
    for axis in (0, 1):
        d = e[axis] - s[axis]
        if d == 0.0:
            if not lo[axis] <= s[axis] <= hi[axis]:
                return False
            continue
        t1, t2 = (lo[axis] - s[axis]) / d, (hi[axis] - s[axis]) / d
        near, far = max(near, min(t1, t2)), min(far, max(t1, t2))
    return near <= far and near < 1.0 - eps and far > eps


# Coordinates on a half-metre lattice make rays that end exactly on an edge,
# run along one, or are axis-parallel common; free floats cover the rest.
lattice = st.integers(-24, 24).map(lambda v: v / 2.0)
coord = st.one_of(lattice, st.floats(-12.0, 12.0, allow_nan=False))
yaw = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4]),
    st.floats(-math.pi, math.pi, allow_nan=False),
)
size = st.one_of(st.integers(1, 8).map(lambda v: v / 2.0), st.floats(0.2, 5.0))
boxes_st = st.lists(
    st.builds(Box3D, x=coord, y=coord, z=st.just(0.75), w=size, l=size, h=st.just(1.5), yaw=yaw),
    max_size=8,
)
walls_st = st.lists(
    st.tuples(lattice, lattice, size, size).map(lambda r: (r[0], r[1], r[0] + r[2], r[1] + r[3])),
    max_size=3,
)
point = st.tuples(coord, coord)


@st.composite
def segments(draw):
    """(starts, ends): one shared start (a sensor) or a start per segment."""
    ends = np.array(draw(st.lists(point, min_size=1, max_size=12)), dtype=float)
    if draw(st.booleans()):
        starts = np.broadcast_to(np.array(draw(point), dtype=float), ends.shape)
    else:
        starts = np.array(draw(st.lists(point, min_size=len(ends), max_size=len(ends))),
                          dtype=float)
    if draw(st.booleans()):  # axis-parallel: copy one coordinate of the start
        axis = draw(st.integers(0, 1))
        ends = ends.copy()
        ends[:, axis] = starts[:, axis]
    return starts, ends


class TestBatchedSlabTest:
    @given(seg=segments(), boxes=boxes_st, walls=walls_st)
    def test_equals_one_blocker_at_a_time(self, seg, boxes, walls):
        starts, ends = seg
        got = segments_hit_blockers(starts, ends, Blockers.of(boxes, walls))
        assert got.shape == (len(boxes) + len(walls), len(ends))
        assert np.array_equal(got, hits_per_blocker(starts, ends, boxes, walls))

    @given(seg=segments(), rects=st.lists(st.tuples(coord, coord, size, size), max_size=4),
           as_box=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_axis_aligned_blockers_equal_scalar_slab_test(self, seg, rects, as_box):
        # Unrotated boxes and walls map points into their frame exactly, so a
        # plain-float slab test of each segment is a bitwise reference.
        starts, ends = seg
        boxes = [Box3D(x=x, y=y, z=0.5, w=w, l=l, h=1.0) for (x, y, l, w), b in zip(rects, as_box) if b]
        walls = [(x, y, x + l, y + w) for (x, y, l, w), b in zip(rects, as_box) if not b]
        frames = [((b.x, b.y), (-0.5 * b.l, -0.5 * b.w), (0.5 * b.l, 0.5 * b.w)) for b in boxes]
        frames += [((0.0, 0.0), r[:2], r[2:]) for r in walls]
        want = [[slab_hit([p - c for p, c in zip(s, centre)], [p - c for p, c in zip(e, centre)],
                          lo, hi) for s, e in zip(starts.tolist(), ends.tolist())]
                for centre, lo, hi in frames]
        got = segments_hit_blockers(starts, ends, Blockers.of(boxes, walls))
        assert got.tolist() == want

    def test_every_lattice_segment_equals_scalar_slab_test(self):
        # Every segment between points of a half-metre lattice around one
        # rectangle: rays through corners, ending on edges and running along
        # them (which grazes the closed rectangle and counts as a hit).
        ticks = np.arange(-1.0, 3.01, 0.5)
        pts = np.array([(x, y) for x in ticks for y in ticks])
        starts = np.repeat(pts, len(pts), axis=0)
        ends = np.tile(pts, (len(pts), 1))
        box = Box3D(x=1.0, y=0.5, z=0.5, w=1.0, l=2.0, h=1.0)
        got = segments_hit_blockers(starts, ends, Blockers.of([box], [(0.0, 0.0, 2.0, 1.0)]))
        box_frame = [[slab_hit((s[0] - 1.0, s[1] - 0.5), (e[0] - 1.0, e[1] - 0.5),
                               (-1.0, -0.5), (1.0, 0.5)) for s, e in zip(starts, ends)]]
        wall_frame = [[slab_hit(s, e, (0.0, 0.0), (2.0, 1.0)) for s, e in zip(starts, ends)]]
        assert got.tolist() == box_frame + wall_frame
        assert got.any() and not got.all()

    def test_rotated_box_is_tested_in_its_own_frame(self):
        # A thin box along y = x; the segment crosses that diagonal near the
        # box's end and would miss a box along y = -x.
        box = Box3D(x=0.0, y=0.0, z=0.5, w=0.2, l=10.0, h=1.0, yaw=math.pi / 4)
        mirrored = Box3D(x=0.0, y=0.0, z=0.5, w=0.2, l=10.0, h=1.0, yaw=-math.pi / 4)
        starts, ends = np.array([[3.0, 4.0]] * 2), np.array([[4.0, 3.0]] * 2)
        got = segments_hit_blockers(starts, ends, Blockers.of([box, mirrored]))
        assert got.tolist() == [[True, True], [False, False]]

    def test_rays_ending_exactly_on_an_edge_are_not_hits(self):
        wall = (0.0, 0.0, 2.0, 1.0)
        box = Box3D(x=1.0, y=0.5, z=0.5, w=1.0, l=2.0, h=1.0)  # the same rectangle
        starts = np.array([[-1.0, 0.5], [1.0, -1.0], [-1.0, 0.5]])
        ends = np.array([[0.0, 0.5], [1.0, 0.0], [3.0, 0.5]])
        got = segments_hit_blockers(starts, ends, Blockers.of([box], [wall]))
        assert got.tolist() == [[False, False, True]] * 2


class TestBatchedVisibility:
    @given(sensor=point, boxes=boxes_st, walls=walls_st,
           range_m=st.one_of(st.just(100.0), st.floats(1.0, 20.0)))
    def test_equals_per_agent_probe_loop(self, sensor, boxes, walls, range_m):
        got = visible_agents(sensor, boxes, walls, range_m)
        assert np.array_equal(got, visible_per_agent(sensor, boxes, walls, range_m))

    def test_ground_truth_equals_per_agent_probe_loop(self):
        for cfg in (hidden_lane_scenario(duration_s=2.0), ScenarioConfig(duration_s=2.0)):
            s = generate_scenario(cfg, seed=3)
            for t in s.frame_times()[::4]:
                boxes = [box for _, box in s.agent_boxes_at(t)]
                ids = [agent_id for agent_id, _ in s.agent_boxes_at(t)]
                for view in View:
                    pose = s.sensor_pose(view, t)
                    seen = visible_per_agent((pose.x, pose.y), boxes, s.occluders,
                                             s.sensor_range(view))
                    want = [i for i, v in zip(ids, seen) if v]
                    assert [o.track_id for o in ground_truth_at(s, t, view)] == want


class TestClutterField:
    def test_field_is_cached_and_read_only(self):
        cfg = ScenarioConfig()
        args = (7, View.INFRA, cfg.noise, cfg.infra_range_m, generate_scenario(cfg, seed=7).infra_pose)
        returns = static_returns(*args)
        assert static_returns(*args) is returns
        offsets, jitter, z = returns.field
        assert len(offsets) > 0
        for arr in (*returns.field, returns.points):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            offsets[0, 0] = 1.0

    def test_same_field_every_frame_with_fresh_intensities(self):
        cfg = ScenarioConfig(duration_s=1.0)
        s = generate_scenario(cfg, seed=2)
        n = len(static_returns(5, View.INFRA, cfg.noise, cfg.infra_range_m, s.infra_pose))
        a, b = (sample_point_cloud(s, t, View.INFRA, cfg.noise, 5).points[-n:] for t in (0.0, 0.5))
        # The roadside sensor does not move, so its clutter sits still in its frame.
        assert np.array_equal(a[:, :3], b[:, :3])
        assert not np.array_equal(a[:, 3], b[:, 3])
