"""The ray-occlusion kernels against one-blocker-at-a-time references.

``geometry.rays_hit_blockers`` tests the rays from one origin (a sensor)
against every wall and box; it is checked against the general-start kernel
it replaced, ``oracle_utils.segments_hit_blockers``, on random blockers and
rays and on blocks of frames as the visibility tables call it. That kernel
tests every segment against every blocker in one slab test, and the
visibility test (``oracle_utils.visible_agents``, which a scenario's tables
are checked against) tests every agent's probes in one call. The references
for those are the loops they replaced: one single-blocker call per blocker,
and one probe set per agent.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrack.geometry import Blockers, rays_hit_blockers
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import ScenarioConfig, generate_scenario, ground_truth_at
from cotrack.sensing import View, sample_point_cloud
from oracle_utils import (Box3D, blockers_of, box_at, corners_bev, segments_hit_blockers,
                          visible_agents)

PROBE_OFFSETS = (0.1, 0.3, 0.5, 0.7, 0.9)


def hits_per_blocker(starts, ends, boxes, walls):
    """Reference: one slab test per box, then one per wall, stacked as rows."""
    rows = [segments_hit_blockers(starts, ends, blockers_of([box]))[0] for box in boxes]
    rows += [segments_hit_blockers(starts, ends, blockers_of(walls=[rect]))[0] for rect in walls]
    return np.array(rows, dtype=bool).reshape(len(rows), len(starts))


def visible_per_agent(sensor_xy, boxes, walls, range_m):
    """Reference: each agent's 20 probes tested against every other blocker in turn."""
    out = []
    for i, box in enumerate(boxes):
        if math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) > range_m:
            out.append(False)
            continue
        corners = corners_bev(box)
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
        got = segments_hit_blockers(starts, ends, blockers_of(boxes, walls))
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
        got = segments_hit_blockers(starts, ends, blockers_of(boxes, walls))
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
        got = segments_hit_blockers(starts, ends, blockers_of([box], [(0.0, 0.0, 2.0, 1.0)]))
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
        got = segments_hit_blockers(starts, ends, blockers_of([box, mirrored]))
        assert got.tolist() == [[True, True], [False, False]]

    def test_rays_ending_exactly_on_an_edge_are_not_hits(self):
        wall = (0.0, 0.0, 2.0, 1.0)
        box = Box3D(x=1.0, y=0.5, z=0.5, w=1.0, l=2.0, h=1.0)  # the same rectangle
        starts = np.array([[-1.0, 0.5], [1.0, -1.0], [-1.0, 0.5]])
        ends = np.array([[0.0, 0.5], [1.0, 0.0], [3.0, 0.5]])
        got = segments_hit_blockers(starts, ends, blockers_of([box], [wall]))
        assert got.tolist() == [[False, False, True]] * 2


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@st.composite
def shared_origin_rays(draw, blockers_at):
    """(origin, ends): ends on the lattice or free, some axis-parallel to the
    origin, some on a blocker's corner or edge midpoint; the origin free, at
    a blocker's centre, or on one of its corners (``blockers_at`` lists
    each blocker's (centre, corners))."""
    marks = [p for centre, corners in blockers_at for p in (centre, *corners)]
    marks += [tuple((np.array(a) + np.array(b)) / 2)
              for _, corners in blockers_at for a, b in zip(corners, corners[1:] + corners[:1])]
    spot = st.sampled_from(marks) if marks else point
    origin = np.array(draw(st.one_of(point, spot)), dtype=float)
    ends = np.array(draw(st.lists(st.one_of(point, spot), min_size=1, max_size=12)), dtype=float)
    for axis in (0, 1):
        flat = np.array(draw(st.lists(st.booleans(), min_size=len(ends), max_size=len(ends))))
        ends[flat, axis] = origin[axis]
    return origin, ends


def corners_of(boxes, walls):
    out = [((b.x, b.y), [tuple(c) for c in corners_bev(b)]) for b in boxes]
    out += [(((x0 + x1) / 2, (y0 + y1) / 2), [(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
            for x0, y0, x1, y1 in walls]
    return out


class TestSharedOriginKernel:
    @given(data=st.data(), boxes=boxes_st, walls=walls_st)
    def test_equals_general_start_kernel(self, data, boxes, walls):
        origin, ends = data.draw(shared_origin_rays(corners_of(boxes, walls)))
        blockers = blockers_of(boxes, walls)
        got = rays_hit_blockers(origin, ends[:, 0], ends[:, 1], blockers)
        want = segments_hit_blockers(np.broadcast_to(origin, ends.shape), ends, blockers)
        assert got.shape == want.shape == (len(boxes) + len(walls), len(ends))
        assert np.array_equal(got, want)

    @given(data=st.data(), n_frames=st.integers(1, 4), n_boxes=st.integers(0, 4), walls=walls_st)
    def test_a_block_of_frames_equals_each_frame_alone(self, data, n_frames, n_boxes, walls):
        # As the visibility tables call it: per frame one origin and one set
        # of ends, blockers stacked (frames, K, ...) with shared extents.
        dims = [(data.draw(size), data.draw(size)) for _ in range(n_boxes)]
        frames = []
        for _ in range(n_frames):
            boxes = [Box3D(x=data.draw(coord), y=data.draw(coord), z=0.75, w=w, l=l, h=1.5,
                           yaw=data.draw(yaw)) for w, l in dims]
            frames.append((boxes, blockers_of(boxes, walls)))
        n = data.draw(st.integers(1, 8))
        rays = []
        for boxes, _ in frames:
            origin, ends = data.draw(shared_origin_rays(corners_of(boxes, walls)))
            rays.append((origin, np.resize(ends, (n, 2))))
        stack = Blockers(np.stack([b.rot_t for _, b in frames]),
                         np.stack([b.centre for _, b in frames]), frames[0][1].lo, frames[0][1].hi)
        origins = np.array([o for o, _ in rays])
        ends = np.array([e for _, e in rays])
        got = rays_hit_blockers(origins, ends[..., 0], ends[..., 1], stack)
        assert got.shape == (n_frames, n_boxes + len(walls), n)
        for f, ((origin, e), (_, blockers)) in enumerate(zip(rays, frames)):
            want = segments_hit_blockers(np.broadcast_to(origin, e.shape), e, blockers)
            assert np.array_equal(got[f], want)

    def test_identity_rotation_walls_and_a_sensor_inside_a_box(self):
        wall = (0.0, 0.0, 2.0, 1.0)
        box = Box3D(x=5.0, y=0.5, z=0.5, w=1.0, l=2.0, h=1.0)
        blockers = blockers_of([box], [wall])
        ends = np.array([[-1.0, 0.5], [1.0, 0.5], [3.0, 0.5], [5.0, 3.0], [2.0, 1.0], [1.0, 4.0]])
        for origin in ([1.0, 0.5], [5.0, 0.5], [0.0, 0.0], [-2.0, 0.5]):
            origin = np.array(origin)
            got = rays_hit_blockers(origin, ends[:, 0], ends[:, 1], blockers)
            want = segments_hit_blockers(np.broadcast_to(origin, ends.shape), ends, blockers)
            assert np.array_equal(got, want), origin
        # From outside the wall: the rays that end inside it, cross it, or
        # cross it to end on its far corner are hit; the ones that stop short
        # of it or pass it by are not.
        assert got[1].tolist() == [False, True, True, False, True, False]

    def test_transposed_rotation_is_the_row_by_row_product_bit_for_bit(self):
        # rays_hit_blockers moves points into blocker frames as rot_t
        # transposed times (2, N) coordinate rows; the general kernel, and so
        # every pinned reference, used (N, 2) rows times rot_t. The two must
        # agree bit for bit: a host whose matrix kernels round them
        # differently fails here rather than in a benchmark reference.
        rng = np.random.default_rng(15)
        for _ in range(200):
            k, n = int(rng.integers(1, 12)), int(rng.integers(1, 700))
            p = rng.normal(0.0, 60.0, (n, 2))
            centre = rng.normal(0.0, 60.0, (k, 1, 2))
            angles = rng.uniform(-math.pi, math.pi, k).tolist()
            c = np.array([math.cos(-a) for a in angles])
            s = np.array([math.sin(-a) for a in angles])
            rot_t = np.stack([c, s, -s, c], axis=-1).reshape(k, 2, 2)
            rows = (p - centre) @ rot_t
            cols = rot_t.swapaxes(-1, -2) @ np.stack([p[:, 0] - centre[..., 0],
                                                      p[:, 1] - centre[..., 1]], axis=1)
            assert np.array_equal(bits(rows.swapaxes(-1, -2)), bits(cols))


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
                boxes = [box_at(agent, s.frame_index(t)) for agent in s.agents]
                ids = [agent.id for agent in s.agents]
                for view in View:
                    pose = s.sensor_pose(view, t)
                    seen = visible_per_agent((pose.x, pose.y), boxes, s.occluders,
                                             s.sensor_range(view))
                    want = [i for i, v in zip(ids, seen) if v]
                    assert ground_truth_at(s, t, view)[0].tolist() == want


class TestClutterField:
    def test_field_is_the_scenarios_and_read_only(self):
        cfg = ScenarioConfig()
        clutter = generate_scenario(cfg, seed=7).clutter[View.INFRA]
        again = generate_scenario(cfg, seed=7).clutter[View.INFRA]
        assert all(np.array_equal(a, b) for a, b in zip((*clutter.field, clutter.xyz),
                                                         (*again.field, again.xyz)))
        offsets, jitter, z = clutter.field
        assert len(offsets) > 0
        for arr in (*clutter.field, clutter.xyz):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            offsets[0, 0] = 1.0

    def test_same_field_every_frame_with_fresh_intensities(self):
        cfg = ScenarioConfig(duration_s=1.0)
        s = generate_scenario(cfg, seed=5)
        n = len(s.clutter[View.INFRA].xyz)
        a, b = (sample_point_cloud(s, t, View.INFRA).points[-n:] for t in (0.0, 0.5))
        # The roadside sensor does not move, so its clutter sits still in its frame.
        assert np.array_equal(a[:, :3], b[:, :3])
        assert not np.array_equal(a[:, 3], b[:, 3])
