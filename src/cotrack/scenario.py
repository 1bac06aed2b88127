"""Deterministic synthetic scenario generation and per-view ground truth.

A scenario is an intersection-scale world: kinematic agents on lanes, a
stationary roadside sensor, an ego vehicle, and optional wall occluders.
Everything is generated from (config, seed) and immutable afterwards, so
scenarios can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import AlignmentError, ConfigurationError, check_finite
from .geometry import (
    CATEGORY_ORDER, Blockers, Boxes, Category, Pose, Region, rays_hit_blockers, wrap_angle)
from .sensing import Clutter, GridSpec, NoiseConfig, View, scenario_clutter


class Provenance(Enum):
    VEHICLE_SIDE = "vehicle"
    INFRA_SIDE = "infra"
    FUSED = "fused"


# Nominal (w, l, h) per category, meters.
CATEGORY_DIMS = {
    Category.CAR: (1.8, 4.5, 1.5),
    Category.VAN: (2.0, 5.2, 2.0),
    Category.BUS: (2.5, 11.0, 3.2),
    Category.TRUCK: (2.4, 8.5, 3.0),
}


@dataclass(frozen=True)
class Lane:
    y: float
    heading: float = 0.0  # radians; 0 drives +x, pi drives -x

    def __post_init__(self):
        check_finite(self, self.y, self.heading)


@dataclass(frozen=True)
class AgentPopulation:
    count: int = 6
    speed_range: Tuple[float, float] = (8.0, 12.0)
    lanes: Tuple[Lane, ...] = (Lane(-9.0), Lane(-5.0), Lane(5.0, math.pi), Lane(9.0, math.pi))
    x_start_range: Tuple[float, float] = (-10.0, 50.0)
    categories: Tuple[Category, ...] = (Category.CAR, Category.VAN)
    turn_fraction: float = 0.0
    turn_rate: float = 0.3
    # Agents sharing a lane start this far apart along the lane heading, so
    # traffic does not spawn overlapped or immediately merge.
    lane_slot_spacing_m: float = 40.0

    def __post_init__(self):
        check_finite(self, *self.speed_range, *self.x_start_range, self.turn_fraction,
                     self.turn_rate, self.lane_slot_spacing_m)
        if not 0 <= self.count <= MAX_AGENTS:
            raise ConfigurationError(f"agent count must be in [0, {MAX_AGENTS}], got {self.count}")
        if not self.lanes:
            raise ConfigurationError("at least one lane template is required")
        if not self.categories:
            raise ConfigurationError("at least one agent category is required")
        if self.speed_range[0] < 0 or self.speed_range[1] < self.speed_range[0]:
            raise ConfigurationError("invalid speed range")
        if not 0.0 <= self.turn_fraction <= 1.0:
            raise ConfigurationError("turn_fraction must be in [0, 1]")
        if not self.turn_rate > 0:
            raise ConfigurationError(f"turn_rate must be positive, got {self.turn_rate}")
        low, high = self.x_start_range
        if not 0 <= high - low < math.inf:
            raise ConfigurationError(
                f"x_start_range must have low <= high and a finite width, got {self.x_start_range}")


# Largest runs, scenes, outline densities and clutter fields a config may ask for.
MAX_FRAME_INTERVALS = 100_000  # duration_s * frame_rate_hz
MAX_AGENTS = 100  # generate_scenario's peak: about 54 MB with MAX_OCCLUDERS walls
MAX_OCCLUDERS = 100
MAX_PTS_PER_M = 1_000  # surface_pts_per_m: at most 27,000 points on a bus outline
MAX_CLUTTER_PER_VIEW = 1_000_000  # clutter_per_m2 times the longer sensor range's disc
MAX_GEOMETRY_BYTES = 256 * 2**20  # FrameGeometry's per-frame tables, geometry_table_bytes


def geometry_table_bytes(frames: int, agents: int, walls: int) -> int:
    """Bytes of ``FrameGeometry``'s per-frame tables: per frame and agent the
    centres (16), yaws (8), corners (64) and both views' visibility (2); per
    frame and blocker, agents then walls, ``rot_t`` (32) and ``centre`` (16)."""
    return frames * (90 * agents + 48 * (agents + walls))


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of a synthetic scene. See README for the schema."""

    duration_s: float = 15.0
    frame_rate_hz: int = 10
    region: Region = Region(0.0, -39.68, 100.0, 39.68)
    ego_start: Tuple[float, float] = (-20.0, 0.0)
    ego_yaw: float = 0.0
    ego_speed: float = 0.0
    infra_position: Tuple[float, float] = (30.0, 0.0)
    infra_yaw: float = 0.0
    vehicle_range_m: float = 110.0
    infra_range_m: float = 110.0
    agents: AgentPopulation = AgentPopulation()
    occluders: Tuple[Tuple[float, float, float, float], ...] = ()
    noise: NoiseConfig = NoiseConfig()
    vehicle_grid: GridSpec = GridSpec(x0=0.0, y0=-40.0, cell_size=0.5, cols=200, rows=160)
    infra_grid: GridSpec = GridSpec(x0=-50.0, y0=-40.0, cell_size=0.5, cols=200, rows=160)
    density_cap: float = 10.0
    surface_pts_per_m: float = 6.0

    def __post_init__(self):
        check_finite(self, self.duration_s, *self.ego_start, self.ego_yaw, self.ego_speed,
                     *self.infra_position, self.infra_yaw, self.vehicle_range_m,
                     self.infra_range_m, *chain.from_iterable(self.occluders),
                     self.density_cap, self.surface_pts_per_m)
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.frame_rate_hz <= 0:
            raise ConfigurationError("frame rate must be positive")
        if self.vehicle_range_m <= 0 or self.infra_range_m <= 0:
            raise ConfigurationError("sensor ranges must be positive")
        if self.ego_speed < 0:
            raise ConfigurationError("ego speed must be non-negative")
        if self.density_cap <= 0:
            raise ConfigurationError("density_cap must be positive")
        if self.surface_pts_per_m <= 0:
            raise ConfigurationError("surface_pts_per_m must be positive")
        if self.vehicle_grid.channels != 3 or self.infra_grid.channels != 3:
            raise ConfigurationError(
                "vehicle_grid and infra_grid need 3 channels (density, height, intensity)")
        if not self.duration_s * self.frame_rate_hz <= MAX_FRAME_INTERVALS:
            raise ConfigurationError(
                f"duration_s * frame_rate_hz must be at most {MAX_FRAME_INTERVALS:,}")
        if len(self.occluders) > MAX_OCCLUDERS:
            raise ConfigurationError(f"a scene may have at most {MAX_OCCLUDERS} occluders")
        if self.surface_pts_per_m > MAX_PTS_PER_M:
            raise ConfigurationError(f"surface_pts_per_m must be at most {MAX_PTS_PER_M:,}")
        frames = int(round(self.duration_s * self.frame_rate_hz)) + 1
        table_bytes = geometry_table_bytes(frames, self.agents.count, len(self.occluders))
        if table_bytes > MAX_GEOMETRY_BYTES:
            raise ConfigurationError(
                f"{frames:,} frames of {self.agents.count} agents and {len(self.occluders)} "
                f"occluders need {table_bytes:,} bytes of frame geometry, more than "
                f"{MAX_GEOMETRY_BYTES:,}")
        range_m = max(self.vehicle_range_m, self.infra_range_m)
        if self.noise.clutter_per_m2 * math.pi * range_m * range_m > MAX_CLUTTER_PER_VIEW:
            raise ConfigurationError(
                f"noise.clutter_per_m2 expects more than {MAX_CLUTTER_PER_VIEW:,} clutter "
                f"points in a {range_m} m sensor range")


@dataclass(frozen=True)
class Agent:
    """One scripted traffic participant; waypoints cover every frame time."""

    id: int
    category: Category
    dims: Tuple[float, float, float]  # (w, l, h)
    # waypoints[k] = (t, x, y, yaw, speed) at frame k.
    waypoints: np.ndarray


class Outlines:
    """Where the point sampler samples each agent's outline, S samples in all.

    Each edge, in the order (w, l, w, l) from a box's first corner, holds
    ``max(1, round(pts_per_m * length))`` evenly spaced samples, shifted by a
    phase the sampler draws per edge and frame: stable per-cell coverage so
    blobs do not fragment, while the raster stays seed-dependent. Samples
    are ordered by agent, then edge, then index along the edge. Per sample:

    - ``edge`` (S,), its agent times 4 plus its edge: a row of
      ``FrameGeometry.corners[f].reshape(-1, 2)``;
    - ``agent`` (S,) and ``side`` (S,), that agent and that edge (0-3);
    - ``index`` and ``count`` (S,), its index along the edge and the edge's
      sample count, as floats.

    Per agent: ``size`` (A,), its sample count, and ``height`` (A,). Every
    array is read-only.
    """

    def __init__(self, agents: Sequence[Agent], pts_per_m: float):
        counts = np.array([max(1, int(round(pts_per_m * edge)))
                           for a in agents for edge in (a.dims[0], a.dims[1]) * 2], dtype=np.int64)
        first = np.cumsum(counts) - counts
        self.edge = np.repeat(np.arange(len(counts)), counts)
        self.agent, self.side = self.edge // 4, self.edge % 4
        self.index = (np.arange(len(self.edge)) - np.repeat(first, counts)).astype(float)
        self.count = np.repeat(counts, counts).astype(float)
        self.size = counts.reshape(-1, 4).sum(axis=1)
        self.height = np.array([a.dims[2] for a in agents], dtype=float)
        for arr in vars(self).values():
            arr.setflags(write=False)


class FrameGeometry:
    """Every frame's agent footprints and ray blockers, and what each view sees.

    Made once by ``generate_scenario``. For F frames, A agents and K = A +
    walls blockers:

    - ``centres`` (F, A, 2) and ``yaws`` (F, A), wrapped by ``wrap_angle``;
    - ``corners`` (F, A, 4, 2), each box's ground-plane footprint
      counter-clockwise from (l/2, -w/2) in its own frame;
    - ``rot_t`` (F, K, 2, 2), ``centre`` (F, K, 1, 2), ``lo`` and ``hi``
      (K, 1, 2): frame f's agent boxes, then the walls, as ``blockers(f)``;
    - ``visible[view]`` (F, A), the ground-truth visibility table;
    - ``ids`` (A,), the agents' ids, and ``shapes``, each agent's box at the
      origin with zero yaw (``Boxes``; z is half the height);
    - ``outlines``, where the point sampler's outline samples sit on each
      box (:class:`Outlines`).

    Each geometry value is bitwise what building one frame's boxes, corners
    and blockers one box at a time and ray-testing them gives
    (``tests/oracle_utils.py`` keeps that path). Every array is read-only. A
    plain object, not a tuple or dataclass, so that the benchmark's tracer
    digests it by identity rather than hashing it on every traced call that
    takes the scenario.
    """

    def __init__(self, centres, yaws, corners, rot_t, centre, lo, hi, visible, outlines,
                 ids, shapes):
        self.centres, self.yaws, self.corners = centres, yaws, corners
        self.rot_t, self.centre, self.lo, self.hi = rot_t, centre, lo, hi
        self.visible, self.outlines = visible, outlines
        self.ids, self.shapes = ids, shapes

    def blockers(self, f: int) -> Blockers:
        return Blockers(self.rot_t[f], self.centre[f], self.lo, self.hi)


@dataclass(frozen=True)
class Scenario:
    """Immutable generated world plus sensor configuration.

    ``clutter`` holds each view's ground clutter, drawn once from the seed
    (see :class:`~cotrack.sensing.Clutter`): its positions in the frame of
    the sensor at its frame-0 pose, and their (cell, z) sort on the view's
    grid unless two clutter heights tie in a cell. Every cloud sampled at
    that pose without dropout carries it, holding only its agent rows and the
    clutter's intensities, so rasterizing sorts only the cells its agent
    points hit. A moving ego's clouds after frame 0 move the clutter to
    the new pose and are sorted whole. With dropout every cloud is sorted
    whole. With tied heights, as with zero position noise, the view's clouds
    are sorted whole.

    ``geometry`` holds every frame's agent corners and ray blockers and each
    view's visibility table (:class:`FrameGeometry`), so ground truth is a
    table read and the point sampler builds no boxes.
    """

    config: ScenarioConfig
    seed: int
    agents: Tuple[Agent, ...]
    ego_waypoints: np.ndarray  # (K, 5): t, x, y, yaw, speed
    infra_pose: Pose
    occluders: Tuple[Tuple[float, float, float, float], ...]
    geometry: FrameGeometry
    clutter: Dict[View, Clutter]

    @property
    def region(self) -> Region:
        return self.config.region

    @property
    def frame_rate(self) -> int:
        return self.config.frame_rate_hz

    def frame_times(self) -> np.ndarray:
        k = int(round(self.config.duration_s * self.frame_rate))
        return np.arange(k + 1) / self.frame_rate

    def frame_index(self, t: float) -> int:
        idx = t * self.frame_rate
        nearest = round(idx)
        if abs(idx - nearest) > 1e-6:
            raise AlignmentError(f"time {t} is not on the {self.frame_rate} Hz frame grid")
        if not 0 <= nearest < len(self.ego_waypoints):
            raise AlignmentError(f"time {t} outside scenario duration")
        return int(nearest)

    def ego_pose(self, t: float) -> Pose:
        _, x, y, yaw, _ = self.ego_waypoints[self.frame_index(t)]
        return Pose(x, y, 0.0, yaw)

    def sensor_pose(self, view: View, t: float) -> Pose:
        return self.ego_pose(t) if view is View.VEHICLE else self.infra_pose

    def sensor_range(self, view: View) -> float:
        if view is View.VEHICLE:
            return self.config.vehicle_range_m
        return self.config.infra_range_m


def _integrate_track(
    start_xy: Tuple[float, float],
    yaw0: float,
    speed: float,
    segments: Sequence[Tuple[float, float]],
    times: np.ndarray,
) -> np.ndarray:
    """Integrate constant-speed unicycle motion through (duration, turn_rate) segments.

    Constant turn rate uses the exact arc update per frame step; straight
    motion is exact.
    """
    x, y = start_xy
    yaw = yaw0
    out = np.empty((len(times), 5))
    out[0] = (times[0], x, y, yaw, speed)
    seg_iter = list(segments) or [(math.inf, 0.0)]
    seg_idx = 0
    seg_left = seg_iter[0][0]
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        remaining = dt
        while remaining > 1e-12:
            while seg_left <= 1e-12 and seg_idx + 1 < len(seg_iter):
                seg_idx += 1
                seg_left = seg_iter[seg_idx][0]
            _, omega = seg_iter[seg_idx]
            step = min(remaining, seg_left) if seg_left > 1e-12 else remaining
            if abs(omega) < 1e-12:
                x += speed * math.cos(yaw) * step
                y += speed * math.sin(yaw) * step
            else:
                yaw_new = yaw + omega * step
                radius = speed / omega
                x += radius * (math.sin(yaw_new) - math.sin(yaw))
                y -= radius * (math.cos(yaw_new) - math.cos(yaw))
                yaw = yaw_new
            seg_left -= step
            remaining -= step
        yaw = float(wrap_angle(yaw))
        out[k] = (times[k], x, y, yaw, speed)
    return out


# Visibility probes sit strictly inside each edge so that touching corners of
# neighboring footprints do not flip the answer.
_PROBE_OFFSETS = np.array([0.1, 0.3, 0.5, 0.7, 0.9])


# Frames per visibility block: at most 16, and fewer where more blockers and
# probes would make one of the ray test's (frames, blockers, 2, probes + 1)
# temporaries hold more than _BLOCK_FLOATS floats (2 MB), but at least one.
_BLOCK_FRAMES = 16
_BLOCK_FLOATS = 1 << 18


def _visible(geo: FrameGeometry, frames: slice, sensor_xy: np.ndarray,
             range_m: float) -> np.ndarray:
    """Ray-model visibility of each agent in a block of frames, (B, A).

    An agent is visible when its center is within sensor range (``sensor_xy``
    is (B, 2)) and at least one of its 20 perimeter probe points has a 2D ray
    from the sensor that no wall and no other box crosses. All probes of the
    block go through one batched ray test from each frame's sensor; a box
    never blocks its own probes.
    """
    corners = geo.corners[frames]
    n_frames, n_agents = corners.shape[:2]
    a = corners[:, :, :, None, :]
    b = np.roll(corners, -1, axis=2)[:, :, :, None, :]
    probes = (a + _PROBE_OFFSETS[:, None] * (b - a)).reshape(n_frames, -1, 2)
    blockers = Blockers(geo.rot_t[frames], geo.centre[frames], geo.lo, geo.hi)
    hits = rays_hit_blockers(sensor_xy, probes[..., 0], probes[..., 1],
                             blockers).reshape(n_frames, len(geo.lo), n_agents, -1)
    own = np.arange(n_agents)
    hits[:, own, own] = False
    centres = geo.centres[frames].tolist()
    in_range = np.array([[math.hypot(x - sx, y - sy) <= range_m for x, y in row]
                         for row, (sx, sy) in zip(centres, sensor_xy.tolist())])
    return in_range & (~hits.any(axis=1)).any(axis=2)


def _frame_geometry(agents: Sequence[Agent], sensor_xy: Dict[View, np.ndarray],
                    ranges: Dict[View, float],
                    occluders: Sequence[Tuple[float, float, float, float]],
                    pts_per_m: float) -> FrameGeometry:
    """Every frame's footprints, blockers, visibility tables and the agents'
    outline samples, in array passes.

    ``sensor_xy[view]`` is (F, 2). Angles go through ``math.cos`` and
    ``math.sin`` one at a time, never ``np.cos``, whose rounding may differ
    between CPUs, and each box's corners through its own 2 × 2 product of a
    stacked matmul, so every value is bitwise what one box at a time gives.
    """
    n_frames, n_agents = len(sensor_xy[View.VEHICLE]), len(agents)
    way = np.array([a.waypoints for a in agents]).reshape(n_agents, n_frames, 5)
    centres = np.ascontiguousarray(way[:, :, 1:3].transpose(1, 0, 2))
    yaws = wrap_angle(way[:, :, 3].T)
    angles = yaws.ravel().tolist()

    def each(fn, values):
        return np.array([fn(v) for v in values]).reshape(yaws.shape)

    c, s = each(math.cos, angles), each(math.sin, angles)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(n_frames, n_agents, 2, 2)
    half = 0.5 * np.array([(a.dims[1], a.dims[0]) for a in agents]).reshape(n_agents, 2)
    hl, hw = half[:, :1], half[:, 1:]
    local = np.concatenate([hl, -hw, hl, hw, -hl, hw, -hl, -hw], axis=1).reshape(n_agents, 4, 2)
    local = np.ascontiguousarray(np.broadcast_to(local, (n_frames, n_agents, 4, 2)))
    corners = local @ rot.swapaxes(-1, -2) + centres[:, :, None, :]

    walls = np.asarray(occluders, dtype=float).reshape(-1, 4)
    negated = [-yaw for yaw in angles]
    c, s = each(math.cos, negated), each(math.sin, negated)
    rot_t = np.empty((n_frames, n_agents + len(walls), 2, 2))
    rot_t[:, :n_agents] = np.stack([c, s, -s, c], axis=-1).reshape(n_frames, n_agents, 2, 2)
    rot_t[:, n_agents:] = np.eye(2)
    centre = np.zeros((n_frames, n_agents + len(walls), 1, 2))
    centre[:, :n_agents, 0] = centres
    hi = np.concatenate([half, walls[:, 2:]])[:, None, :]
    lo = np.concatenate([-half, walls[:, :2]])[:, None, :]

    shapes = [(0.0, 0.0, 0.5 * a.dims[2], *a.dims, 0.0) for a in agents]
    shapes = Boxes(np.array(shapes).reshape(-1, 7),
                   np.array([CATEGORY_ORDER.index(a.category) for a in agents], dtype=np.uint8),
                   np.ones(n_agents))
    geo = FrameGeometry(centres, yaws, corners, rot_t, centre, lo, hi, {},
                        Outlines(agents, pts_per_m), np.array([a.id for a in agents], dtype=int),
                        shapes)
    per_frame = len(lo) * 2 * (4 * len(_PROBE_OFFSETS) * n_agents + 1)
    n_block = max(1, min(_BLOCK_FRAMES, _BLOCK_FLOATS // max(per_frame, 1)))
    for view, xy in sensor_xy.items():
        geo.visible[view] = np.zeros((n_frames, n_agents), dtype=bool)
        if n_agents:
            for f in range(0, n_frames, n_block):
                block = slice(f, f + n_block)
                geo.visible[view][block] = _visible(geo, block, xy[block], ranges[view])
    for arr in (centres, yaws, corners, rot_t, centre, lo, hi, *geo.visible.values(), geo.ids,
                *vars(shapes).values()):
        arr.setflags(write=False)
    return geo


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Build a deterministic scenario from a config and a seed.

    Agents cycle through the configured lanes and categories; start
    positions and speeds draw from the configured ranges. A fraction of
    agents receives a single constant-turn-rate segment mid-run. Every
    frame's geometry and visibility (``Scenario.geometry``) and each view's
    ground clutter (``Scenario.clutter``) are made here.
    """
    if seed < 0:
        raise ConfigurationError("seed must be non-negative")
    rng = np.random.default_rng([seed, 0x5EED])
    times = np.arange(int(round(config.duration_s * config.frame_rate_hz)) + 1) / config.frame_rate_hz

    agents = []
    pop = config.agents
    for i in range(pop.count):
        lane = pop.lanes[i % len(pop.lanes)]
        category = pop.categories[i % len(pop.categories)]
        slot = i // len(pop.lanes)
        x0 = float(rng.uniform(*pop.x_start_range))
        x0 += slot * pop.lane_slot_spacing_m * math.cos(lane.heading)
        y0 = lane.y + slot * pop.lane_slot_spacing_m * math.sin(lane.heading)
        speed = float(rng.uniform(*pop.speed_range))
        turns = rng.random() < pop.turn_fraction
        segments: List[Tuple[float, float]] = []
        if turns:
            t_turn = float(rng.uniform(0.2 * config.duration_s, 0.5 * config.duration_s))
            turn_dur = (math.pi / 2) / pop.turn_rate
            omega = pop.turn_rate if rng.random() < 0.5 else -pop.turn_rate
            segments = [(t_turn, 0.0), (turn_dur, omega), (math.inf, 0.0)]
        waypoints = _integrate_track((x0, y0), lane.heading, speed, segments, times)
        agents.append(
            Agent(id=i + 1, category=category, dims=CATEGORY_DIMS[category], waypoints=waypoints)
        )

    ego_waypoints = _integrate_track(
        config.ego_start, config.ego_yaw, config.ego_speed, [], times
    )
    occluders = tuple(tuple(map(float, rect)) for rect in config.occluders)
    for rect in occluders:
        if not (rect[0] < rect[2] and rect[1] < rect[3]):
            raise ConfigurationError(f"occluder rectangle {rect} is degenerate")

    infra_pose = Pose(config.infra_position[0], config.infra_position[1], 0.0, config.infra_yaw)
    infra_xy = np.array([infra_pose.x, infra_pose.y])
    sensor_xy = {View.VEHICLE: ego_waypoints[:, 1:3],
                 View.INFRA: np.broadcast_to(infra_xy, (len(times), 2))}
    ranges = {View.VEHICLE: config.vehicle_range_m, View.INFRA: config.infra_range_m}
    scn = Scenario(
        config=config,
        seed=seed,
        agents=tuple(agents),
        ego_waypoints=ego_waypoints,
        infra_pose=infra_pose,
        occluders=occluders,
        geometry=_frame_geometry(agents, sensor_xy, ranges, occluders, config.surface_pts_per_m),
        clutter={},
    )
    grids = {View.VEHICLE: config.vehicle_grid, View.INFRA: config.infra_grid}
    return replace(scn, clutter={view: scenario_clutter(scn, view, grids[view]) for view in View})


def ground_truth_at(s: Scenario, t: float, view: View) -> Tuple[np.ndarray, Boxes]:
    """The ids (ascending) and world-frame boxes of the agents one sensor sees
    at a frame time: those whose center is within the sensor range and whose
    perimeter has a probe point with an unobstructed 2D ray from the sensor
    (walls and other agent boxes block rays), read from ``FrameGeometry``.
    """
    f, geo = s.frame_index(t), s.geometry
    agents = np.flatnonzero(geo.visible[view][f])
    values = geo.shapes.values[agents]
    values[:, :2] = geo.centres[f, agents]
    values[:, 6] = geo.yaws[f, agents]
    return geo.ids[agents], Boxes(values, geo.shapes.category[agents], geo.shapes.score[agents])
