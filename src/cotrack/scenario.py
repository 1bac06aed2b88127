"""Deterministic synthetic scenario generation and per-view ground truth.

A scenario is an intersection-scale world: kinematic agents on lanes, a
stationary roadside sensor, an ego vehicle, and optional wall occluders.
Everything is generated from (config, seed) and immutable afterwards, so
scenarios can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import AlignmentError, ConfigurationError
from .geometry import Box3D, Category, Pose, Region, transform_box, wrap_angle
from .sensing import GridSpec, NoiseConfig, View, visible_agents


class Provenance(Enum):
    VEHICLE_SIDE = "vehicle"
    INFRA_SIDE = "infra"
    FUSED = "fused"


@dataclass(frozen=True)
class TrackedObject:
    """A box with identity at one timestamp."""

    box: Box3D
    track_id: int
    timestamp: float
    provenance: Provenance = Provenance.FUSED
    score: float = 1.0


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
        if self.count < 0:
            raise ConfigurationError("agent count must be non-negative")
        if not self.lanes:
            raise ConfigurationError("at least one lane template is required")
        if not self.categories:
            raise ConfigurationError("at least one agent category is required")
        if self.speed_range[0] < 0 or self.speed_range[1] < self.speed_range[0]:
            raise ConfigurationError("invalid speed range")
        if not 0.0 <= self.turn_fraction <= 1.0:
            raise ConfigurationError("turn_fraction must be in [0, 1]")


def _default_vehicle_grid() -> GridSpec:
    return GridSpec(x0=0.0, y0=-40.0, cell_size=0.5, cols=200, rows=160)


def _default_infra_grid() -> GridSpec:
    return GridSpec(x0=-50.0, y0=-40.0, cell_size=0.5, cols=200, rows=160)


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
    vehicle_grid: GridSpec = field(default_factory=_default_vehicle_grid)
    infra_grid: GridSpec = field(default_factory=_default_infra_grid)
    density_cap: float = 10.0
    surface_pts_per_m: float = 6.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.frame_rate_hz <= 0:
            raise ConfigurationError("frame rate must be positive")
        if self.vehicle_range_m <= 0 or self.infra_range_m <= 0:
            raise ConfigurationError("sensor ranges must be positive")
        if self.ego_speed < 0:
            raise ConfigurationError("ego speed must be non-negative")


@dataclass(frozen=True)
class Agent:
    """One scripted traffic participant; waypoints cover every frame time."""

    id: int
    category: Category
    dims: Tuple[float, float, float]  # (w, l, h)
    # waypoints[k] = (t, x, y, yaw, speed) at frame k.
    waypoints: np.ndarray

    def box_at(self, frame_idx: int) -> Box3D:
        _, x, y, yaw, _ = self.waypoints[frame_idx]
        w, l, h = self.dims
        return Box3D(x=x, y=y, z=0.5 * h, w=w, l=l, h=h, yaw=yaw, category=self.category)


@dataclass(frozen=True)
class Scenario:
    """Immutable generated world plus sensor configuration."""

    config: ScenarioConfig
    seed: int
    agents: Tuple[Agent, ...]
    ego_waypoints: np.ndarray  # (K, 5): t, x, y, yaw, speed
    infra_pose: Pose
    occluders: Tuple[Tuple[float, float, float, float], ...]

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

    def agent_boxes_at(self, t: float) -> List[Tuple[int, Box3D]]:
        idx = self.frame_index(t)
        return [(a.id, a.box_at(idx)) for a in self.agents]


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


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Build a deterministic scenario from a config and a seed.

    Agents cycle through the configured lanes and categories; start
    positions and speeds draw from the configured ranges. A fraction of
    agents receives a single constant-turn-rate segment mid-run.
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

    return Scenario(
        config=config,
        seed=seed,
        agents=tuple(agents),
        ego_waypoints=ego_waypoints,
        infra_pose=Pose(config.infra_position[0], config.infra_position[1], 0.0, config.infra_yaw),
        occluders=occluders,
    )


def ground_truth_at(s: Scenario, t: float, view: View) -> List[TrackedObject]:
    """World-frame ground truth visible to one sensor at a frame time.

    An agent appears when its center is within the sensor range and at
    least one perimeter probe point has an unobstructed 2D ray from the
    sensor (walls and other agent boxes block rays).
    """
    idx = s.frame_index(t)
    pose = s.sensor_pose(view, t)
    provenance = Provenance.VEHICLE_SIDE if view is View.VEHICLE else Provenance.INFRA_SIDE
    boxes = [a.box_at(idx) for a in s.agents]
    visible = visible_agents((pose.x, pose.y), boxes, s.occluders, s.sensor_range(view))
    return [
        TrackedObject(box=box, track_id=a.id, timestamp=t, provenance=provenance)
        for a, box, seen in zip(s.agents, boxes, visible)
        if seen
    ]


def cooperative_ground_truth(
    gt_v: Sequence[TrackedObject], gt_i: Sequence[TrackedObject], r: Region
) -> List[TrackedObject]:
    """Union of the two per-view ground truths restricted to a region.

    Both inputs must be expressed in the ego frame at the same timestamp.
    The union is keyed by track id (agents share ids across views); the
    vehicle-side box wins when both views carry the same agent. Output is
    sorted by track id and contains each id at most once.
    """
    merged: Dict[int, TrackedObject] = {}
    for obj in list(gt_i) + list(gt_v):  # vehicle side overwrites infra side
        merged[obj.track_id] = obj
    kept = [o for o in merged.values() if r.contains(o.box.x, o.box.y)]
    return sorted(kept, key=lambda o: o.track_id)


def objects_to_frame(objects: Sequence[TrackedObject], src_to_dst: Pose) -> List[TrackedObject]:
    """Re-express tracked objects in another frame."""
    return [replace(o, box=transform_box(o.box, src_to_dst)) for o in objects]
