"""Simulated LiDAR sampling, BEV feature grids, and feature-flow prediction.

A sensor samples points on agent box perimeters with 2D ray occlusion
against walls and other boxes, plus uniform ground clutter. Point clouds
rasterize into a three-channel bird's-eye-view grid (density, max height,
mean intensity), the intermediate representation transmitted between
roadside infrastructure and the vehicle. Grid motion is summarized by a
first-order finite-difference flow, itself a grid of per-second rates,
which lets a receiver extrapolate a stale grid forward in time with a
linear model.

All operations are pure given explicit seeds; grids are treated as
immutable after construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NumericError, OrderingError, ShapeMismatchError
from .geometry import Blockers, Box3D, inverse, segments_hit_blockers

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario


class View(Enum):
    VEHICLE = "vehicle"
    INFRA = "infra"


_VIEW_CODE = {View.VEHICLE: 0, View.INFRA: 1}

DENSITY_CHANNEL = 0
HEIGHT_CHANNEL = 1
INTENSITY_CHANNEL = 2


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a BEV raster: origin corner, cell size, and shape."""

    x0: float
    y0: float
    cell_size: float
    cols: int
    rows: int
    channels: int = 3

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ConfigurationError("cell_size must be positive")
        if self.cols <= 0 or self.rows <= 0 or self.channels <= 0:
            raise ConfigurationError("grid shape must be positive")

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.rows, self.cols, self.channels)

    def cell_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshgrid of cell-center coordinates, each (rows, cols)."""
        xs = self.x0 + (np.arange(self.cols) + 0.5) * self.cell_size
        ys = self.y0 + (np.arange(self.rows) + 0.5) * self.cell_size
        return np.meshgrid(xs, ys)


@dataclass
class PointCloud:
    """Points as an (N, 4) array of x, y, z, intensity."""

    points: np.ndarray
    frame: str
    timestamp: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 4)
        if self.points.size and not np.all(np.isfinite(self.points)):
            raise NumericError("point cloud contains non-finite values")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class FeatureGrid:
    """BEV raster of features; values shape (rows, cols, channels).

    A feature flow is a FeatureGrid too: its values are per-second rates of
    change of the grid with the same spec, timestamp and frame.
    """

    spec: GridSpec
    values: np.ndarray
    timestamp: float
    frame: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.shape:
            raise ShapeMismatchError(
                f"grid values {self.values.shape} do not match spec {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericError("grid values must be finite")


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor noise model: position sigma, dropout, clutter density."""

    sigma_m: float = 0.05
    dropout_p: float = 0.0
    clutter_per_m2: float = 0.2

    def __post_init__(self):
        if self.sigma_m < 0 or not 0 <= self.dropout_p < 1 or self.clutter_per_m2 < 0:
            raise ConfigurationError("invalid noise configuration")


def _perimeter_samples(box: Box3D, offsets: Sequence[np.ndarray]) -> np.ndarray:
    """Points on the footprint outline at given per-edge parametric offsets.

    ``offsets`` holds four 1-D arrays, the fractions along each edge of
    ``corners_bev()`` in order; their lengths may differ. Returns the (N, 2)
    world coordinates, edge by edge.
    """
    corners = box.corners_bev()
    out = []
    for e in range(4):
        a = corners[e]
        b = corners[(e + 1) % 4]
        out.append(a[None, :] + offsets[e][:, None] * (b - a)[None, :])
    return np.concatenate(out, axis=0)


# Visibility probes sit strictly inside each edge so that touching corners of
# neighboring footprints do not flip the answer.
_PROBE_OFFSETS = np.array([0.1, 0.3, 0.5, 0.7, 0.9])


def visible_agents(
    sensor_xy,
    boxes: Sequence[Box3D],
    occluders: Sequence[Tuple[float, float, float, float]],
    range_m: float,
) -> np.ndarray:
    """Ray-model visibility of each agent box from a sensor position.

    A box is visible when its center is within sensor range and at least one
    of its 20 perimeter probe points has a 2D ray from the sensor that no wall
    and no other box crosses. All probes of all boxes go through one batched
    ray test; a box never blocks its own probes.
    """
    sensor_xy = np.asarray(sensor_xy, dtype=float)
    if not boxes:
        return np.zeros(0, dtype=bool)
    corners = np.stack([box.corners_bev() for box in boxes])
    a = corners[:, :, None, :]
    b = np.roll(corners, -1, axis=1)[:, :, None, :]
    probes = (a + _PROBE_OFFSETS[:, None] * (b - a)).reshape(-1, 2)
    hits = segments_hit_blockers(
        np.broadcast_to(sensor_xy, probes.shape), probes, Blockers.of(boxes, occluders)
    ).reshape(len(boxes) + len(occluders), len(boxes), -1)
    own = np.arange(len(boxes))
    hits[own, own] = False
    in_range = np.array(
        [math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) <= range_m for box in boxes]
    )
    return in_range & (~hits.any(axis=0)).any(axis=1)


@functools.lru_cache(maxsize=2)
def _clutter_field(rng_seed: int, sensor: View, noise: NoiseConfig, range_m: float):
    """Static ground-clutter field of one (seed, sensor), relative to the sensor.

    Returns read-only (offsets (C, 2), jitter (C, 2) or None, z (C,)); the
    same asphalt returns every frame, with position noise baked in once so
    the raster background does not flicker frame to frame.
    """
    clutter_rng = np.random.default_rng([int(rng_seed), 0xC1, _VIEW_CODE[sensor]])
    count = clutter_rng.poisson(noise.clutter_per_m2 * math.pi * range_m**2)
    radius = range_m * np.sqrt(clutter_rng.random(count))
    theta = 2.0 * math.pi * clutter_rng.random(count)
    offsets = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    jitter = None
    z = np.zeros(count)
    if noise.sigma_m > 0:
        j = clutter_rng.normal(0.0, noise.sigma_m, size=(count, 3))
        jitter = np.ascontiguousarray(j[:, :2])
        z = z + j[:, 2]
    for arr in (offsets, jitter, z):
        if arr is not None:
            arr.setflags(write=False)
    return offsets, jitter, z


def sample_point_cloud(
    s: "Scenario",
    t: float,
    sensor: View,
    noise: NoiseConfig,
    rng_seed: int,
    surface_pts_per_m: float = 6.0,
) -> PointCloud:
    """Sample one sensor frame: agent surface hits plus ground clutter.

    Surface points lie on the box footprint outline with heights uniform in
    [0, box height]; each point's 2D ray from the sensor is tested against
    wall occluders and all other agent footprints, so partially hidden boxes
    thin out proportionally and fully hidden boxes contribute nothing.
    Clutter points model ground returns inside the sensor range disc and are
    not ray-tested. Gaussian position noise and Bernoulli dropout apply
    last. Deterministic for a fixed (scenario, frame, sensor, rng_seed).

    The returned cloud is expressed in the sensor's own frame.
    """
    if rng_seed < 0:
        raise ConfigurationError("rng_seed must be non-negative")
    frame_idx = s.frame_index(t)
    rng = np.random.default_rng([int(rng_seed), frame_idx, _VIEW_CODE[sensor]])

    pose = s.sensor_pose(sensor, t)
    range_m = s.sensor_range(sensor)
    sensor_xy = np.array([pose.x, pose.y])
    boxes = [box for _, box in s.agent_boxes_at(t)]
    blockers = Blockers.of(boxes, s.occluders)

    chunks: List[np.ndarray] = []
    # One loop per target box: the draws below depend on each box's kept
    # point count, so batching targets would reorder the random stream.
    for idx, box in enumerate(boxes):
        if math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) > range_m:
            continue
        # Edge order around corners_bev() is (w, l, w, l). Even spacing with a
        # random phase per edge: stable per-cell coverage so blobs do not
        # fragment, while the raster stays seed-dependent.
        counts = [max(1, int(round(surface_pts_per_m * edge)))
                  for edge in (box.w, box.l, box.w, box.l)]
        pts2d = _perimeter_samples(box, [(np.arange(n) + rng.random()) / n for n in counts])
        hits = segments_hit_blockers(np.broadcast_to(sensor_xy, pts2d.shape), pts2d, blockers)
        hits[idx] = False  # a box never blocks its own outline
        pts2d = pts2d[~hits.any(axis=0)]
        if len(pts2d) == 0:
            continue
        z = rng.random(len(pts2d)) * box.h
        intensity = rng.random(len(pts2d))
        chunks.append(np.column_stack([pts2d, z, intensity]))

    pts = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 4))
    if noise.sigma_m > 0 and len(pts):
        pts[:, :3] += rng.normal(0.0, noise.sigma_m, size=(len(pts), 3))

    offsets, jitter, cz = _clutter_field(rng_seed, sensor, noise, range_m)
    if len(cz):
        cx = sensor_xy[0] + offsets[:, 0]
        cy = sensor_xy[1] + offsets[:, 1]
        if jitter is not None:
            cx, cy = cx + jitter[:, 0], cy + jitter[:, 1]
        # Only the clutter intensities redraw per frame.
        clutter = np.column_stack([cx, cy, cz, rng.random(len(cz))])
        pts = np.concatenate([pts, clutter], axis=0) if len(pts) else clutter

    if noise.dropout_p > 0 and len(pts):
        pts = pts[rng.random(len(pts)) >= noise.dropout_p]

    local = pts.copy()
    if len(pts):
        local[:, :3] = inverse(pose).apply_to_points(pts[:, :3])
    return PointCloud(points=local, frame=sensor.value, timestamp=t)


def rasterize_bev(pc: PointCloud, spec: GridSpec, density_cap: float = 10.0) -> FeatureGrid:
    """Rasterize a point cloud into a (density, max height, mean intensity) grid.

    Density is the per-cell point count divided by ``density_cap`` and
    clipped at 1. Points outside the grid footprint are ignored. The result
    is exactly invariant to point order.
    """
    values = np.zeros(spec.shape)
    pts = pc.points
    ix = np.floor((pts[:, 0] - spec.x0) / spec.cell_size).astype(int)
    iy = np.floor((pts[:, 1] - spec.y0) / spec.cell_size).astype(int)
    ok = (ix >= 0) & (ix < spec.cols) & (iy >= 0) & (iy < spec.rows)
    if np.any(ok):
        flat = iy[ok] * spec.cols + ix[ok]
        z = pts[ok, 2]
        intensity = pts[ok, 3]
        # Sort so floating accumulation order is a pure function of the
        # point multiset, not of input order.
        order = np.lexsort((intensity, z, flat))
        flat, z, intensity = flat[order], z[order], intensity[order]

        # Each cell's points now form one run, highest point last.
        last = np.append(np.flatnonzero(flat[1:] != flat[:-1]), len(flat) - 1)
        cells = flat[last]
        counts = np.diff(last, prepend=-1)
        sum_i = np.bincount(flat, weights=intensity)[cells]
        out = values.reshape(-1, spec.channels)
        out[cells, DENSITY_CHANNEL] = np.minimum(counts / density_cap, 1.0)
        out[cells, HEIGHT_CHANNEL] = z[last]
        out[cells, INTENSITY_CHANNEL] = sum_i / counts
    return FeatureGrid(spec=spec, values=values, timestamp=pc.timestamp, frame=pc.frame)


def extract_feature_flow(f_prev: FeatureGrid, f_curr: FeatureGrid) -> FeatureGrid:
    """First-order backward difference between two grids, per second.

    The flow carries ``f_curr``'s spec, timestamp and frame.
    """
    if f_prev.spec != f_curr.spec:
        raise ShapeMismatchError("flow extraction requires identical grid specs")
    dt = f_curr.timestamp - f_prev.timestamp
    if dt <= 0:
        raise OrderingError(
            f"flow extraction requires increasing timestamps, got {f_prev.timestamp} -> {f_curr.timestamp}"
        )
    return replace(f_curr, values=(f_curr.values - f_prev.values) / dt)


def predict_feature(f0: FeatureGrid, f1: FeatureGrid, tau: float) -> FeatureGrid:
    """Linearly extrapolate a grid ``tau`` seconds forward by its flow: f0 + tau * f1.

    The density channel is clamped at zero from below; height and intensity
    are left unclamped. With tau == 0 the result equals ``f0`` bit for bit
    when its density is nonnegative and it holds no -0.0, as every grid
    ``rasterize_bev`` makes and its decoded copy do; a negative density cell
    comes back as 0.
    """
    if f0.spec != f1.spec:
        raise ShapeMismatchError("prediction requires identical grid specs")
    if tau < 0:
        raise ConfigurationError("prediction horizon must be non-negative")
    values = f0.values + tau * f1.values
    values[:, :, DENSITY_CHANNEL] = np.maximum(values[:, :, DENSITY_CHANNEL], 0.0)
    return FeatureGrid(
        spec=f0.spec, values=values, timestamp=f0.timestamp + tau, frame=f0.frame
    )
