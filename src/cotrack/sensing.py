"""Simulated LiDAR sampling, BEV feature grids, and feature-flow prediction.

A sensor samples points on agent box perimeters with 2D ray occlusion
against walls and other boxes, plus uniform ground clutter. Point clouds
rasterize into a three-channel bird's-eye-view grid (density, max height,
mean intensity), the intermediate representation transmitted between
roadside infrastructure and the vehicle. Grid motion is summarized by a
first-order finite-difference flow, which lets a receiver extrapolate a
stale grid forward in time with a linear model.

All operations are pure given explicit seeds; grids are treated as
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, OrderingError, ShapeMismatchError
from .geometry import Box3D, inverse, segments_hit_aabb, segments_hit_box

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
            raise ValueError("point cloud contains non-finite values")

    def __len__(self) -> int:
        return len(self.points)

    def xyz(self) -> np.ndarray:
        return self.points[:, :3]


@dataclass
class FeatureGrid:
    """BEV raster of features; values shape (rows, cols, channels)."""

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
            raise ValueError("grid values must be finite")


@dataclass
class FeatureFlow:
    """Per-second rate of change of a FeatureGrid, same shape as its grid."""

    spec: GridSpec
    values: np.ndarray
    timestamp: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.shape:
            raise ShapeMismatchError(
                f"flow values {self.values.shape} do not match spec {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("flow values must be finite")


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


def _blocked(
    sensor_xy: np.ndarray,
    targets: np.ndarray,
    occluders: Sequence[Tuple[float, float, float, float]],
    boxes: Sequence[Box3D],
) -> np.ndarray:
    """Whether the ray from the sensor to each 2D target point is blocked."""
    n = len(targets)
    starts = np.broadcast_to(sensor_xy, (n, 2))
    blocked = np.zeros(n, dtype=bool)
    for rect in occluders:
        blocked |= segments_hit_aabb(starts, targets, rect)
    for box in boxes:
        blocked |= segments_hit_box(starts, targets, box)
    return blocked


def agent_visible(
    sensor_xy,
    box: Box3D,
    blocking_boxes: Sequence[Box3D],
    occluders: Sequence[Tuple[float, float, float, float]],
    range_m: float,
) -> bool:
    """Ray-model visibility of one agent box from a sensor position.

    The box is visible when its center is within sensor range and at least
    one of a fixed set of perimeter probe points has an unobstructed ray
    from the sensor. Probes sit strictly inside each edge so that touching
    corners of neighboring footprints do not flip the answer.
    """
    sensor_xy = np.asarray(sensor_xy, dtype=float)
    if math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) > range_m:
        return False
    offsets = np.tile(np.array([0.1, 0.3, 0.5, 0.7, 0.9]), (4, 1))
    probes = _perimeter_samples(box, offsets)
    blocked = _blocked(sensor_xy, probes, occluders, blocking_boxes)
    return bool(np.any(~blocked))


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
    boxes = s.agent_boxes_at(t)

    chunks: List[np.ndarray] = []
    for idx, (_, box) in enumerate(boxes):
        if math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) > range_m:
            continue
        # Edge order around corners_bev() is (w, l, w, l). Even spacing with a
        # random phase per edge: stable per-cell coverage so blobs do not
        # fragment, while the raster stays seed-dependent.
        counts = [max(1, int(round(surface_pts_per_m * edge)))
                  for edge in (box.w, box.l, box.w, box.l)]
        pts2d = _perimeter_samples(box, [(np.arange(n) + rng.random()) / n for n in counts])
        others = [b for j, (_, b) in enumerate(boxes) if j != idx]
        keep = ~_blocked(sensor_xy, pts2d, s.occluders, others)
        pts2d = pts2d[keep]
        if len(pts2d) == 0:
            continue
        z = rng.random(len(pts2d)) * box.h
        intensity = rng.random(len(pts2d))
        chunks.append(np.column_stack([pts2d, z, intensity]))

    pts = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 4))
    if noise.sigma_m > 0 and len(pts):
        pts[:, :3] += rng.normal(0.0, noise.sigma_m, size=(len(pts), 3))

    # Ground clutter is a static field per (seed, sensor): the same asphalt
    # returns every frame, with position noise baked in once at field
    # creation so the raster background does not flicker frame to frame.
    # Only the clutter intensities redraw per frame.
    clutter_rng = np.random.default_rng([int(rng_seed), 0xC1, _VIEW_CODE[sensor]])
    clutter_count = clutter_rng.poisson(noise.clutter_per_m2 * math.pi * range_m**2)
    if clutter_count > 0:
        radius = range_m * np.sqrt(clutter_rng.random(clutter_count))
        theta = 2.0 * math.pi * clutter_rng.random(clutter_count)
        cx = sensor_xy[0] + radius * np.cos(theta)
        cy = sensor_xy[1] + radius * np.sin(theta)
        cz = np.zeros(clutter_count)
        if noise.sigma_m > 0:
            jitter = clutter_rng.normal(0.0, noise.sigma_m, size=(clutter_count, 3))
            cx, cy, cz = cx + jitter[:, 0], cy + jitter[:, 1], cz + jitter[:, 2]
        clutter = np.column_stack([cx, cy, cz, rng.random(clutter_count)])
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
    if len(pts):
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

            ncells = spec.rows * spec.cols
            counts = np.bincount(flat, minlength=ncells).astype(float)
            max_z = np.full(ncells, -np.inf)
            np.maximum.at(max_z, flat, z)
            max_z[counts == 0] = 0.0
            sum_i = np.zeros(ncells)
            np.add.at(sum_i, flat, intensity)
            mean_i = np.divide(sum_i, counts, out=np.zeros(ncells), where=counts > 0)

            values[:, :, DENSITY_CHANNEL] = np.minimum(counts / density_cap, 1.0).reshape(
                spec.rows, spec.cols
            )
            values[:, :, HEIGHT_CHANNEL] = max_z.reshape(spec.rows, spec.cols)
            values[:, :, INTENSITY_CHANNEL] = mean_i.reshape(spec.rows, spec.cols)
    return FeatureGrid(spec=spec, values=values, timestamp=pc.timestamp, frame=pc.frame)


def extract_feature_flow(f_prev: FeatureGrid, f_curr: FeatureGrid) -> FeatureFlow:
    """First-order backward difference between two grids, per second."""
    if f_prev.spec != f_curr.spec:
        raise ShapeMismatchError("flow extraction requires identical grid specs")
    dt = f_curr.timestamp - f_prev.timestamp
    if dt <= 0:
        raise OrderingError(
            f"flow extraction requires increasing timestamps, got {f_prev.timestamp} -> {f_curr.timestamp}"
        )
    return FeatureFlow(
        spec=f_curr.spec,
        values=(f_curr.values - f_prev.values) / dt,
        timestamp=f_curr.timestamp,
    )


def predict_feature(f0: FeatureGrid, f1: FeatureFlow, tau: float) -> FeatureGrid:
    """Linearly extrapolate a grid ``tau`` seconds forward: f0 + tau * f1.

    The density channel is clamped at zero from below; height and intensity
    are left unclamped. With tau == 0 the result equals ``f0`` exactly.
    """
    if f0.spec != f1.spec:
        raise ShapeMismatchError("prediction requires identical grid specs")
    if tau < 0:
        raise ValueError("prediction horizon must be non-negative")
    values = f0.values + tau * f1.values
    values[:, :, DENSITY_CHANNEL] = np.maximum(values[:, :, DENSITY_CHANNEL], 0.0)
    return FeatureGrid(
        spec=f0.spec, values=values, timestamp=f0.timestamp + tau, frame=f0.frame
    )
