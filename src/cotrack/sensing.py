"""Simulated LiDAR sampling, BEV feature grids, and feature-flow prediction.

A sensor samples points on agent box perimeters with 2D ray occlusion
against walls and other boxes, plus uniform ground clutter. Point clouds
rasterize into a three-channel bird's-eye-view grid (density, max height,
mean intensity), the intermediate representation transmitted between
roadside infrastructure and the vehicle. Grid motion is summarized by a
first-order finite-difference flow, itself a grid of per-second rates,
which lets a receiver extrapolate a stale grid forward in time with a
linear model.

Ground clutter is static: its draw depends only on (seed, view, noise,
range), and a still sensor sees it at the same sensor-frame points every
frame; only its intensities are drawn anew. ``static_returns`` caches, per
(seed, view, noise, range) and the latest sensor pose, the clutter's
sensor-frame points and, per GridSpec, their (cell, z) sort. A sampled
cloud ends with those rows, and ``rasterize_bev`` takes every cell that no
agent point hits and where no two clutter points tie on z from the cached
sort; only the points of the other (dirty) cells are sorted per frame. The
first cloud of a pose misses the cache and is rasterized whole, and so is
every cloud of a moving ego, whose pose is new every frame. Grids are bit
for bit what sorting the whole cloud gives.

All operations are pure given explicit seeds; grids are treated as
immutable after construction.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import InitVar, dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NumericError, OrderingError, ShapeMismatchError
from .geometry import Blockers, Box3D, Pose, inverse, segments_hit_blockers

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
    """Points as an (N, 4) array of x, y, z, intensity.

    A sampled cloud also holds ``static_rows`` (the init-only ``static``): its
    last rows are the ground clutter of a cached :class:`StaticReturns`,
    which :func:`rasterize_bev` reads instead of re-sorting them. Such a
    cloud's points are read-only. A cloud built from new points (``replace``,
    a merged or decoded cloud) has none.
    """

    points: np.ndarray
    frame: str
    timestamp: float
    static: InitVar[Optional["StaticRows"]] = None

    def __post_init__(self, static):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 4)
        self.static_rows: Optional[StaticRows] = static
        # Static rows were checked once, when their returns were cached.
        own = self.points if static is None else self.points[:len(self) - static.count]
        if own.size and not np.all(np.isfinite(own)):
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


def _frozen(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _grid_cells(spec: GridSpec, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat cell index of each point inside the grid, and the inside mask."""
    ix = np.floor((points[:, 0] - spec.x0) / spec.cell_size).astype(int)
    iy = np.floor((points[:, 1] - spec.y0) / spec.cell_size).astype(int)
    ok = (ix >= 0) & (ix < spec.cols) & (iy >= 0) & (iy < spec.rows)
    return iy[ok] * spec.cols + ix[ok], ok


def _run_ends(flat: np.ndarray) -> np.ndarray:
    """Index of the last point of each cell's run in cell-sorted points."""
    return np.append(np.flatnonzero(flat[1:] != flat[:-1]), len(flat) - 1)


class StaticGrid(NamedTuple):
    """In-grid clutter of one StaticReturns on one GridSpec, sorted by (cell, z)."""

    rows: np.ndarray  # clutter row of each sorted point
    flat: np.ndarray  # its cell
    z: np.ndarray  # its height
    last: np.ndarray  # run ends: each cell's count and last (highest) z
    ties: np.ndarray  # (rows * cols,) bool: cells where two clutter points tie on z


class StaticReturns:
    """Ground clutter of one (seed, view, noise, range) seen from one sensor pose.

    ``field`` is the seed's draw relative to the sensor position: offsets
    (C, 2), jitter (C, 2) or None, and z (C,). ``points`` (C, 4) is the
    clutter in the sensor frame, computed and checked finite once, with zero
    intensity (each frame draws its own); ``Pose.apply_to_points`` works row
    by row, so it is bitwise what transforming a whole cloud gives. Its
    :class:`StaticGrid` on a GridSpec is built on first use. ``reused`` turns
    true when the cache returns it again: only then does a sampled cloud
    hold it, so a pose seen once (a moving ego's) costs no sort and no memory
    beyond the cache entry. Every array is read-only.
    """

    def __init__(self, field, pose: Pose):
        self.field = field
        self.pose_key = _pose_key(pose)
        offsets, jitter, z = field
        cx = pose.x + offsets[:, 0]
        cy = pose.y + offsets[:, 1]
        if jitter is not None:
            cx, cy = cx + jitter[:, 0], cy + jitter[:, 1]
        self.points = np.zeros((len(z), 4))
        self.points[:, :3] = inverse(pose).apply_to_points(np.column_stack([cx, cy, z]))
        if not np.all(np.isfinite(self.points)):
            raise NumericError("point cloud contains non-finite values")
        _frozen(self.points)
        self.reused = False
        self._grids = {}

    def __len__(self) -> int:
        return len(self.points)

    def grid(self, spec: GridSpec) -> StaticGrid:
        cached = self._grids.get(spec)
        if cached is None:
            flat, ok = _grid_cells(spec, self.points)
            rows = np.flatnonzero(ok)
            z = self.points[rows, 2]
            order = np.lexsort((z, flat))
            rows, flat, z = rows[order], flat[order], z[order]
            ties = np.zeros(spec.rows * spec.cols, dtype=bool)
            ties[flat[1:][(flat[1:] == flat[:-1]) & (z[1:] == z[:-1])]] = True
            cached = StaticGrid(rows, flat, z, _run_ends(flat), ties)
            _frozen(*cached)
            if len(self._grids) >= _STATIC_GRIDS_PER_POSE:
                self._grids.pop(next(iter(self._grids)))
            self._grids[spec] = cached
        return cached


class StaticRows(NamedTuple):
    """The static rows that end a sampled cloud: the clutter rows of
    ``returns`` left after dropout (``kept`` is None when none dropped)."""

    returns: StaticReturns
    kept: Optional[np.ndarray]
    count: int


_STATIC_CACHE_SIZE = 2  # one seed's two views
_STATIC_GRIDS_PER_POSE = 2  # grid specs one pose's clutter is rasterized on
_static_cache: "OrderedDict[tuple, StaticReturns]" = OrderedDict()


def _pose_key(pose: Pose) -> bytes:
    return np.array([pose.x, pose.y, pose.z, pose.yaw]).tobytes()  # -0.0 differs from 0.0


def _clutter_field(rng_seed: int, sensor: View, noise: NoiseConfig, range_m: float):
    """Ground-clutter draw of one (seed, sensor), relative to the sensor.

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
        _frozen(jitter)
    _frozen(offsets, z)
    return offsets, jitter, z


def static_returns(rng_seed: int, sensor: View, noise: NoiseConfig, range_m: float,
                   pose: Pose) -> StaticReturns:
    """The cached StaticReturns of (seed, sensor, noise, range) at ``pose``.

    The cache holds the latest pose of the last two (seed, sensor, noise,
    range) keys. A new pose (a moving ego, every frame) keeps the clutter
    draw and recomputes the sensor-frame points and their grids.
    """
    key = (int(rng_seed), sensor, noise, range_m)
    cached = _static_cache.pop(key, None)
    if cached is None or cached.pose_key != _pose_key(pose):
        field = (cached.field if cached is not None
                 else _clutter_field(rng_seed, sensor, noise, range_m))
        cached = StaticReturns(field, pose)
    else:
        cached.reused = True
    _static_cache[key] = cached
    while len(_static_cache) > _STATIC_CACHE_SIZE:
        _static_cache.popitem(last=False)
    return cached


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

    The returned cloud is expressed in the sensor's own frame, agent rows
    first and the clutter rows last; they are its ``static_rows`` once the
    sensor's pose repeats (see :class:`StaticReturns`).
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

    static = static_returns(rng_seed, sensor, noise, range_m, pose)
    # Only the clutter intensities redraw per frame.
    clutter = static.points
    clutter_i = rng.random(len(static)) if len(static) else np.zeros(0)
    kept = None
    if noise.dropout_p > 0 and len(pts) + len(static):
        keep = rng.random(len(pts) + len(static)) >= noise.dropout_p
        pts, kept = pts[keep[:len(pts)]], keep[len(pts):]
        clutter, clutter_i = clutter[kept], clutter_i[kept]

    local = np.empty((len(pts) + len(clutter), 4))
    if len(pts):
        local[:len(pts), :3] = inverse(pose).apply_to_points(pts[:, :3])
        local[:len(pts), 3] = pts[:, 3]
    local[len(pts):] = clutter
    local[len(pts):, 3] = clutter_i
    _frozen(local)
    return PointCloud(points=local, frame=sensor.value, timestamp=t,
                      static=StaticRows(static, kept, len(clutter)) if static.reused else None)


def _rasterize_sorted(out: np.ndarray, flat: np.ndarray, z: np.ndarray, intensity: np.ndarray,
                      last: np.ndarray, density_cap: float) -> None:
    """Write the cells of points sorted by (cell, z, intensity), ``last`` their run ends."""
    cells = flat[last]
    counts = np.diff(last, prepend=-1)
    sum_i = np.bincount(flat, weights=intensity)[cells]
    out[cells, DENSITY_CHANNEL] = np.minimum(counts / density_cap, 1.0)
    out[cells, HEIGHT_CHANNEL] = z[last]
    out[cells, INTENSITY_CHANNEL] = sum_i / counts


def _rasterize_points(out: np.ndarray, flat: np.ndarray, z: np.ndarray, intensity: np.ndarray,
                      density_cap: float) -> None:
    """Write the cells of in-grid points given in any order."""
    if len(flat):
        # Sort so floating accumulation order is a pure function of the
        # point multiset, not of input order.
        order = np.lexsort((intensity, z, flat))
        flat = flat[order]
        # Each cell's points now form one run, highest point last.
        _rasterize_sorted(out, flat, z[order], intensity[order], _run_ends(flat), density_cap)


def rasterize_bev(pc: PointCloud, spec: GridSpec, density_cap: float = 10.0) -> FeatureGrid:
    """Rasterize a point cloud into a (density, max height, mean intensity) grid.

    Density is the per-cell point count divided by ``density_cap`` and
    clipped at 1. Points outside the grid footprint are ignored. The result
    is exactly invariant to point order.

    The cells of a sampled cloud's static rows that no other point hits and
    where no two clutter points tie on z (the clean cells) take their order
    from the cached StaticGrid, which is the order the (cell, z, intensity)
    sort gives there; the points of all other cells (the dirty cells) are
    sorted as in a cloud without static rows. The grid is bit for bit the same.
    """
    values = np.zeros(spec.shape)
    out = values.reshape(-1, spec.channels)
    pts = pc.points
    static = pc.static_rows
    own = pts if static is None else pts[:len(pts) - static.count]
    flat, ok = _grid_cells(spec, own)
    z, intensity = own[ok, 2], own[ok, 3]
    if static is not None:
        g = static.returns.grid(spec)
        rows, s_flat, s_z, last = g.rows + len(own), g.flat, g.z, g.last
        if static.kept is not None:
            # Cloud row of each clutter row after dropout; the sort still holds.
            kept = static.kept[g.rows]
            rows = (np.cumsum(static.kept) - 1 + len(own))[g.rows[kept]]
            s_flat, s_z = s_flat[kept], s_z[kept]
            last = _run_ends(s_flat)
        s_i = pts[rows, 3]
        if len(s_flat):
            _rasterize_sorted(out, s_flat, s_z, s_i, last, density_cap)
        # Dirty cells are written again below, from all of their points.
        dirty = g.ties.copy()
        dirty[flat] = True
        redo = dirty[s_flat]
        flat = np.concatenate([flat, s_flat[redo]])
        z = np.concatenate([z, s_z[redo]])
        intensity = np.concatenate([intensity, s_i[redo]])
    _rasterize_points(out, flat, z, intensity, density_cap)
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
