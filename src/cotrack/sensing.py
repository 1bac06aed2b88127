"""Simulated LiDAR sampling, BEV feature grids, and feature-flow prediction.

A sensor samples points on agent box perimeters with 2D ray occlusion
against walls and other boxes, plus uniform ground clutter. Point clouds
rasterize into a three-channel bird's-eye-view grid (density, max height,
mean intensity), the intermediate representation transmitted between
roadside infrastructure and the vehicle. Grid motion is summarized by a
first-order finite-difference flow, itself a grid of per-second rates,
which lets a receiver extrapolate a stale grid forward in time with a
linear model.

A frame's agent outlines are sampled in a few array passes: every in-range
box's outline samples, placed by the scenario's outline table, go through
one ray test from the sensor (``geometry.rays_hit_blockers``). Each box's
random draws (edge phases, then a height and an intensity per kept sample)
start where the boxes before it left the stream, so the frame's uniforms are
drawn once, for every sample kept, and replayed until each box's kept count
is known; the generator then continues from where drawing box by box leaves
it. Clouds are byte for byte the box-by-box sampler's.

Ground clutter belongs to the scenario: ``generate_scenario`` draws each
view's clutter once, from (seed, view, noise, range), as a :class:`Clutter`
holding its sensor-frame positions at the sensor's frame-0 pose, (C, 3), and
their (cell, z) sort on the view's grid. A cloud sampled at that pose with no
dropout carries the clutter: it holds its own agent rows, the scenario's
``Clutter`` and the clutter rows' fresh intensities, the only clutter column
drawn per frame. Its full rows (agent rows, then the clutter's) are built
only when something reads ``PointCloud.points``. For such a
cloud, ``rasterize_bev`` takes every cell that no agent point hits from the
cached sort and sorts only the points of the other cells. Every other cloud is
sorted whole, in three cases. A moving ego's clouds after frame 0 do not
carry the clutter, which is moved to each new pose. Clouds with dropout do
not carry it, as their clutter thins anew each frame. A view with two
clutter heights tied in a cell, as all of them are with zero position noise,
has no cached sort, since its order would need the intensity key. Grids are
bit for bit what sorting the whole cloud gives.

All operations are pure given explicit seeds; grids are treated as
immutable after construction.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (ConfigurationError, NumericError, OrderingError, ShapeMismatchError,
                     check_finite)
from .geometry import Pose, inverse, rays_hit_blockers

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import FrameGeometry, Scenario


class View(Enum):
    VEHICLE = "vehicle"
    INFRA = "infra"


_VIEW_CODE = {View.VEHICLE: 0, View.INFRA: 1}

DENSITY_CHANNEL = 0
HEIGHT_CHANNEL = 1
INTENSITY_CHANNEL = 2

# Largest grid a config may ask for, in cells (rows * cols).
MAX_GRID_CELLS = 1_000_000


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
        check_finite(self, self.x0, self.y0, self.cell_size)
        if self.cell_size <= 0:
            raise ConfigurationError("cell_size must be positive")
        if self.cols <= 0 or self.rows <= 0 or self.channels <= 0:
            raise ConfigurationError("grid shape must be positive")
        if self.cols * self.rows > MAX_GRID_CELLS:
            raise ConfigurationError(
                f"a grid of {self.cols} x {self.rows} cells exceeds {MAX_GRID_CELLS:,} cells")

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
    """Points of x, y, z, intensity: ``own`` (n, 4) rows and, for a cloud that
    carries its scenario's ``clutter`` (see :func:`sample_point_cloud`), that
    :class:`Clutter`'s C positions with their fresh ``intensity`` (C,).

    ``points`` is the (n + C, 4) array of the own rows, then the clutter
    rows: ``own`` itself for a cloud that carries nothing, and a fresh
    read-only array, built on each read, for a carried one; ``len`` builds
    nothing. A merged or decoded cloud carries nothing.
    """

    own: np.ndarray
    frame: str
    timestamp: float
    clutter: Optional["Clutter"] = None
    intensity: Optional[np.ndarray] = None

    def __post_init__(self):
        self.own = np.asarray(self.own, dtype=float)
        if self.own.ndim != 2 or self.own.shape[1] != 4:
            raise ShapeMismatchError(f"points {self.own.shape} are not an (N, 4) array")
        want = None if self.clutter is None else (len(self.clutter.xyz),)
        got = None if self.intensity is None else np.shape(self.intensity)
        if got != want:
            raise ShapeMismatchError(f"clutter intensities {got} do not match the carried "
                                     f"clutter's rows {want}")
        # Carried clutter was checked once, when its scenario was made.
        if self.own.size and not np.all(np.isfinite(self.own)):
            raise NumericError("point cloud contains non-finite values")

    def __len__(self) -> int:
        return len(self.own) + (0 if self.clutter is None else len(self.intensity))

    @property
    def points(self) -> np.ndarray:
        if self.clutter is None:
            return self.own
        points = np.concatenate([self.own, np.column_stack([self.clutter.xyz, self.intensity])])
        points.setflags(write=False)
        return points


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
        check_finite(self, self.sigma_m, self.dropout_p, self.clutter_per_m2)
        if self.sigma_m < 0 or not 0 <= self.dropout_p < 1 or self.clutter_per_m2 < 0:
            raise ConfigurationError("invalid noise configuration")


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
    """A view's in-grid clutter on ``spec``, sorted by (cell, z)."""

    spec: GridSpec
    rows: np.ndarray  # clutter row of each sorted point
    flat: np.ndarray  # its cell
    z: np.ndarray  # its height
    last: np.ndarray  # run ends: each cell's count and last (highest) z


class Clutter:
    """Ground clutter of one scenario view, made once by ``generate_scenario``.

    ``field`` is the seed's draw relative to the sensor position: offsets
    (C, 2), jitter (C, 2) or None, and z (C,). ``xyz`` (C, 3) holds the
    clutter in the frame of the sensor at its frame-0 ``pose``, checked
    finite; every cloud that carries the clutter shares it. ``grid`` is its
    sort on the view's grid, or None when two clutter heights tie in a cell.
    Every array is read-only.

    A plain object, not a tuple or dataclass, so that the benchmark's tracer
    digests a scenario's clutter (about 0.5 MB per view) by identity rather
    than hashing it on every traced call that takes the scenario.
    """

    def __init__(self, field, pose: Pose, xyz: np.ndarray, grid: Optional[StaticGrid]):
        self.field, self.pose, self.xyz, self.grid = field, pose, xyz, grid


def _clutter_xyz(field, pose: Pose) -> np.ndarray:
    """The clutter ``field`` in the frame of its sensor at ``pose``.

    ``Pose.apply_to_points`` works row by row, so these rows are bitwise
    what transforming a whole cloud gives.
    """
    offsets, jitter, z = field
    cx = pose.x + offsets[:, 0]
    cy = pose.y + offsets[:, 1]
    if jitter is not None:
        cx, cy = cx + jitter[:, 0], cy + jitter[:, 1]
    return inverse(pose).apply_to_points(np.column_stack([cx, cy, z]))


def scenario_clutter(s: "Scenario", sensor: View, spec: GridSpec) -> Clutter:
    """The ground clutter ``sensor`` sees in ``s``, sorted on ``spec``.

    The draw depends only on (seed, sensor, noise, range) and is relative to
    the sensor: the same asphalt returns every frame, with position noise
    baked in once so the raster background does not flicker frame to frame.
    """
    noise, range_m = s.config.noise, s.sensor_range(sensor)
    rng = np.random.default_rng([s.seed, 0xC1, _VIEW_CODE[sensor]])
    count = rng.poisson(noise.clutter_per_m2 * math.pi * range_m**2)
    radius = range_m * np.sqrt(rng.random(count))
    theta = 2.0 * math.pi * rng.random(count)
    offsets = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    jitter, z = None, np.zeros(count)
    if noise.sigma_m > 0:
        j = rng.normal(0.0, noise.sigma_m, size=(count, 3))
        jitter = np.ascontiguousarray(j[:, :2])
        z = z + j[:, 2]
    pose = s.sensor_pose(sensor, 0.0)
    xyz = _clutter_xyz((offsets, jitter, z), pose)
    if not np.all(np.isfinite(xyz)):
        raise NumericError("point cloud contains non-finite values")

    flat, ok = _grid_cells(spec, xyz)
    rows = np.flatnonzero(ok)
    order = np.lexsort((xyz[rows, 2], flat))
    rows, flat = rows[order], flat[order]
    cz = xyz[rows, 2]
    # Heights that tie in a cell are ordered by intensity alone: no cached sort.
    tied = np.any((flat[1:] == flat[:-1]) & (cz[1:] == cz[:-1]))
    grid = None if tied else StaticGrid(spec, rows, flat, cz, _run_ends(flat))
    for arr in (offsets, jitter, z, xyz, *(grid[1:] if grid else ())):
        if arr is not None:
            arr.setflags(write=False)
    return Clutter((offsets, jitter, z), pose, xyz, grid)


def _pose_bytes(p: Pose) -> bytes:
    return struct.pack("4d", p.x, p.y, p.z, p.yaw)


# Each footprint corner's successor counter-clockwise: the far end of its edge.
_NEXT_CORNER = [1, 2, 3, 0]


def _outline_points(geo: "FrameGeometry", f: int, pose: Pose, range_m: float,
                    rng: np.random.Generator) -> np.ndarray:
    """The agent outline points a sensor at ``pose`` keeps in frame ``f``, (M, 4).

    Each in-range box, in agent order, takes from ``rng`` 4 edge phases (its
    samples sit at ``(index + phase) / count`` along each edge), then a
    uniform height fraction and an intensity for each sample whose ray from
    the sensor no wall and no other box crosses: 4 + 2 * kept draws. So box
    k's draws start where the kept counts of the boxes before it put them,
    and are drawn here in one pass and replayed. ``u`` holds the most the
    boxes can take, every sample kept. The first round guesses that every
    box keeps all its samples and ray-tests them all at once; the first box
    whose kept count differs from its guess fixes where the next box starts,
    so the boxes after it are tested again with this round's counts as the
    guess, until every guess holds. Heights and intensities are then read
    from ``u``, and ``rng`` is left where drawing box by box leaves it.
    """
    sx, sy = pose.x, pose.y
    near = [math.hypot(x - sx, y - sy) <= range_m for x, y in geo.centres[f].tolist()]
    if not any(near):
        return np.zeros((0, 4))
    ol = geo.outlines
    edge, agent, side, index, count = ol.edge, ol.agent, ol.side, ol.index, ol.count
    size, height = ol.size, ol.height
    if all(near):
        box = agent
    else:
        near = np.array(near)
        pick = near[agent]
        edge, agent, side, index, count = (a[pick] for a in (edge, agent, side, index, count))
        box = (np.cumsum(near) - 1)[agent]
        size, height = size[near], height[near]
    c = geo.corners[f]
    d = (c[:, _NEXT_CORNER] - c).reshape(-1, 2)
    c = c.reshape(-1, 2)
    ax, ay, dx, dy = c[edge, 0], c[edge, 1], d[edge, 0], d[edge, 1]
    origin = np.array([sx, sy])
    blockers = geo.blockers(f)

    state = rng.bit_generator.state
    u = rng.random(4 * len(size) + 2 * int(size.sum()))
    first = np.cumsum(size) - size  # each box's first sample
    kept = size.copy()
    x, y = np.empty(len(edge)), np.empty(len(edge))
    keep = np.empty(len(edge), dtype=bool)
    k = 0
    while True:
        takes = 4 + 2 * kept
        start = np.cumsum(takes) - takes
        j = first[k]
        rest = box[j:]
        offset = (index[j:] + u[start[rest] + side[j:]]) / count[j:]
        x[j:] = ax[j:] + offset * dx[j:]
        y[j:] = ay[j:] + offset * dy[j:]
        hits = rays_hit_blockers(origin, x[j:], y[j:], blockers)
        hits[agent[j:], np.arange(len(rest))] = False  # a box never blocks its own outline
        keep[j:] = ~hits.any(axis=0)
        got = np.bincount(rest[keep[j:]], minlength=len(size))[k:]
        wrong = np.flatnonzero(got != kept[k:])
        kept[k:] = got
        if not len(wrong):
            break
        k += int(wrong[0]) + 1
        if k == len(size):
            break

    takes = 4 + 2 * kept
    start = np.cumsum(takes) - takes
    box = box[keep]
    rank = np.arange(len(box)) - np.repeat(np.cumsum(kept) - kept, kept)
    z_at = start[box] + 4 + rank
    pts = np.empty((len(box), 4))
    pts[:, 0], pts[:, 1] = x[keep], y[keep]
    pts[:, 2] = u[z_at] * height[box]
    pts[:, 3] = u[z_at + kept[box]]
    rng.bit_generator.state = state
    rng.bit_generator.advance(int(takes.sum()))
    return pts


def sample_point_cloud(s: "Scenario", t: float, sensor: View) -> PointCloud:
    """Sample one sensor frame: agent surface hits plus ground clutter.

    Surface points lie on the box footprint outline with heights uniform in
    [0, box height]; each point's 2D ray from the sensor is tested against
    wall occluders and all other agent footprints, so partially hidden boxes
    thin out proportionally and fully hidden boxes contribute nothing.
    Clutter points model ground returns inside the sensor range disc and are
    not ray-tested. Gaussian position noise and Bernoulli dropout apply
    last. The noise, the seed and the surface point density are the
    scenario's; the cloud is deterministic for a fixed (scenario, frame,
    sensor).

    Footprint corners, ray blockers and outline samples come from the
    scenario's frame geometry (``Scenario.geometry``), made once per
    scenario, and every in-range box is sampled in a few array passes
    (:func:`_outline_points`), bitwise as sampling one box at a time gives.

    The returned cloud is expressed in the sensor's own frame, agent rows
    first and the scenario's clutter rows last. It carries the
    :class:`Clutter` when the sensor is at its frame-0 pose, compared bit for
    bit, and the noise has no dropout: only its agent rows and the clutter
    intensities are written here. A moving ego's cloud after frame 0 carries
    none: its clutter is moved to the new pose. A cloud with dropout carries
    none: its clutter rows are thinned. Either is built whole.
    """
    noise = s.config.noise
    frame_idx = s.frame_index(t)
    rng = np.random.default_rng([s.seed, frame_idx, _VIEW_CODE[sensor]])
    pose = s.sensor_pose(sensor, t)
    pts = _outline_points(s.geometry, frame_idx, pose, s.sensor_range(sensor), rng)
    if noise.sigma_m > 0 and len(pts):
        pts[:, :3] += rng.normal(0.0, noise.sigma_m, size=(len(pts), 3))

    clutter = s.clutter[sensor]
    at_rest = _pose_bytes(pose) == _pose_bytes(clutter.pose)
    carried = clutter if at_rest and noise.dropout_p == 0 else None
    xyz = clutter.xyz if at_rest else _clutter_xyz(clutter.field, pose)
    # Only the clutter intensities redraw per frame.
    clutter_i = rng.random(len(xyz))
    if noise.dropout_p > 0:
        keep = rng.random(len(pts) + len(xyz)) >= noise.dropout_p
        pts, kept = pts[keep[:len(pts)]], keep[len(pts):]
        xyz, clutter_i = xyz[kept], clutter_i[kept]

    n = len(pts)
    local = np.empty((n + (len(xyz) if carried is None else 0), 4))
    local[:n, :3] = inverse(pose).apply_to_points(pts[:, :3])
    local[:n, 3] = pts[:, 3]
    if carried is None:
        local[n:, :3] = xyz
        local[n:, 3] = clutter_i
        clutter_i = None
    else:
        clutter_i.setflags(write=False)
    local.setflags(write=False)
    return PointCloud(local, sensor.value, t, carried, clutter_i)


def _rasterize_sorted(out: np.ndarray, flat: np.ndarray, z: np.ndarray, intensity: np.ndarray,
                      last: np.ndarray, density_cap: float) -> None:
    """Write the cells of points sorted by (cell, z, intensity), ``last`` their run ends."""
    cells = flat[last]
    counts = np.diff(last, prepend=-1)
    sum_i = np.bincount(flat, weights=intensity)[cells]
    out[cells, DENSITY_CHANNEL] = np.minimum(counts / density_cap, 1.0)
    out[cells, HEIGHT_CHANNEL] = z[last]
    out[cells, INTENSITY_CHANNEL] = sum_i / counts


def rasterize_bev(pc: PointCloud, spec: GridSpec, density_cap: float = 10.0) -> FeatureGrid:
    """Rasterize a point cloud into a (density, max height, mean intensity) grid.

    Density is the per-cell point count divided by ``density_cap`` and
    clipped at 1. Points outside the grid footprint are ignored. The result
    is exactly invariant to point order.

    A cloud that carries clutter sorted on ``spec`` (see
    :func:`sample_point_cloud`) takes the cells that no other point hits (the
    clean cells) from that sort, which is the (cell, z, intensity) order
    there because no two of their heights tie; the points of the other
    (dirty) cells are sorted with those three keys. Every other cloud is
    sorted whole. The grid is bit for bit the same either way.
    """
    values = np.zeros(spec.shape)
    out = values.reshape(-1, spec.channels)
    g = pc.clutter.grid if pc.clutter is not None else None
    if g is not None and g.spec == spec:
        own, s_i = pc.own, pc.intensity[g.rows]
        if len(g.flat):
            _rasterize_sorted(out, g.flat, g.z, s_i, g.last, density_cap)
        flat, ok = _grid_cells(spec, own)
        # Dirty cells are written again below, from all of their points.
        dirty = np.zeros(spec.rows * spec.cols, dtype=bool)
        dirty[flat] = True
        redo = dirty[g.flat]
        flat = np.concatenate([flat, g.flat[redo]])
        z = np.concatenate([own[ok, 2], g.z[redo]])
        intensity = np.concatenate([own[ok, 3], s_i[redo]])
    else:
        pts = pc.points
        flat, ok = _grid_cells(spec, pts)
        z, intensity = pts[ok, 2], pts[ok, 3]
    if len(flat):
        # Sort so floating accumulation order is a pure function of the
        # point multiset, not of input order.
        order = np.lexsort((intensity, z, flat))
        flat = flat[order]
        # Each cell's points now form one run, highest point last.
        _rasterize_sorted(out, flat, z[order], intensity[order], _run_ends(flat), density_cap)
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
