"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's own algorithms: assignments come
from exhaustive permutation search, tracking scores from direct
enumeration of gated matchings, the grid codec from the first, dense
implementation (every cell quantized, a boolean mask scattered), and the
detector, rasterizer and Hungarian solve from their first, per-blob,
``ufunc.at`` and array-per-step implementations, late fusion, track
association and cross-view trajectory pairing from their versions with their
own guards and leftover loops, the channel's latest arrived message from
a reverse scan over every message sent, and the payloads a receiver decodes
from points, boxes and raw grids from the float32 mirrors the sender once
built next to the wire bytes. The per-box path the run once took is kept
too: ``Detection`` lists, ``transform_box``, late fusion's ``_merge_pair``
and the tracker that filtered one ``Track`` at a time (``kf_predict``,
``kf_update``, ``PerTrackTracker``), the references for the ``Boxes`` record
and the stacked filter, and the per-object ground truth it scored (``box_at``,
``objects_to_frame``, ``cooperative_ground_truth``). Its one-box record,
``Box3D``, and ``TrackedObject`` (a box with a track id, a time, a provenance
and a score) are kept verbatim, with ``record_of`` and ``rows_of`` to move
between box lists and ``Boxes`` records, and ``trajectory_of`` and
``samples_of`` between (t, box) samples and a ``Trajectory``. ``scipy`` is a test-only dependency:
the detector's connected components are checked against ``ndimage.label``.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import astuple, dataclass, replace

import numpy as np

from typing import List, Optional, Sequence, Tuple

from scipy import ndimage

from cotrack.annotate import MAX_SEGMENTS, Segment, Trajectory
from cotrack.assignment import gated_assignment, solve_assignment
from cotrack.channel import CHANNEL_RANGE, ChannelMessage
from cotrack.detector import DetectParams
from cotrack.errors import (ConfigurationError, DecodeError, EncodeError, NumericError,
                            OrderingError)
from cotrack.geometry import (
    _EPS_T,
    CATEGORY_ORDER,
    Blockers,
    Boxes,
    Category,
    Pose,
    Region,
    center_distances,
    inverse,
    wrap_angle,
)
from cotrack.scenario import Provenance
from cotrack.sensing import (
    DENSITY_CHANNEL,
    HEIGHT_CHANNEL,
    INTENSITY_CHANNEL,
    FeatureGrid,
    GridSpec,
    PointCloud,
    View,
    _VIEW_CODE,
    _clutter_xyz,
)
from cotrack.tracker import MEAS_DIM, MIN_DIM_M, STATE_DIM, TrackerParams, _H, _YAW

_PERM_CACHE = {}


# The one-box record and the tracked object the package used before a box
# became a row of a ``Boxes`` record, verbatim.


@dataclass(frozen=True)
class Box3D:
    """Oriented cuboid: center (x, y, z), dims (w, l, h), yaw heading.

    Width is across the heading, length along it. Dims must be positive.
    """

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    yaw: float = 0.0
    category: Category = Category.CAR

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z, self.w, self.l, self.h, self.yaw)):
            raise NumericError("box fields must be finite")
        if not (self.w > 0 and self.l > 0 and self.h > 0):
            raise ConfigurationError(f"box dims must be positive, got w={self.w} l={self.l} h={self.h}")
        object.__setattr__(self, "yaw", float(wrap_angle(self.yaw)))


@dataclass(frozen=True)
class TrackedObject:
    """A box with identity at one timestamp."""

    box: Box3D
    track_id: int
    timestamp: float
    provenance: Provenance = Provenance.FUSED
    score: float = 1.0


def record_of(boxes: Sequence[Box3D], scores: Optional[Sequence[float]] = None) -> Boxes:
    """The record of ``boxes``, fields as they are; scores default to 1."""
    return Boxes(np.array([(b.x, b.y, b.z, b.w, b.l, b.h, b.yaw) for b in boxes]).reshape(-1, 7),
                 np.array([CATEGORY_ORDER.index(b.category) for b in boxes], dtype=np.uint8),
                 np.ones(len(boxes)) if scores is None else np.array(scores, dtype=float))


def rows_of(record: Boxes) -> List[Box3D]:
    """One ``Box3D`` per row of a ``Boxes`` record."""
    return [Box3D(*row, category=CATEGORY_ORDER[code])
            for row, code in zip(record.values.tolist(), record.category.tolist())]


def trajectory_of(track_id: int, samples: Sequence[Tuple[float, Box3D]],
                  provenance: Provenance = Provenance.FUSED) -> Trajectory:
    """A ``Trajectory`` from (t, box) samples."""
    return Trajectory(track_id, tuple(t for t, _ in samples), record_of([b for _, b in samples]),
                      provenance)


def samples_of(tr: Trajectory) -> List[Tuple[float, Box3D]]:
    """A ``Trajectory`` as (t, box) samples."""
    return list(zip(tr.times, rows_of(tr.boxes)))


def tracked_objects(boxes: Boxes, ids, t: float, provenances) -> List[TrackedObject]:
    """One TrackedObject per row of ``boxes``, with its track id, provenance and score."""
    return [TrackedObject(b, i, t, p, s) for b, i, p, s
            in zip(rows_of(boxes), ids.tolist(), provenances, boxes.score.tolist())]


def center_distance_matrix(rows: Sequence[Box3D], cols: Sequence[Box3D]) -> np.ndarray:
    """Pairwise center distances of two box lists, shape (len(rows), len(cols))."""
    return center_distances(*(np.array([(b.x, b.y, b.z) for b in boxes]).reshape(-1, 3)
                              for boxes in (rows, cols)))


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum total cost over all maximal partial assignments."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    k = min(n, m)
    if k == 0:
        return 0.0
    best = math.inf
    for rows in itertools.combinations(range(n), k):
        key = (m, k)
        if key not in _PERM_CACHE:
            _PERM_CACHE[key] = np.array(list(itertools.permutations(range(m), k)), dtype=int)
        perms = _PERM_CACHE[key]
        totals = cost[np.asarray(rows)[None, :], perms].sum(axis=1)
        best = min(best, float(totals.min()))
    return best


def brute_force_assignment(cost):
    """Exhaustive minimum over all maximal partial assignments.

    Returns (best_cost, best_pairs) where ties resolve to the first optimum
    in lexicographic column-tuple order (rows scanned upward, unmatched rows
    ordered after all real columns).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    k = min(n, m)
    best_cost = None
    best_pairs = None
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            total = sum(cost[r, c] for r, c in zip(rows, cols))
            key = tuple(dict(zip(rows, cols)).get(r, m) for r in range(n))
            if best_cost is None or total < best_cost - 1e-12 or (
                abs(total - best_cost) <= 1e-12 and key < best_key
            ):
                best_cost = total
                best_key = key
                best_pairs = sorted(zip(rows, cols))
    return best_cost, best_pairs


def _best_gated_matching(dist, gate, free_g, free_h):
    """Max matches, then min summed distance, then lexicographic columns.

    Enumerates every injective gated matching of free ground-truth rows to
    free hypothesis columns. Returns (gt_index, hyp_index) pairs.
    """
    best_key = None
    best_pairs = []
    choices = []

    def recurse(i, used, total, nmatch):
        nonlocal best_key, best_pairs
        if i == len(free_g):
            key = (-nmatch, total,
                   tuple(c if c is not None else len(free_h) for c in choices))
            if best_key is None or key < best_key:
                best_key = key
                best_pairs = [(free_g[k], free_h[c]) for k, c in enumerate(choices)
                              if c is not None]
            return
        choices.append(None)
        recurse(i + 1, used, total, nmatch)  # leave this ground truth unmatched
        choices.pop()
        for j in range(len(free_h)):
            if j in used or dist[free_g[i], free_h[j]] > gate:
                continue
            used.add(j)
            choices.append(j)
            recurse(i + 1, used, total + dist[free_g[i], free_h[j]], nmatch + 1)
            choices.pop()
            used.remove(j)

    recurse(0, set(), 0.0, 0)
    return best_pairs


def clearmot_frames(frames: Sequence[Sequence[TrackedObject]]) -> list:
    """Lists of tracked objects as ``evaluate_clearmot`` reads frames: (ids, boxes)."""
    return [(np.array([o.track_id for o in objects], dtype=int),
             record_of([o.box for o in objects])) for objects in frames]


def brute_force_clearmot(gt_frames, hyp_frames, gate):
    """Reference CLEAR-MOT counts and events:
    (fp, fn, ids, num_gt, dist_sum, matches, events).

    Carries the previous frame's correspondences forward while still gated,
    matches the rest by exhaustive search (max matches, then min distance,
    then lexicographic), and counts an identity switch whenever a ground
    truth matches a different hypothesis id than its last known one.
    ``events`` holds one (matches, misses, false positives, switches) tuple
    per frame: (gt id, hyp id, distance) triples in gt row order, gt ids and
    hyp ids in row order, and (gt id, previous hyp id, new hyp id) triples.
    """
    fp = fn = ids = num_gt = n_match = 0
    dist_sum = 0.0
    prev_pairs = {}
    last_known = {}
    events = []
    for gts, hyps in zip(gt_frames, hyp_frames):
        num_gt += len(gts)
        gt_ids = [o.track_id for o in gts]
        hyp_ids = [o.track_id for o in hyps]
        dist = np.zeros((len(gts), len(hyps)))
        for i, g in enumerate(gts):
            for j, h in enumerate(hyps):
                dist[i, j] = math.dist(
                    (g.box.x, g.box.y, g.box.z), (h.box.x, h.box.y, h.box.z)
                )
        hyp_index = {tid: j for j, tid in enumerate(hyp_ids)}
        matched = {}
        used = set()
        for i, gid in enumerate(gt_ids):
            hid = prev_pairs.get(gid)
            if hid is not None and hid in hyp_index and dist[i, hyp_index[hid]] <= gate:
                matched[i] = hyp_index[hid]
                used.add(hyp_index[hid])
        free_g = [i for i in range(len(gts)) if i not in matched]
        free_h = [j for j in range(len(hyps)) if j not in used]
        for g, h_local in _best_gated_matching(dist, gate, free_g, free_h):
            matched[g] = h_local
        cur = {}
        frame_matches, frame_switches = [], []
        for i, j in sorted(matched.items()):
            gid, hid = gt_ids[i], hyp_ids[j]
            if gid in last_known and last_known[gid] != hid:
                ids += 1
                frame_switches.append((gid, last_known[gid], hid))
            last_known[gid] = hid
            cur[gid] = hid
            dist_sum += dist[i, j]
            n_match += 1
            frame_matches.append((gid, hid, float(dist[i, j])))
        fn += len(gts) - len(matched)
        fp += len(hyps) - len(matched)
        prev_pairs = cur
        events.append((frame_matches,
                       [gid for i, gid in enumerate(gt_ids) if i not in matched],
                       [hid for j, hid in enumerate(hyp_ids) if j not in matched.values()],
                       frame_switches))
    return fp, fn, ids, num_gt, dist_sum, n_match, events


# The dense grid codec, kept verbatim as the byte-level reference for the
# sparse one in ``cotrack.channel``: it takes min/max over every cell and
# quantizes every cell, then keeps the nonzero cells' codes.


def dense_compress_values(values: np.ndarray) -> bytes:
    """One block: channel ranges, zero-cell runs, quantized nonzero cells."""
    rows, cols, channels = values.shape
    flat = values.reshape(-1, channels)
    nonzero = ~np.all(flat == 0.0, axis=1)

    mins = flat.min(axis=0)
    maxs = flat.max(axis=0)
    spans = maxs - mins
    codes = np.zeros_like(flat, dtype=np.uint8)
    for ch in range(channels):
        if spans[ch] > 0:
            codes[:, ch] = np.round((flat[:, ch] - mins[ch]) / spans[ch] * 255.0).astype(np.uint8)

    # Alternating run lengths over flattened cells, starting with a zero run.
    n = len(flat)
    if n:
        change = np.flatnonzero(np.diff(nonzero))
        bounds = np.concatenate([[0], change + 1, [n]])
        runs = np.diff(bounds).astype(np.uint32)
        if nonzero[0]:
            runs = np.concatenate([[np.uint32(0)], runs])
    else:
        runs = np.zeros(0, dtype=np.uint32)

    parts = [CHANNEL_RANGE.pack(float(mins[ch]), float(maxs[ch])) for ch in range(channels)]
    parts.append(struct.pack("<I", len(runs)))
    parts.append(runs.astype("<u4").tobytes())
    parts.append(codes[nonzero].tobytes())
    return b"".join(parts)


def dense_decompress_values(data: bytes, offset: int, spec: GridSpec):
    channels = spec.channels
    need = channels * CHANNEL_RANGE.size + 4
    if len(data) < offset + need:
        raise DecodeError("truncated channel table")
    mins = np.empty(channels)
    maxs = np.empty(channels)
    for ch in range(channels):
        mins[ch], maxs[ch] = CHANNEL_RANGE.unpack_from(data, offset)
        offset += CHANNEL_RANGE.size
    if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
        raise DecodeError("non-finite channel range")
    (n_runs,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + 4 * n_runs:
        raise DecodeError("truncated run table")
    runs = np.frombuffer(data, dtype="<u4", count=n_runs, offset=offset).astype(np.int64)
    offset += 4 * n_runs

    n_cells = spec.rows * spec.cols
    if runs.sum() != n_cells:
        raise DecodeError(f"run lengths cover {runs.sum()} cells, expected {n_cells}")
    zero_flags = np.zeros(len(runs), dtype=bool)
    zero_flags[::2] = True
    mask_nonzero = np.repeat(~zero_flags, runs)

    n_nz = int(mask_nonzero.sum())
    if len(data) < offset + n_nz * spec.channels:
        raise DecodeError("truncated value stream")
    codes = np.frombuffer(data, dtype=np.uint8, count=n_nz * channels, offset=offset)
    codes = codes.reshape(n_nz, channels).astype(float)
    offset += n_nz * channels

    flat = np.zeros((n_cells, channels))
    spans = maxs - mins
    decoded = np.where(spans > 0, mins + codes / 255.0 * spans, mins)
    flat[mask_nonzero] = decoded
    return flat.reshape(spec.rows, spec.cols, channels), offset


# The float32 mirrors ``channel.encode_message`` once built next to the wire
# bytes of points, boxes and raw grids, kept verbatim as the reference for
# what ``channel.decode_message`` rebuilds from those bytes.


def _encode_points(pc: PointCloud) -> Tuple[bytes, PointCloud]:
    data = pc.points.astype("<f4").tobytes()
    decoded = PointCloud(pc.points.astype(np.float32).astype(float), pc.frame, pc.timestamp)
    return data, decoded


def _encode_detections(dets: Sequence[Detection]) -> Tuple[bytes, List[Detection]]:
    parts = []
    decoded = []
    for d in dets:
        b = d.box
        code = CATEGORY_ORDER.index(b.category)
        parts.append(struct.pack("<7fBf", b.x, b.y, b.z, b.w, b.l, b.h, b.yaw, code, d.score))
        f32 = [float(np.float32(v)) for v in (b.x, b.y, b.z, b.w, b.l, b.h, b.yaw)]
        decoded.append(
            Detection(
                box=Box3D(*f32, category=b.category),
                score=float(np.float32(d.score)),
            )
        )
    return b"".join(parts), decoded


def _raw_grid(g: FeatureGrid) -> Tuple[bytes, FeatureGrid]:
    """Raw float32 bytes of a grid and the grid they decode to."""
    with np.errstate(over="ignore"):
        values = g.values.astype("<f4")
    if not np.all(np.isfinite(values)):
        raise EncodeError("grid values lie beyond the float32 range")
    return values.tobytes(), replace(g, values=values.astype(float))


# The first per-frame kernels, kept verbatim as bit-level references for the
# batched ones: ``detect`` looping over every component with numpy calls per
# blob, ``rasterize_bev`` accumulating with ``ufunc.at``, and the Hungarian
# solve as numpy array operations per augmenting step.

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def ndimage_labels(mask: np.ndarray) -> np.ndarray:
    """The 8-connected component label of every cell of a 2-D boolean mask."""
    return ndimage.label(mask, structure=_EIGHT_CONNECTED)[0]


def loop_detect(g: FeatureGrid, params: DetectParams = DetectParams()) -> List[Detection]:
    """Fit one oriented box per connected blob of the density channel.

    Cells with density above ``params.tau`` are labeled with 8-connectivity.
    Per component, the box center is the density-weighted centroid of cell
    centers, yaw is the principal axis of the weighted scatter folded into
    (-pi/2, pi/2], and the planar dims are the extents along the principal
    axes plus one cell, clamped to [min_dim_m, max_dim_m]. Height comes from
    the median of the component's max-height cells (robust to extrapolation
    overshoot) with the center z at half height. The score is the mean
    density of the component. Boxes come out in the grid's frame.
    """
    density = g.values[:, :, DENSITY_CHANNEL]
    mask = density > params.tau
    labels, n_components = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    detections: List[Detection] = []
    cell = g.spec.cell_size
    bounding = ndimage.find_objects(labels) if n_components else []
    for comp, slices in enumerate(bounding, start=1):
        rows, cols = np.nonzero(labels[slices] == comp)
        if len(rows) < params.min_cells:
            continue
        rows = rows + slices[0].start
        cols = cols + slices[1].start
        weights = density[rows, cols]
        xs = g.spec.x0 + (cols + 0.5) * cell
        ys = g.spec.y0 + (rows + 0.5) * cell
        wsum = weights.sum()
        cx = float((weights * xs).sum() / wsum)
        cy = float((weights * ys).sum() / wsum)

        dx = xs - cx
        dy = ys - cy
        cov = np.array([
            [(weights * dx * dx).sum(), (weights * dx * dy).sum()],
            [(weights * dx * dy).sum(), (weights * dy * dy).sum()],
        ]) / wsum
        eigvals, eigvecs = np.linalg.eigh(cov)
        major = eigvecs[:, int(np.argmax(eigvals))]
        yaw = math.atan2(major[1], major[0])
        if yaw > math.pi / 2:
            yaw -= math.pi
        elif yaw <= -math.pi / 2:
            yaw += math.pi

        c, s = math.cos(yaw), math.sin(yaw)
        along = dx * c + dy * s
        across = -dx * s + dy * c
        length = float(np.clip(along.max() - along.min() + cell, params.min_dim_m, params.max_dim_m))
        width = float(np.clip(across.max() - across.min() + cell, params.min_dim_m, params.max_dim_m))

        heights = g.values[rows, cols, HEIGHT_CHANNEL]
        h = float(np.clip(np.median(heights), params.min_dim_m, params.max_height_m))
        score = float(np.clip(weights.mean(), 0.0, 1.0))
        detections.append(
            Detection(
                box=Box3D(x=cx, y=cy, z=0.5 * h, w=width, l=length, h=h, yaw=yaw,
                          category=Category.CAR),
                score=score,
            )
        )
    return detections


def ufunc_at_rasterize_bev(pc: PointCloud, spec: GridSpec,
                           density_cap: float = 10.0) -> FeatureGrid:
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


def numpy_hungarian_square(a: np.ndarray):
    """Solve a square assignment problem, returning (col_of_row, u, v).

    Potentials satisfy a[i, j] - u[i] - v[j] >= 0 with equality on matched
    pairs, up to floating rounding.
    """
    k = a.shape[0]
    # 1-based arrays with a virtual column 0, classic formulation.
    cost = np.zeros((k + 1, k + 1))
    cost[1:, 1:] = a
    u = np.zeros(k + 1)
    v = np.zeros(k + 1)
    match = np.zeros(k + 1, dtype=int)  # match[j] = row currently matched to column j
    way = np.zeros(k + 1, dtype=int)

    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used
            free[0] = False
            cur = cost[i0] - u[i0] - v
            improves = free & (cur < minv)
            minv[improves] = cur[improves]
            way[improves] = j0
            candidates = np.where(free, minv, np.inf)
            j1 = int(np.argmin(candidates))  # lowest column index wins ties
            delta = candidates[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    col_of_row = np.empty(k, dtype=int)
    col_of_row[match[1:] - 1] = np.arange(k)
    return col_of_row, u[1:], v[1:]


# The three gated box matchers as they were before ``gated_assignment``:
# each with its own empty-side guard, gate check and leftover loops.
# Bodies copied verbatim; only the names differ.

def guarded_fuse_late(
    dets_ego: Sequence[Detection],
    dets_inf_ego_frame: Sequence[Detection],
    threshold_m: float,
) -> List[Detection]:
    """Merge two ego-frame detection lists by gated optimal assignment.

    Matched pairs (center distance <= threshold) merge into one box whose
    center and dims are score-weighted averages, yaw comes from the
    higher-score member, and the score is the max. Unmatched detections on
    either side pass through. Output order: ego-list order with matched
    entries replaced by their merge, then leftover transmitted detections.
    """
    if not dets_ego:
        return list(dets_inf_ego_frame)
    if not dets_inf_ego_frame:
        return list(dets_ego)
    cost = center_distance_matrix([d.box for d in dets_ego], [d.box for d in dets_inf_ego_frame])
    pairs = solve_assignment(cost)
    matched_inf = set()
    out: List[Detection] = []
    merged_for_ego = {}
    for r, c in pairs:
        if cost[r, c] <= threshold_m:
            merged_for_ego[r] = c
            matched_inf.add(c)
    for i, d in enumerate(dets_ego):
        if i in merged_for_ego:
            out.append(_merge_pair(d, dets_inf_ego_frame[merged_for_ego[i]]))
        else:
            out.append(d)
    for j, d in enumerate(dets_inf_ego_frame):
        if j not in matched_inf:
            out.append(d)
    return out


def guarded_associate(
    tracks: Sequence[Track],
    detections: Sequence[Detection],
    threshold_m: float,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Gated optimal assignment of tracks to detections.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    Pairs beyond the gate are unmatched even when the assignment selected
    them.
    """
    if not tracks or not detections:
        return [], list(range(len(tracks))), list(range(len(detections)))
    track_boxes = [t.box() for t in tracks]
    det_boxes = [d.box for d in detections]
    cost = center_distance_matrix(track_boxes, det_boxes)
    gate_ok = cost <= threshold_m
    matches = []
    matched_t, matched_d = set(), set()
    for r, c in solve_assignment(cost):
        if gate_ok[r, c]:
            matches.append((r, c))
            matched_t.add(r)
            matched_d.add(c)
    unmatched_tracks = [i for i in range(len(tracks)) if i not in matched_t]
    unmatched_dets = [j for j in range(len(detections)) if j not in matched_d]
    return matches, unmatched_tracks, unmatched_dets


def frame_pairs_before(vehicle_trajs, infra_trajs, threshold_m: float) -> set:
    """(vehicle id, infra id) pairs matched in at least one frame, mined as
    before ``gated_assignment``: frames keyed by ``round(t, 6)``, each
    trajectory's box looked up within 1e-9 s of the key, and the matcher's
    own empty-side guard."""

    def box_at(tr, t):
        return next((box for st, box in samples_of(tr) if abs(st - t) < 1e-9), None)

    times = sorted({round(t, 6) for tr in list(vehicle_trajs) + list(infra_trajs)
                    for t in tr.times})
    pairs = set()
    for t in times:
        bv = [(tr.track_id, box_at(tr, t)) for tr in vehicle_trajs if box_at(tr, t) is not None]
        bi = [(tr.track_id, box_at(tr, t)) for tr in infra_trajs if box_at(tr, t) is not None]
        if not bv or not bi:
            continue
        cost = center_distance_matrix([b for _, b in bv], [b for _, b in bi])
        for r, c in solve_assignment(cost):
            if cost[r, c] <= threshold_m:
                pairs.add((bv[r][0], bi[c][0]))
    return pairs


def latest_available(messages: Sequence[ChannelMessage], t_now: float) -> Optional[ChannelMessage]:
    """Most recently captured message that has arrived by ``t_now``.

    ``messages`` must be sorted by send time. Among equal arrival times the
    larger send time wins, which the reverse scan gives for free.
    """
    for m in reversed(messages):
        if m.arrived_by(t_now):
            return m
    return None


def corners_bev(box: Box3D) -> np.ndarray:
    """Ground-plane footprint corners of one box, (4, 2), counter-clockwise."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    half_l, half_w = 0.5 * box.l, 0.5 * box.w
    local = np.array(
        [[half_l, -half_w], [half_l, half_w], [-half_l, half_w], [-half_l, -half_w]]
    )
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.x, box.y])


def blockers_of(
    boxes: Sequence[Box3D] = (),
    walls: Sequence[Tuple[float, float, float, float]] = (),
) -> Blockers:
    """Box footprints, then axis-aligned walls (x_min, y_min, x_max, y_max),
    stacked one box at a time."""
    nb = len(boxes)
    walls = np.asarray(walls, dtype=float).reshape(-1, 4)
    k = nb + len(walls)
    rot_t = np.empty((k, 2, 2))
    centre = np.zeros((k, 1, 2))
    lo = np.empty((k, 1, 2))
    hi = np.empty((k, 1, 2))
    for b, box in enumerate(boxes):
        c, s = math.cos(-box.yaw), math.sin(-box.yaw)
        rot_t[b] = ((c, s), (-s, c))
        centre[b] = (box.x, box.y)
        hi[b] = (0.5 * box.l, 0.5 * box.w)
    lo[:nb] = -hi[:nb]
    rot_t[nb:] = np.eye(2)
    lo[nb:, 0] = walls[:, :2]
    hi[nb:, 0] = walls[:, 2:]
    return Blockers(rot_t, centre, lo, hi)


def segments_hit_blockers(starts: np.ndarray, ends: np.ndarray, blockers: Blockers) -> np.ndarray:
    """Whether 2D segments cross the interior of each blocker, shape (K, N).

    The general-start kernel that ``geometry.rays_hit_blockers`` (one shared
    origin) replaced: one broadcast slab test in every blocker's frame, on
    (K, N, 2) arrays. The rotation into each frame stays a (stacked) matrix
    product, so each row is bitwise what a test against that blocker alone
    gives.
    """
    starts = (np.asarray(starts, dtype=float) - blockers.centre) @ blockers.rot_t
    ends = (np.asarray(ends, dtype=float) - blockers.centre) @ blockers.rot_t
    lo, hi = blockers.lo, blockers.hi
    d = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - starts) / d
        t2 = (hi - starts) / d
    t_near = np.minimum(t1, t2)
    t_far = np.maximum(t1, t2)
    # Axis-parallel segments: hit only if within the slab on that axis.
    parallel = d == 0.0
    if parallel.any():
        inside = (starts >= lo) & (starts <= hi)
        t_near = np.where(parallel, np.where(inside, -np.inf, np.inf), t_near)
        t_far = np.where(parallel, np.where(inside, np.inf, -np.inf), t_far)
    enter = np.maximum(t_near[..., 0], t_near[..., 1])
    exit_ = np.minimum(t_far[..., 0], t_far[..., 1])
    return (enter <= exit_) & (enter < 1.0 - _EPS_T) & (exit_ > _EPS_T)


# Visibility probes sit strictly inside each edge.
PROBE_OFFSETS = np.array([0.1, 0.3, 0.5, 0.7, 0.9])


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
    ray test; a box never blocks its own probes. Ground truth called this
    every frame, for every view and every run.
    """
    sensor_xy = np.asarray(sensor_xy, dtype=float)
    if not boxes:
        return np.zeros(0, dtype=bool)
    corners = np.stack([corners_bev(box) for box in boxes])
    a = corners[:, :, None, :]
    b = np.roll(corners, -1, axis=1)[:, :, None, :]
    probes = (a + PROBE_OFFSETS[:, None] * (b - a)).reshape(-1, 2)
    hits = segments_hit_blockers(
        np.broadcast_to(sensor_xy, probes.shape), probes, blockers_of(boxes, occluders)
    ).reshape(len(boxes) + len(occluders), len(boxes), -1)
    own = np.arange(len(boxes))
    hits[own, own] = False
    in_range = np.array(
        [math.hypot(box.x - sensor_xy[0], box.y - sensor_xy[1]) <= range_m for box in boxes]
    )
    return in_range & (~hits.any(axis=0)).any(axis=1)


def box_at(agent, frame_idx: int) -> Box3D:
    """An agent's box at frame ``frame_idx``, as ``Agent.box_at`` built it."""
    _, x, y, yaw, _ = agent.waypoints[frame_idx]
    w, l, h = agent.dims
    return Box3D(x=x, y=y, z=0.5 * h, w=w, l=l, h=h, yaw=yaw, category=agent.category)


def per_call_frame(s, f: int):
    """Frame ``f`` of scenario ``s`` as the per-call path built it.

    Returns the agents' boxes, their stacked ``corners_bev`` (A, 4, 2),
    ``blockers_of(boxes, walls)`` and, by view, the ``visible_agents`` row.
    """
    boxes = [box_at(agent, f) for agent in s.agents]
    corners = np.array([corners_bev(box) for box in boxes]).reshape(len(boxes), 4, 2)
    t = s.frame_times()[f]
    visible = {}
    for view in View:
        pose = s.sensor_pose(view, t)
        visible[view] = visible_agents((pose.x, pose.y), boxes, s.occluders, s.sensor_range(view))
    return boxes, corners, blockers_of(boxes, s.occluders), visible


# The per-object ground-truth path: each view's visible agents as
# ``TrackedObject``s, moved into the ego frame one object at a time and
# united by id inside the region.


def cooperative_ground_truth(
    gt_v: Sequence[TrackedObject], gt_i: Sequence[TrackedObject], r: Region
) -> List[TrackedObject]:
    """Union of the two per-view ground truths restricted to a region.

    Both inputs must be expressed in the ego frame at the same timestamp.
    The union is keyed by track id (agents share ids across views); the
    vehicle-side box wins when both views carry the same agent. Output is
    sorted by track id and contains each id at most once.
    """
    merged = {}
    for obj in list(gt_i) + list(gt_v):  # vehicle side overwrites infra side
        merged[obj.track_id] = obj
    kept = [o for o in merged.values() if r.contains(o.box.x, o.box.y)]
    return sorted(kept, key=lambda o: o.track_id)


def objects_to_frame(objects: Sequence[TrackedObject], src_to_dst: Pose) -> List[TrackedObject]:
    """Re-express tracked objects in another frame, one ``transform_box`` each."""
    return [replace(o, box=transform_box(o.box, src_to_dst)) for o in objects]


def per_object_ground_truth(s, t: float) -> List[TrackedObject]:
    """The ground truth a run scores at frame time ``t``, built per object:
    each view's ``visible_agents`` as tracked objects (``box_at``), both
    moved into the ego frame and united by ``cooperative_ground_truth``."""
    boxes, _, _, visible = per_call_frame(s, s.frame_index(t))
    world_to_ego = inverse(s.ego_pose(t))
    views = [objects_to_frame([TrackedObject(box, agent.id, t, provenance)
                               for agent, box, seen in zip(s.agents, boxes, visible[view]) if seen],
                              world_to_ego)
             for view, provenance in ((View.VEHICLE, Provenance.VEHICLE_SIDE),
                                      (View.INFRA, Provenance.INFRA_SIDE))]
    return cooperative_ground_truth(*views, s.region)


def per_box_sample_point_cloud(s, t: float, sensor: View) -> PointCloud:
    """``sensing.sample_point_cloud`` as it sampled one target box at a time.

    Each in-range box draws its four edge phases, is ray-tested alone with
    the general-start kernel, and then draws a height and an intensity for
    each point it keeps, so where the next box's draws start depends on how
    many points this box kept. Noise, clutter intensities and dropout follow.
    """
    noise = s.config.noise
    frame_idx = s.frame_index(t)
    rng = np.random.default_rng([s.seed, frame_idx, _VIEW_CODE[sensor]])

    pose = s.sensor_pose(sensor, t)
    range_m = s.sensor_range(sensor)
    sensor_xy = np.array([pose.x, pose.y])
    geo = s.geometry
    blockers = geo.blockers(frame_idx)

    chunks = []
    for idx, agent in enumerate(s.agents):
        x, y = geo.centres[frame_idx, idx]
        if math.hypot(x - sensor_xy[0], y - sensor_xy[1]) > range_m:
            continue
        w, l, h = agent.dims
        counts = [max(1, int(round(s.config.surface_pts_per_m * edge))) for edge in (w, l, w, l)]
        offsets = [(np.arange(n) + rng.random()) / n for n in counts]
        c = geo.corners[frame_idx, idx]
        pts2d = np.concatenate([c[e] + offsets[e][:, None] * (c[(e + 1) % 4] - c[e])
                                for e in range(4)])
        hits = segments_hit_blockers(np.broadcast_to(sensor_xy, pts2d.shape), pts2d, blockers)
        hits[idx] = False  # a box never blocks its own outline
        pts2d = pts2d[~hits.any(axis=0)]
        if len(pts2d) == 0:
            continue
        z = rng.random(len(pts2d)) * h
        intensity = rng.random(len(pts2d))
        chunks.append(np.column_stack([pts2d, z, intensity]))

    pts = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 4))
    if noise.sigma_m > 0 and len(pts):
        pts[:, :3] += rng.normal(0.0, noise.sigma_m, size=(len(pts), 3))

    clutter = s.clutter[sensor]
    at_rest = np.array(astuple(pose)).tobytes() == np.array(astuple(clutter.pose)).tobytes()
    xyz = clutter.xyz if at_rest else _clutter_xyz(clutter.field, pose)
    clutter_i = rng.random(len(xyz))
    if noise.dropout_p > 0:
        keep = rng.random(len(pts) + len(xyz)) >= noise.dropout_p
        pts, kept = pts[keep[:len(pts)]], keep[len(pts):]
        xyz, clutter_i = xyz[kept], clutter_i[kept]

    local = np.empty((len(pts) + len(xyz), 4))
    local[:len(pts), :3] = inverse(pose).apply_to_points(pts[:, :3])
    local[:len(pts), 3] = pts[:, 3]
    local[len(pts):, :3] = xyz
    local[len(pts):, 3] = clutter_i
    local.setflags(write=False)
    if at_rest and noise.dropout_p == 0:
        return PointCloud(local[:len(pts)], sensor.value, t, clutter, local[len(pts):, 3])
    return PointCloud(local, sensor.value, t)


# The per-box path, as the run took it before boxes and tracks became arrays.
# Bodies copied verbatim; ``PerTrackTracker`` is the old ``Tracker``.


@dataclass(frozen=True)
class Detection:
    """A detected box with a confidence score in [0, 1]."""

    box: Box3D
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise NumericError(f"score must be in [0, 1], got {self.score}")


def boxes_of(dets: Sequence[Detection]) -> Boxes:
    """The ``Boxes`` record of a Detection list."""
    return record_of([d.box for d in dets], [d.score for d in dets])


def detections_of(boxes: Boxes) -> List[Detection]:
    """A ``Boxes`` record as a Detection list, fields as they are."""
    return [Detection(box=b, score=s) for b, s in zip(rows_of(boxes), boxes.score.tolist())]


def transform_box(b: Box3D, src_to_dst: Pose) -> Box3D:
    """Re-express a box in another frame; dims are unchanged."""
    x, y, z = src_to_dst.apply_to_point(b.x, b.y, b.z)
    return replace(b, x=x, y=y, z=z, yaw=float(wrap_angle(b.yaw + src_to_dst.yaw)))


def _merge_pair(a: Detection, b: Detection) -> Detection:
    wa, wb = a.score, b.score
    if wa + wb <= 0:
        wa = wb = 1.0
    total = wa + wb

    def avg(fa, fb):
        return (wa * fa + wb * fb) / total

    lead = a if a.score >= b.score else b
    box = replace(
        a.box,
        x=avg(a.box.x, b.box.x),
        y=avg(a.box.y, b.box.y),
        z=avg(a.box.z, b.box.z),
        w=avg(a.box.w, b.box.w),
        l=avg(a.box.l, b.box.l),
        h=avg(a.box.h, b.box.h),
        yaw=lead.box.yaw,
        category=lead.box.category,
    )
    return Detection(box=box, score=max(a.score, b.score))


@dataclass
class Track:
    id: int
    state: np.ndarray  # (10,)
    covariance: np.ndarray  # (10, 10)
    hits: int = 1
    misses: int = 0
    score: float = 1.0

    def confirmed(self, min_hits: int) -> bool:
        return self.hits >= min_hits

    def box(self) -> Box3D:
        x, y, z, yaw, w, l, h = self.state[:MEAS_DIM]
        return Box3D(x=x, y=y, z=z, w=max(w, MIN_DIM_M), l=max(l, MIN_DIM_M),
                     h=max(h, MIN_DIM_M), yaw=yaw)


def _assert_positive_definite(p: np.ndarray) -> np.ndarray:
    sym = 0.5 * (p + p.T)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError("track covariance is not positive definite") from exc
    return sym


def kf_predict(t: Track, dt: float, params: TrackerParams = TrackerParams()) -> Track:
    """Advance a track by dt seconds under the constant-velocity model."""
    if dt < 0:
        raise OrderingError(f"dt must be non-negative, got {dt}")
    f = np.eye(STATE_DIM)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    state = f @ t.state
    state[_YAW] = float(wrap_angle(state[_YAW]))
    cov = f @ t.covariance @ f.T + params.process_noise_density() * dt
    return replace(t, state=state, covariance=_assert_positive_definite(cov))


def kf_update(t: Track, d: Detection, params: TrackerParams = TrackerParams()) -> Track:
    """Standard linear Kalman measurement update on (x, y, z, yaw, w, l, h).

    The yaw innovation wraps into (-pi, pi]. Uses the Joseph-form covariance
    update, then symmetrizes and asserts positive definiteness.
    """
    z = np.array([d.box.x, d.box.y, d.box.z, d.box.yaw, d.box.w, d.box.l, d.box.h])
    r = params.measurement_noise()
    innovation = z - _H @ t.state
    innovation[_YAW] = float(wrap_angle(innovation[_YAW]))
    s = _H @ t.covariance @ _H.T + r
    gain = t.covariance @ _H.T @ np.linalg.inv(s)
    state = t.state + gain @ innovation
    state[_YAW] = float(wrap_angle(state[_YAW]))
    ikh = np.eye(STATE_DIM) - gain @ _H
    cov = ikh @ t.covariance @ ikh.T + gain @ r @ gain.T
    return replace(
        t,
        state=state,
        covariance=_assert_positive_definite(cov),
        hits=t.hits + 1,
        misses=0,
        score=d.score,
    )


def associate(
    tracks: Sequence[Track],
    detections: Sequence[Detection],
    threshold_m: float,
) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Gated optimal assignment of tracks to detections on center distance.

    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    Pairs farther apart than ``threshold_m`` are unmatched even when the
    assignment selected them.
    """
    cost = center_distance_matrix([t.box() for t in tracks], [d.box for d in detections])
    return gated_assignment(cost, cost <= threshold_m)


class PerTrackTracker:
    """The tracker filtering one ``Track`` at a time; call step() with strictly increasing times."""

    def __init__(
        self,
        params: TrackerParams = TrackerParams(),
        provenance: Provenance = Provenance.FUSED,
    ):
        self.params = params
        self.provenance = provenance
        self.tracks: List[Track] = []
        self._next_id = 1
        self._frame_count = 0
        self._last_t: Optional[float] = None

    def _new_track(self, d: Detection) -> Track:
        state = np.zeros(STATE_DIM)
        state[:MEAS_DIM] = (d.box.x, d.box.y, d.box.z, d.box.yaw, d.box.w, d.box.l, d.box.h)
        track = Track(
            id=self._next_id,
            state=state,
            covariance=self.params.initial_covariance(),
            score=d.score,
        )
        self._next_id += 1
        return track

    def step(self, detections: Sequence[Detection], t: float) -> List[TrackedObject]:
        if self._last_t is not None and t <= self._last_t:
            raise OrderingError(f"step times must strictly increase ({self._last_t} -> {t})")
        dt = 0.0 if self._last_t is None else t - self._last_t
        self._last_t = t
        self._frame_count += 1
        p = self.params

        self.tracks = [kf_predict(trk, dt, p) for trk in self.tracks]
        matches, unmatched_tracks, unmatched_dets = associate(self.tracks, detections, p.gate_m)
        for r, c in matches:
            self.tracks[r] = kf_update(self.tracks[r], detections[c], p)
        for r in unmatched_tracks:
            trk = self.tracks[r]
            self.tracks[r] = replace(trk, misses=trk.misses + 1)
        for c in unmatched_dets:
            self.tracks.append(self._new_track(detections[c]))
        self.tracks = [trk for trk in self.tracks if trk.misses <= p.max_age]

        out = []
        warm = self._frame_count <= p.min_hits
        for trk in self.tracks:
            if trk.misses == 0 and (trk.confirmed(p.min_hits) or warm):
                out.append(
                    TrackedObject(
                        box=trk.box(),
                        track_id=trk.id,
                        timestamp=t,
                        provenance=self.provenance,
                        score=trk.score,
                    )
                )
        return out


# ``annotate.fragment`` as it was before it cut each trajectory's rows by
# bisection: every segment scans every sample of every trajectory. Verbatim.


def scan_fragment(
    traj_set: Sequence[Trajectory], window_s: float = 10.0, overlap_s: float = 5.0
) -> List[Segment]:
    if window_s <= overlap_s or overlap_s < 0:
        raise ConfigurationError(
            f"fragment requires window_s > overlap_s >= 0, got {window_s} and {overlap_s}")
    all_times = [t for traj in traj_set for t in traj.times]
    if not all_times:
        return []
    t0 = min(all_times)
    t_end = max(all_times)
    stride = window_s - overlap_s
    if (t_end - t0) / stride > MAX_SEGMENTS:
        raise ConfigurationError(
            f"a {t_end - t0} s span in steps of window_s - overlap_s = {stride} s cuts into "
            f"more than {MAX_SEGMENTS:,} segments")
    segments: List[Segment] = []
    index = 0
    start = t0
    while start < t_end or (start == t0 and t_end == t0):
        end = start + window_s
        clipped = []
        for traj in traj_set:
            rows = [k for k, t in enumerate(traj.times) if start <= t <= end]
            if rows:
                clipped.append(replace(traj, times=tuple(traj.times[k] for k in rows),
                                       boxes=traj.boxes.take(rows)))
        segments.append(
            Segment(index=index, start_s=start, end_s=end, full=end <= t_end,
                    trajectories=tuple(clipped))
        )
        index += 1
        start = t0 + index * stride
    return segments
