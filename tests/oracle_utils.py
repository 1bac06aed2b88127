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
built next to the wire bytes. ``scipy`` is a test-only dependency:
the detector's connected components are checked against ``ndimage.label``.
"""

import itertools
import math
import struct
from dataclasses import replace

import numpy as np

from typing import List, Optional, Sequence, Tuple

from scipy import ndimage

from cotrack.assignment import solve_assignment
from cotrack.channel import CHANNEL_RANGE, ChannelMessage
from cotrack.detector import Detection, DetectParams
from cotrack.errors import DecodeError, EncodeError
from cotrack.fusion import _merge_pair
from cotrack.geometry import CATEGORY_ORDER, Box3D, Category, center_distance_matrix
from cotrack.sensing import (
    DENSITY_CHANNEL,
    HEIGHT_CHANNEL,
    INTENSITY_CHANNEL,
    FeatureGrid,
    GridSpec,
    PointCloud,
)
from cotrack.tracker import Track

_PERM_CACHE = {}


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


def brute_force_clearmot(gt_frames, hyp_frames, gate):
    """Reference CLEAR-MOT counts: (fp, fn, ids, num_gt, dist_sum, matches).

    Carries the previous frame's correspondences forward while still gated,
    matches the rest by exhaustive search (max matches, then min distance,
    then lexicographic), and counts an identity switch whenever a ground
    truth matches a different hypothesis id than its last known one.
    """
    fp = fn = ids = num_gt = n_match = 0
    dist_sum = 0.0
    prev_pairs = {}
    last_known = {}
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
        for i, j in matched.items():
            gid, hid = gt_ids[i], hyp_ids[j]
            if gid in last_known and last_known[gid] != hid:
                ids += 1
            last_known[gid] = hid
            cur[gid] = hid
            dist_sum += dist[i, j]
            n_match += 1
        fn += len(gts) - len(matched)
        fp += len(hyps) - len(matched)
        prev_pairs = cur
    return fp, fn, ids, num_gt, dist_sum, n_match


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
    decoded = PointCloud(
        points=pc.points.astype(np.float32).astype(float),
        frame=pc.frame,
        timestamp=pc.timestamp,
    )
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
        return next((box for st, box in tr.samples if abs(st - t) < 1e-9), None)

    times = sorted({round(t, 6) for tr in list(vehicle_trajs) + list(infra_trajs)
                    for t, _ in tr.samples})
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
