"""Independent brute-force oracles used by unit and acceptance tests.

These deliberately avoid the library's own algorithms: assignments come
from exhaustive permutation search, tracking scores from direct
enumeration of gated matchings, and the grid codec from the first,
dense implementation (every cell quantized, a boolean mask scattered).
"""

import itertools
import math
import struct

import numpy as np

from cotrack.channel import CHANNEL_RANGE
from cotrack.errors import DecodeError
from cotrack.sensing import GridSpec

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
