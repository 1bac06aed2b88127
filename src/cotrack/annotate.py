"""Cross-view trajectory matching, fragmentation, and interest scoring.

These operations run on track files rather than live runs: per-frame boxes
from the two views are matched by gated assignment, candidate pairings are
validated by a trajectory-similarity score, sequences fragment into
overlapping windows, and each trajectory receives an interest score from
its turning, speed-change, and completion behavior.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .assignment import gated_assignment
from .errors import ConfigurationError, DecodeError, OrderingError, UndefinedSimilarityError
from .geometry import Box3D, Category, center_distance_matrix
from .scenario import Provenance, TrackedObject

SIMILARITY_SCALE_M = 2.0


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered (t, box) samples for one track."""

    track_id: int
    samples: Tuple[Tuple[float, Box3D], ...]
    provenance: Provenance = Provenance.FUSED
    source_ids: Tuple[Optional[int], Optional[int]] = (None, None)

    def __post_init__(self):
        times = [t for t, _ in self.samples]
        if any(b - a <= 0 for a, b in zip(times, times[1:])):
            raise OrderingError(f"trajectory {self.track_id} times must strictly increase")

    def times(self) -> List[float]:
        return [t for t, _ in self.samples]


@dataclass(frozen=True)
class CandidateMatch:
    vehicle_id: int
    infra_id: int
    similarity: float


@dataclass(frozen=True)
class Segment:
    index: int
    start_s: float
    end_s: float
    full: bool
    trajectories: Tuple[Trajectory, ...]


def _mean_center(a: Box3D, b: Box3D) -> Box3D:
    """``a`` moved to the midpoint of the two centers."""
    return replace(a, x=0.5 * (a.x + b.x), y=0.5 * (a.y + b.y), z=0.5 * (a.z + b.z))


def trajectory_similarity(a: Trajectory, b: Trajectory) -> float:
    """Similarity in [0, 1]: exp(-mean center distance / 2 m) over overlap.

    Identical trajectories score exactly 1; the score decays toward 0 as the
    trajectories diverge. Requires at least two overlapping frames.
    """
    times_b = {round(t, 6): box for t, box in b.samples}
    dists = []
    for t, box in a.samples:
        other = times_b.get(round(t, 6))
        if other is not None:
            dists.append(math.dist((box.x, box.y, box.z), (other.x, other.y, other.z)))
    if len(dists) < 2:
        raise UndefinedSimilarityError(
            f"trajectories {a.track_id} and {b.track_id} overlap on {len(dists)} frames, need >= 2"
        )
    return math.exp(-float(np.mean(dists)) / SIMILARITY_SCALE_M)


def filter_matches(
    matches: Sequence[CandidateMatch], similarity_threshold: float = 0.5
) -> List[CandidateMatch]:
    """Keep candidate pairings whose similarity clears the threshold."""
    return [m for m in matches if m.similarity >= similarity_threshold]


def fragment(
    traj_set: Sequence[Trajectory], window_s: float = 10.0, overlap_s: float = 5.0
) -> List[Segment]:
    """Cut a trajectory set into overlapping windows.

    Segment starts step by (window - overlap) from the earliest timestamp;
    every timestamp of the input is covered by at least one segment.
    Segments reaching past the final timestamp are flagged as partial
    tails. Trajectories clip to the closed window [start, start + window].
    """
    if window_s <= overlap_s or overlap_s < 0:
        raise ConfigurationError(
            f"fragment requires window_s > overlap_s >= 0, got {window_s} and {overlap_s}")
    all_times = [t for traj in traj_set for t in traj.times()]
    if not all_times:
        return []
    t0 = min(all_times)
    t_end = max(all_times)
    stride = window_s - overlap_s
    segments: List[Segment] = []
    index = 0
    start = t0
    while start < t_end or (start == t0 and t_end == t0):
        end = start + window_s
        clipped = []
        for traj in traj_set:
            samples = tuple((t, b) for t, b in traj.samples if start <= t <= end)
            if samples:
                clipped.append(replace(traj, samples=samples))
        segments.append(
            Segment(index=index, start_s=start, end_s=end, full=end <= t_end,
                    trajectories=tuple(clipped))
        )
        index += 1
        start = t0 + index * stride
    return segments


def score_interest(
    t: Trajectory,
    window_s: float = 10.0,
    frame_rate_hz: int = 10,
) -> float:
    """Interest score: turning + speed change + completion.

    Turning is the total absolute yaw change along the track. Speed change
    is the largest absolute speed difference across a one-second gap, with
    speeds taken from finite differences of the centers. Completion is the
    fraction of window frames the track is present, capped at 1.
    """
    if len(t.samples) < 3:
        raise UndefinedSimilarityError(f"interest score needs >= 3 samples, got {len(t.samples)}")
    times = np.array([s for s, _ in t.samples])
    yaws = np.unwrap(np.array([b.yaw for _, b in t.samples]))
    turning = float(np.abs(np.diff(yaws)).sum())

    centers = np.array([[b.x, b.y] for _, b in t.samples])
    step = np.linalg.norm(np.diff(centers, axis=0), axis=1)
    speeds = step / np.diff(times)
    lag = min(frame_rate_hz, len(speeds) - 1)
    if lag >= 1:
        speed_change = float(np.abs(speeds[lag:] - speeds[:-lag]).max())
    else:
        speed_change = 0.0

    expected_frames = int(round(window_s * frame_rate_hz))
    completion = min(1.0, len(t.samples) / expected_frames)

    return turning + speed_change + completion


def build_cooperative_trajectories(
    vehicle_trajs: Sequence[Trajectory],
    infra_trajs: Sequence[Trajectory],
    match_threshold_m: float = 2.0,
    similarity_threshold: float = 0.5,
) -> Tuple[List[Trajectory], List[CandidateMatch]]:
    """Pair up cross-view trajectories and emit fused cooperative tracks.

    Candidate pairs are the track pairs that gated assignment on center
    distance matches in at least one frame (times compared to the
    microsecond); pairs scoring below the similarity threshold are
    discarded outright. Surviving candidates resolve one-to-one by
    assignment on (1 - similarity). Fused
    samples average the two centers on shared frames and pass single-side
    samples through. Unpaired trajectories are re-emitted with their own
    provenance. Cooperative ids are assigned sequentially from 1.
    """
    v_by_id = {tr.track_id: tr for tr in vehicle_trajs}
    i_by_id = {tr.track_id: tr for tr in infra_trajs}

    # Per frame time, to the microsecond: each side's (track id, box) list.
    frames: Dict[float, Tuple[list, list]] = {}
    for side, trajs in enumerate((vehicle_trajs, infra_trajs)):
        for tr in trajs:
            for t, box in {round(t, 6): box for t, box in tr.samples}.items():
                frames.setdefault(t, ([], []))[side].append((tr.track_id, box))
    pairs = set()
    for bv, bi in frames.values():
        cost = center_distance_matrix([b for _, b in bv], [b for _, b in bi])
        matched, _, _ = gated_assignment(cost, cost <= match_threshold_m)
        pairs.update((bv[r][0], bi[c][0]) for r, c in matched)

    candidates: List[CandidateMatch] = []
    for vid, iid in sorted(pairs):
        try:
            sim = trajectory_similarity(v_by_id[vid], i_by_id[iid])
        except UndefinedSimilarityError:
            continue
        candidates.append(CandidateMatch(vehicle_id=vid, infra_id=iid, similarity=sim))
    kept = filter_matches(candidates, similarity_threshold)

    v_ids = sorted({m.vehicle_id for m in kept})
    i_ids = sorted({m.infra_id for m in kept})
    kept_at = {(v_ids.index(m.vehicle_id), i_ids.index(m.infra_id)): m for m in kept}
    cost = np.full((len(v_ids), len(i_ids)), 2.0)
    is_kept = np.zeros(cost.shape, dtype=bool)
    for (r, c), m in kept_at.items():
        cost[r, c] = 1.0 - m.similarity
        is_kept[r, c] = True
    accepted = [kept_at[pair] for pair in gated_assignment(cost, is_kept)[0]]

    matched_v = {m.vehicle_id for m in accepted}
    matched_i = {m.infra_id for m in accepted}
    out: List[Trajectory] = []
    next_id = 1
    for m in accepted:
        out.append(_fuse_pair(v_by_id[m.vehicle_id], i_by_id[m.infra_id], next_id))
        next_id += 1
    for tr in vehicle_trajs:
        if tr.track_id not in matched_v:
            out.append(replace(tr, track_id=next_id, source_ids=(tr.track_id, None)))
            next_id += 1
    for tr in infra_trajs:
        if tr.track_id not in matched_i:
            out.append(replace(tr, track_id=next_id, source_ids=(None, tr.track_id)))
            next_id += 1
    return out, candidates


def _fuse_pair(v: Trajectory, i: Trajectory, coop_id: int) -> Trajectory:
    i_by_t = {round(t, 6): b for t, b in i.samples}
    v_times = {round(t, 6) for t, _ in v.samples}
    samples: List[Tuple[float, Box3D]] = []
    for t, box in v.samples:
        other = i_by_t.get(round(t, 6))
        if other is None:
            samples.append((t, box))
        else:
            samples.append((t, _mean_center(box, other)))
    for t, box in i.samples:
        if round(t, 6) not in v_times:
            samples.append((t, box))
    samples.sort(key=lambda s: s[0])
    return Trajectory(track_id=coop_id, samples=tuple(samples), provenance=Provenance.FUSED,
                      source_ids=(v.track_id, i.track_id))


# ---------------------------------------------------------------------------
# JSON-lines track files: one record per (track_id, t) with the box fields.

def _box_to_dict(b: Box3D) -> dict:
    return {"x": b.x, "y": b.y, "z": b.z, "w": b.w, "l": b.l, "h": b.h,
            "yaw": b.yaw, "category": b.category.value}


@dataclass(frozen=True)
class _TrackRecord:
    """One line of a track file, parsed and checked."""

    t: float
    track_id: int
    box: Box3D
    provenance: Provenance
    score: float
    source_ids: Tuple[Optional[int], Optional[int]]


def _number(d: dict, key: str, default: Optional[float] = None) -> float:
    if key not in d and default is None:
        raise ValueError(f"missing field {key!r}")
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"field {key!r} must be a finite number, got {value!r}")
    return float(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_record(rec) -> _TrackRecord:
    """Check one decoded line; a bad field raises ValueError naming it."""
    if not isinstance(rec, dict) or not isinstance(rec.get("box"), dict):
        raise ValueError("a record must be a JSON object with a 'box' object")
    if not _is_int(rec.get("track_id")):
        raise ValueError(f"field 'track_id' must be an integer, got {rec.get('track_id')!r}")
    source_ids = rec.get("source_ids") or [None, None]
    if (not isinstance(source_ids, list) or len(source_ids) != 2
            or not all(s is None or _is_int(s) for s in source_ids)):
        raise ValueError(f"field 'source_ids' must be two integers or nulls, got {source_ids!r}")
    b = rec["box"]
    box = Box3D(x=_number(b, "x"), y=_number(b, "y"), z=_number(b, "z"),
                w=_number(b, "w"), l=_number(b, "l"), h=_number(b, "h"),
                yaw=_number(b, "yaw", 0.0), category=Category(b.get("category", "car")))
    return _TrackRecord(t=_number(rec, "t"), track_id=rec["track_id"], box=box,
                        provenance=Provenance(rec.get("provenance", "fused")),
                        score=_number(rec, "score", 1.0), source_ids=tuple(source_ids))


def _read_records(path) -> Iterator[_TrackRecord]:
    """The records of a JSON-lines track file, blank lines skipped.

    Bad JSON, a missing or non-numeric field, an unknown category or
    provenance, or a box with non-positive dims raises DecodeError naming
    the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(json.loads(line))
            except (OverflowError, TypeError, ValueError) as exc:
                raise DecodeError(f"{path}, line {lineno}: {exc}") from exc
            yield record


def write_trajectories(path, trajectories: Iterable[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tr in trajectories:
            for t, box in tr.samples:
                fh.write(json.dumps({
                    "t": t,
                    "track_id": tr.track_id,
                    "box": _box_to_dict(box),
                    "provenance": tr.provenance.value,
                    "source_ids": list(tr.source_ids),
                }) + "\n")


def read_trajectories(path) -> List[Trajectory]:
    """Group a JSON-lines track file into time-sorted trajectories."""
    rows: Dict[Tuple[int, str], List[_TrackRecord]] = {}
    for rec in _read_records(path):
        rows.setdefault((rec.track_id, rec.provenance.value), []).append(rec)
    out = []
    for (track_id, prov), recs in sorted(rows.items()):
        recs.sort(key=lambda r: r.t)
        out.append(Trajectory(track_id=track_id, samples=tuple((r.t, r.box) for r in recs),
                              provenance=Provenance(prov), source_ids=recs[0].source_ids))
    return out


def write_tracked_objects(path, frames: Iterable[Sequence[TrackedObject]]) -> None:
    """Stream per-frame tracker output as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            for o in frame:
                fh.write(json.dumps({
                    "t": o.timestamp,
                    "track_id": o.track_id,
                    "box": _box_to_dict(o.box),
                    "score": o.score,
                    "provenance": o.provenance.value,
                }) + "\n")


def read_tracked_objects(path) -> Dict[float, List[TrackedObject]]:
    """Load a JSON-lines track file grouped by timestamp."""
    frames: Dict[float, List[TrackedObject]] = {}
    for rec in _read_records(path):
        t = round(rec.t, 6)
        frames.setdefault(t, []).append(TrackedObject(
            box=rec.box, track_id=rec.track_id, timestamp=t,
            provenance=rec.provenance, score=rec.score))
    return frames
