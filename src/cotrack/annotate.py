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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .assignment import gated_assignment
from .errors import ConfigurationError, DecodeError, OrderingError, UndefinedSimilarityError
from .geometry import CATEGORY_ORDER, Boxes, Category, center_distances, wrap_angle
from .scenario import Provenance

SIMILARITY_SCALE_M = 2.0
# Most segments a trajectory set may cut into: a 10 s window stepping by 5 s
# covers about 139 hours.
MAX_SEGMENTS = 100_000


@dataclass(frozen=True)
class Trajectory:
    """One track over time: row k of ``boxes`` is its box at ``times[k]``, and
    the times strictly increase."""

    track_id: int
    times: Tuple[float, ...]
    boxes: Boxes
    provenance: Provenance = Provenance.FUSED
    source_ids: Tuple[Optional[int], Optional[int]] = (None, None)

    def __post_init__(self):
        if len(self.times) != len(self.boxes):
            raise ConfigurationError(f"trajectory {self.track_id} needs one time per box")
        if any(b - a <= 0 for a, b in zip(self.times, self.times[1:])):
            raise OrderingError(f"trajectory {self.track_id} times must strictly increase")


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


def _rows_by_time(tr: Trajectory) -> Dict[float, int]:
    """Each sample's row, keyed by its time to the microsecond."""
    return {round(t, 6): k for k, t in enumerate(tr.times)}


def trajectory_similarity(a: Trajectory, b: Trajectory) -> float:
    """Similarity in [0, 1]: exp(-mean center distance / 2 m) over overlap.

    Identical trajectories score exactly 1; the score decays toward 0 as the
    trajectories diverge. Requires at least two overlapping frames.
    """
    rows_b = _rows_by_time(b)
    centres_a, centres_b = a.boxes.values[:, :3].tolist(), b.boxes.values[:, :3].tolist()
    dists = [math.dist(centre, centres_b[rows_b[round(t, 6)]])
             for t, centre in zip(a.times, centres_a) if round(t, 6) in rows_b]
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
    A span of more than ``MAX_SEGMENTS`` strides is a ``ConfigurationError``,
    raised before any segment is cut.
    """
    if not 0 <= overlap_s < window_s < math.inf:
        raise ConfigurationError(
            f"fragment requires window_s > overlap_s >= 0, both finite, "
            f"got {window_s} and {overlap_s}")
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
            # Times strictly increase: the window's rows are one run of them.
            rows = slice(bisect_left(traj.times, start), bisect_right(traj.times, end))
            if rows.start < rows.stop:
                clipped.append(replace(traj, times=traj.times[rows], boxes=traj.boxes.take(rows)))
        segments.append(
            Segment(index=index, start_s=start, end_s=end, full=end <= t_end,
                    trajectories=tuple(clipped))
        )
        index += 1
        start = t0 + index * stride
    return segments


def frame_rate_hz(trajectories: Sequence[Trajectory]) -> int:
    """The rate trajectories are sampled at: one over the median gap between
    consecutive samples, to whole Hz and at least 1 (10 when no track has two
    samples). A gap under the microsecond that times pair at counts as one."""
    gaps = [b - a for tr in trajectories for a, b in zip(tr.times, tr.times[1:])]
    if not gaps:
        return 10
    return max(1, round(1.0 / max(float(np.median(gaps)), 1e-6)))


def check_window(window_s: float, frame_rate_hz: int) -> None:
    """A scoring window must hold at least one frame, and finitely many."""
    frames = window_s * frame_rate_hz
    if not frames < math.inf:
        raise ConfigurationError(f"window_s * frame_rate_hz must be finite, "
                                 f"got {window_s} s at {frame_rate_hz} Hz")
    if frames < 1:
        raise ConfigurationError(f"window_s * frame_rate_hz must be at least 1 frame, "
                                 f"got {window_s} s at {frame_rate_hz} Hz")


def score_interest(
    t: Trajectory,
    window_s: float = 10.0,
    frame_rate_hz: int = 10,
) -> float:
    """Interest score: turning + speed change + completion.

    Turning is the total absolute yaw change along the track. Speed change
    is the largest absolute speed difference across a one-second gap, with
    speeds taken from finite differences of the centers. Completion is the
    fraction of window frames the track is present, capped at 1; a window
    shorter than one frame is a ``ConfigurationError`` (``check_window``).
    """
    check_window(window_s, frame_rate_hz)
    if len(t.times) < 3:
        raise UndefinedSimilarityError(f"interest score needs >= 3 samples, got {len(t.times)}")
    times = np.array(t.times)
    yaws = np.unwrap(t.boxes.values[:, 6])
    turning = float(np.abs(np.diff(yaws)).sum())

    step = np.linalg.norm(np.diff(t.boxes.values[:, :2], axis=0), axis=1)
    speeds = step / np.diff(times)
    lag = min(frame_rate_hz, len(speeds) - 1)
    if lag >= 1:
        speed_change = float(np.abs(speeds[lag:] - speeds[:-lag]).max())
    else:
        speed_change = 0.0

    expected_frames = int(round(window_s * frame_rate_hz))
    completion = min(1.0, len(t.times) / expected_frames)

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
    provenance. Cooperative ids are assigned sequentially from 1. The match
    threshold must be non-negative and finite (0 pairs only coincident
    centres) and the similarity threshold in [0, 1], else
    ``ConfigurationError``.
    """
    if not 0 <= match_threshold_m < math.inf:
        raise ConfigurationError(
            f"match threshold must be non-negative and finite, got {match_threshold_m}")
    if not 0 <= similarity_threshold <= 1:
        raise ConfigurationError(
            f"similarity threshold must be in [0, 1], got {similarity_threshold}")
    v_by_id = {tr.track_id: tr for tr in vehicle_trajs}
    i_by_id = {tr.track_id: tr for tr in infra_trajs}

    # Per frame time, to the microsecond: each side's (track id, centre) list.
    frames: Dict[float, Tuple[list, list]] = {}
    for side, trajs in enumerate((vehicle_trajs, infra_trajs)):
        for tr in trajs:
            centres = tr.boxes.values[:, :3].tolist()
            for t, k in _rows_by_time(tr).items():
                frames.setdefault(t, ([], []))[side].append((tr.track_id, centres[k]))
    pairs = set()
    for bv, bi in frames.values():
        cost = center_distances(*(np.array([c for _, c in side]).reshape(-1, 3)
                                  for side in (bv, bi)))
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
    """``v``'s samples, each centre averaged with ``i``'s at the same time,
    and ``i``'s samples at the times ``v`` lacks, sorted by time."""
    i_rows = _rows_by_time(i)
    values = v.boxes.values.copy()
    for k, t in enumerate(v.times):
        j = i_rows.get(round(t, 6))
        if j is not None:
            values[k, :3] = 0.5 * (values[k, :3] + i.boxes.values[j, :3])
    v_rows = _rows_by_time(v)
    only_i = [j for j, t in enumerate(i.times) if round(t, 6) not in v_rows]
    times = v.times + tuple(i.times[j] for j in only_i)
    boxes = Boxes.concat([Boxes(values, v.boxes.category, v.boxes.score), i.boxes.take(only_i)])
    order = sorted(range(len(times)), key=times.__getitem__)
    return Trajectory(track_id=coop_id, times=tuple(times[k] for k in order),
                      boxes=boxes.take(order), provenance=Provenance.FUSED,
                      source_ids=(v.track_id, i.track_id))


# ---------------------------------------------------------------------------
# JSON-lines track files: one record per (track_id, t) with the box fields.

_BOX_FIELDS = ("x", "y", "z", "w", "l", "h", "yaw")


def _box_dicts(boxes: Boxes) -> List[dict]:
    return [dict(zip(_BOX_FIELDS, row), category=CATEGORY_ORDER[code].value)
            for row, code in zip(boxes.values.tolist(), boxes.category.tolist())]


@dataclass(frozen=True)
class _TrackRecord:
    """One line of a track file, parsed and checked."""

    t: float
    track_id: int
    box: Boxes  # one row, its yaw wrapped into (-pi, pi]
    provenance: Provenance
    source_ids: Tuple[Optional[int], Optional[int]]


def _number(d: dict, key: str, default: Optional[float] = None) -> float:
    if key not in d and default is None:
        raise ValueError(f"missing field {key!r}")
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"field {key!r} must be a finite number, got {value!r}")
    return float(value)


def _is_int(value) -> bool:
    """Whether ``value`` is a JSON integer that fits in 64 bits."""
    return isinstance(value, int) and not isinstance(value, bool) and -2**63 <= value < 2**63


def _parse_record(rec) -> _TrackRecord:
    """Check one decoded line: a bad field raises ValueError naming it, and a
    box that ``Boxes`` rejects raises its ``CotrackError``, also a ValueError."""
    if not isinstance(rec, dict) or not isinstance(rec.get("box"), dict):
        raise ValueError("a record must be a JSON object with a 'box' object")
    if not _is_int(rec.get("track_id")):
        raise ValueError(f"field 'track_id' must be a 64-bit integer, got {rec.get('track_id')!r}")
    source_ids = rec.get("source_ids") or [None, None]
    if (not isinstance(source_ids, list) or len(source_ids) != 2
            or not all(s is None or _is_int(s) for s in source_ids)):
        raise ValueError(f"field 'source_ids' must be two integers or nulls, got {source_ids!r}")
    b = rec["box"]
    values = np.array([[_number(b, key, 0.0 if key == "yaw" else None) for key in _BOX_FIELDS]])
    values[:, 6] = wrap_angle(values[:, 6])
    category = CATEGORY_ORDER.index(Category(b.get("category", "car")))
    score = np.array([_number(rec, "score", 1.0)])
    box = Boxes(values, np.array([category], dtype=np.uint8), score)
    return _TrackRecord(t=_number(rec, "t"), track_id=rec["track_id"], box=box,
                        provenance=Provenance(rec.get("provenance", "fused")),
                        source_ids=tuple(source_ids))


def _read_records(path) -> Iterator[Tuple[int, _TrackRecord]]:
    """The records of a JSON-lines track file with their line numbers, blank
    lines skipped.

    Bad JSON, a missing or non-numeric field, an unknown category or
    provenance, a box with non-positive dims or a score outside [0, 1]
    raises DecodeError naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(json.loads(line))
            except (OverflowError, TypeError, ValueError) as exc:
                raise DecodeError(f"{path}, line {lineno}: {exc}") from exc
            yield lineno, record


def _write_lines(path, groups) -> None:
    """Write track rows as JSON lines, each with all six fields. A group is
    ``(times, track_ids, boxes, provenances, source_ids)``, one item per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for times, track_ids, boxes, provenances, source_ids in groups:
            rows = zip(times, track_ids, _box_dicts(boxes), boxes.score.tolist(), provenances,
                       source_ids)
            fh.writelines(json.dumps({"t": t, "track_id": track_id, "box": box, "score": score,
                                      "provenance": prov.value, "source_ids": list(src)}) + "\n"
                          for t, track_id, box, score, prov, src in rows)


def write_trajectories(path, trajectories: Iterable[Trajectory]) -> None:
    _write_lines(path, ((tr.times, repeat(tr.track_id), tr.boxes, repeat(tr.provenance),
                         repeat(tr.source_ids)) for tr in trajectories))


def read_trajectories(path) -> List[Trajectory]:
    """Group a JSON-lines track file into time-sorted trajectories."""
    rows: Dict[Tuple[int, str], List[_TrackRecord]] = {}
    for _, rec in _read_records(path):
        rows.setdefault((rec.track_id, rec.provenance.value), []).append(rec)
    out = []
    for (track_id, prov), recs in sorted(rows.items()):
        recs.sort(key=lambda r: r.t)
        out.append(Trajectory(track_id=track_id, times=tuple(r.t for r in recs),
                              boxes=Boxes.concat([r.box for r in recs]),
                              provenance=Provenance(prov), source_ids=recs[0].source_ids))
    return out


def write_tracks(path, times: Iterable[float], frames: Iterable[Tuple[np.ndarray, Boxes]],
                 sides: Iterable[Sequence[Provenance]]) -> None:
    """Write ``(ids, boxes)`` frames as JSON lines, one per row; frame k is at
    ``times[k]`` and ``sides[k]`` holds its rows' provenances."""
    _write_lines(path, ((repeat(t), ids.tolist(), boxes, side, repeat((None, None)))
                        for t, (ids, boxes), side in zip(times, frames, sides)))


def read_tracks(path) -> Dict[float, Tuple[np.ndarray, Boxes]]:
    """A JSON-lines track file's ``(ids, boxes)`` frames, keyed by time to the
    microsecond in the order the times first appear. An id repeated within
    one frame raises DecodeError naming the file and the line."""
    frames: Dict[float, List[_TrackRecord]] = {}
    seen = set()
    for lineno, rec in _read_records(path):
        key = (round(rec.t, 6), rec.track_id)
        if key in seen:
            raise DecodeError(f"{path}, line {lineno}: track_id {key[1]} repeats at t={key[0]}")
        seen.add(key)
        frames.setdefault(key[0], []).append(rec)
    return {t: (np.array([r.track_id for r in recs], dtype=int),
                Boxes.concat([r.box for r in recs])) for t, recs in frames.items()}
