"""CLEAR-MOT evaluation with persistent correspondences, plus run reports.

MOTA = 1 - (FP + FN + IDS) / GT over the sequence; MOTP is the mean center
distance of matched pairs in meters. Correspondences carry over from the
previous frame while still within the gate, so identity switches count
against stable assignments rather than per-frame re-matching churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .assignment import gated_assignment
from .channel import Channel, bps
from .errors import AlignmentError, ConfigurationError
from .geometry import Boxes, center_distances


@dataclass(frozen=True)
class MotResult:
    """A sequence's CLEAR-MOT scores, named and ordered as ``RunReport``'s
    score fields: a report, ``cotrack eval`` and runs.csv take them by name."""

    mota: float
    motp_m: float  # meters; mean matched center distance
    ids: int
    fp: int
    fn: int
    num_gt: int


@dataclass(frozen=True)
class RunReport:
    """One (scenario, fusion, latency, seed) cell of an experiment."""

    fusion: str
    latency_ms: float
    seed: int
    mota: float
    motp_m: float
    ids: int
    fp: int
    fn: int
    num_gt: int
    bps_pre: float
    bps_post: float
    fallback_frames: int
    match_gate_m: float
    duration_s: float
    num_frames: int

    def to_json_dict(self) -> dict:
        # Every field is a scalar that __init__ sets in field order, so the
        # instance dict is the report; asdict's recursive copy is not needed.
        return dict(vars(self))

    @staticmethod
    def csv_columns() -> List[str]:
        """The fields in ``to_json_dict`` order."""
        return [f.name for f in fields(RunReport)]


def check_gate(gate_m: float) -> float:
    """A CLEAR-MOT match gate in meters, which must be positive and finite."""
    if not 0.0 < gate_m < math.inf:
        raise ConfigurationError(f"match gate must be positive and finite, got {gate_m}")
    return gate_m


Frames = Sequence[Tuple[np.ndarray, Boxes]]


class FrameEvents(NamedTuple):
    """One frame's CLEAR-MOT events by track id, each list in row order. Each
    gt row is one match or one miss, each hyp row one match or one false
    positive, and each switch is also a match."""

    matches: List[Tuple[int, int, float]]  # (gt id, hyp id, centre distance)
    misses: List[int]  # gt ids
    false_positives: List[int]  # hyp ids
    switches: List[Tuple[int, int, int]]  # (gt id, previous hyp id, new hyp id)


def clearmot_events(gt_frames: Frames, hyp_frames: Frames,
                    match_threshold_m: float = 2.0) -> List[FrameEvents]:
    """Match a hypothesis sequence to frame-aligned ground truth: one ``FrameEvents`` per frame.

    A frame is an ``(ids, boxes)`` pair, an int array of unique ids and a
    ``Boxes`` record row for row; only the ids and the centres
    ``boxes.values[:, :3]`` are read. Per frame: correspondences from the
    previous frame are kept while both members are present and within the
    gate; the remainder are matched by minimum-cost assignment, maximizing
    the number of gated matches first. A ground-truth object matched to a
    different hypothesis id than its last known one is an identity switch.
    """
    gate = check_gate(match_threshold_m)
    if len(gt_frames) != len(hyp_frames):
        raise AlignmentError(
            f"gt has {len(gt_frames)} frames but hypotheses have {len(hyp_frames)}"
        )
    events: List[FrameEvents] = []
    prev_pairs: Dict[int, int] = {}  # gt id -> hyp id matched in the previous frame
    last_known: Dict[int, int] = {}  # gt id -> hyp id from the most recent match

    for (gt_ids, gts), (hyp_ids, hyps) in zip(gt_frames, hyp_frames):
        gt_ids, hyp_ids = gt_ids.tolist(), hyp_ids.tolist()
        dist = center_distances(gts.values[:, :3], hyps.values[:, :3])

        hyp_index = {tid: j for j, tid in enumerate(hyp_ids)}
        matched_g: Dict[int, int] = {}
        # Carry forward still-valid pairs from the previous frame.
        for i, gid in enumerate(gt_ids):
            hid = prev_pairs.get(gid)
            if hid is None or hid not in hyp_index:
                continue
            j = hyp_index[hid]
            if dist[i, j] <= gate:
                matched_g[i] = j

        used_h = set(matched_g.values())
        free_g = [i for i in range(len(gts)) if i not in matched_g]
        free_h = [j for j in range(len(hyps)) if j not in used_h]
        sub = dist[np.ix_(free_g, free_h)]
        ok = sub <= gate
        sentinel = (gate + 1.0) * (min(len(free_g), len(free_h)) + 1)
        for r, c in gated_assignment(np.where(ok, sub, sentinel), ok)[0]:
            matched_g[free_g[r]] = free_h[c]

        matches, switches = [], []
        for i in sorted(matched_g):
            gid, hid = gt_ids[i], hyp_ids[matched_g[i]]
            if gid in last_known and last_known[gid] != hid:
                switches.append((gid, last_known[gid], hid))
            last_known[gid] = hid
            matches.append((gid, hid, float(dist[i, matched_g[i]])))
        used_h = set(matched_g.values())
        events.append(FrameEvents(matches, [g for i, g in enumerate(gt_ids) if i not in matched_g],
                                  [h for j, h in enumerate(hyp_ids) if j not in used_h], switches))
        prev_pairs = {gid: hid for gid, hid, _ in matches}
    return events


def clearmot_result(events: Sequence[FrameEvents]) -> MotResult:
    """A sequence's scores, reduced from its ``FrameEvents``: each count is a
    sum over frames and ``num_gt`` is matches plus misses. MOTP sums each
    frame's match distances sorted, so it is exactly independent of the
    within-frame object order."""
    dist_sum = 0.0
    for frame in events:
        dist_sum += float(np.sum(np.sort([d for _, _, d in frame.matches])))
    n_matches = sum(len(frame.matches) for frame in events)
    fn = sum(len(frame.misses) for frame in events)
    fp = sum(len(frame.false_positives) for frame in events)
    ids = sum(len(frame.switches) for frame in events)
    num_gt = n_matches + fn
    mota = 1.0 - (fp + fn + ids) / num_gt if num_gt > 0 else 1.0
    motp = dist_sum / n_matches if n_matches else 0.0
    return MotResult(mota=mota, motp_m=motp, ids=ids, fp=fp, fn=fn, num_gt=num_gt)


def evaluate_clearmot(gt_frames: Frames, hyp_frames: Frames,
                      match_threshold_m: float = 2.0) -> MotResult:
    """Score a hypothesis sequence against frame-aligned ground truth: the
    matcher ``clearmot_events`` reduced by ``clearmot_result``."""
    return clearmot_result(clearmot_events(gt_frames, hyp_frames, match_threshold_m))


def aggregate_run(
    mot: MotResult,
    channel: Channel,
    duration_s: float,
    fusion: str,
    latency_ms: float,
    seed: int,
    fallback_frames: int,
    match_gate_m: float,
    num_frames: int,
) -> RunReport:
    """Attach transmission cost and run provenance to a tracking result.

    The score fields are ``mot``'s, by name; the rates are those of every
    message sent into ``channel``, 0.0 for a channel nothing was sent into."""
    bps_pre, bps_post = bps(channel.messages, duration_s)
    return RunReport(
        fusion=fusion,
        latency_ms=latency_ms,
        seed=seed,
        **vars(mot),
        bps_pre=bps_pre,
        bps_post=bps_post,
        fallback_frames=fallback_frames,
        match_gate_m=match_gate_m,
        duration_s=duration_s,
        num_frames=num_frames,
    )
