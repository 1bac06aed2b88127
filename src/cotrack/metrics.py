"""CLEAR-MOT evaluation with persistent correspondences, plus run reports.

MOTA = 1 - (FP + FN + IDS) / GT over the sequence; MOTP is the mean center
distance of matched pairs in meters. Correspondences carry over from the
previous frame while still within the gate, so identity switches count
against stable assignments rather than per-frame re-matching churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .assignment import gated_assignment
from .channel import Channel, bps
from .errors import AlignmentError, ConfigurationError
from .geometry import Boxes, center_distances


@dataclass(frozen=True)
class MotResult:
    mota: float
    motp: float  # meters; mean matched center distance
    ids: int
    fp: int
    fn: int
    num_gt: int
    num_matches: int = 0


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


def evaluate_clearmot(
    gt_frames: Sequence[Tuple[np.ndarray, Boxes]],
    hyp_frames: Sequence[Tuple[np.ndarray, Boxes]],
    match_threshold_m: float = 2.0,
) -> MotResult:
    """Score a hypothesis sequence against frame-aligned ground truth.

    A frame is an ``(ids, boxes)`` pair, an int array and a ``Boxes`` record
    row for row; only the ids and the centres ``boxes.values[:, :3]`` are
    read. Per frame: correspondences from the previous frame are kept while
    both members are present and within the gate; the remainder are matched
    by minimum-cost assignment, maximizing the number of gated matches first.
    A ground-truth object matched to a different hypothesis id than its last
    known one counts one identity switch.
    """
    gate = check_gate(match_threshold_m)
    if len(gt_frames) != len(hyp_frames):
        raise AlignmentError(
            f"gt has {len(gt_frames)} frames but hypotheses have {len(hyp_frames)}"
        )
    fp = fn = ids = num_gt = 0
    dist_sum = 0.0
    n_matches = 0
    prev_pairs: Dict[int, int] = {}  # gt id -> hyp id matched in the previous frame
    last_known: Dict[int, int] = {}  # gt id -> hyp id from the most recent match

    for (gt_ids, gts), (hyp_ids, hyps) in zip(gt_frames, hyp_frames):
        num_gt += len(gts)
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

        cur_pairs: Dict[int, int] = {}
        frame_dists = []
        for i, j in matched_g.items():
            gid, hid = gt_ids[i], hyp_ids[j]
            if gid in last_known and last_known[gid] != hid:
                ids += 1
            last_known[gid] = hid
            cur_pairs[gid] = hid
            frame_dists.append(float(dist[i, j]))
            n_matches += 1
        # Sorted accumulation keeps MOTP exactly independent of the
        # within-frame object order.
        dist_sum += float(np.sum(np.sort(frame_dists))) if frame_dists else 0.0
        fn += len(gts) - len(matched_g)
        fp += len(hyps) - len(matched_g)
        prev_pairs = cur_pairs

    mota = 1.0 - (fp + fn + ids) / num_gt if num_gt > 0 else 1.0
    motp = dist_sum / n_matches if n_matches else 0.0
    return MotResult(mota=mota, motp=motp, ids=ids, fp=fp, fn=fn, num_gt=num_gt,
                     num_matches=n_matches)


def aggregate_run(
    mot: MotResult,
    channel: Optional[Channel],
    duration_s: float,
    fusion: str,
    latency_ms: float,
    seed: int,
    fallback_frames: int = 0,
    match_gate_m: float = 2.0,
    num_frames: int = 0,
) -> RunReport:
    """Attach transmission cost and run provenance to a tracking result."""
    messages = channel.messages if channel is not None else []
    bps_pre, bps_post = bps(messages, duration_s) if messages else (0.0, 0.0)
    return RunReport(
        fusion=fusion,
        latency_ms=latency_ms,
        seed=seed,
        mota=mot.mota,
        motp_m=mot.motp,
        ids=mot.ids,
        fp=mot.fp,
        fn=mot.fn,
        num_gt=mot.num_gt,
        bps_pre=bps_pre,
        bps_post=bps_post,
        fallback_frames=fallback_frames,
        match_gate_m=match_gate_m,
        duration_s=duration_s,
        num_frames=num_frames,
    )
