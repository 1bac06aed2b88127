"""Cooperative fusion strategies: raw-point, detection, and feature-grid level.

Four cooperative variants plus a no-cooperation baseline:

* early: transmitted raw points merged into the ego cloud before rasterizing
* late: transmitted boxes merged with ego boxes by gated assignment
* middle_static: the latest transmitted feature grid, warped and fused as-is
* middle_flow: like middle_static but the grid is linearly extrapolated to
  the ego timestamp using its transmitted flow before warping

With zero effective latency middle_flow reduces exactly to middle_static.

A strategy is one ``Strategy`` record in ``STRATEGIES``; the runner and
``cooperative_feature`` read nothing else of it. A new strategy supplies its
``MessageKind`` (the wire codec stays in ``channel``), whether the receiver
uses ego detections, whether its payload is made from the infra grid, how
the sender builds that payload and how the receiver fuses it. The record's
functions call pipeline stages as module globals, never as stored values,
so a tracer that rebinds those globals sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .assignment import gated_assignment
from .channel import Channel, MessageKind, decode_message
from .detector import detect
from .errors import ConfigurationError, ShapeMismatchError
from .geometry import Boxes, Pose, center_distances, inverse, wrap_angle
from .sensing import (FeatureGrid, GridSpec, PointCloud, extract_feature_flow, predict_feature,
                      rasterize_bev)


class FusionKind(Enum):
    VEHICLE_ONLY = "vehicle_only"
    EARLY = "early"
    LATE = "late"
    MIDDLE_STATIC = "middle_static"
    MIDDLE_FLOW = "middle_flow"


@dataclass(frozen=True)
class FusionMethod:
    kind: FusionKind
    late_threshold_m: float = 2.0

    def __post_init__(self):
        if not isinstance(self.kind, FusionKind):
            raise ConfigurationError(f"unknown fusion kind {self.kind!r}")
        if self.kind is FusionKind.LATE and not self.late_threshold_m > 0:
            raise ConfigurationError("late-fusion distance threshold must be positive")


def align_grid(f_inf: FeatureGrid, infra_to_ego: Pose, dst_spec: GridSpec) -> FeatureGrid:
    """Resample a grid into the ego frame by inverse warping.

    Each destination cell center maps through the ego-to-infra transform and
    samples the source bilinearly; destinations outside the source footprint
    are zero. At exact cell alignment the copy is lossless.
    """
    ego_to_infra = inverse(infra_to_ego)
    spec = f_inf.spec

    # Pure translation by whole cells between equal-resolution grids is a
    # lossless block copy; the general bilinear path reduces to it exactly,
    # this just skips the arithmetic.
    if ego_to_infra.yaw == 0.0 and spec.cell_size == dst_spec.cell_size:
        col_shift = (dst_spec.x0 + ego_to_infra.x - spec.x0) / spec.cell_size
        row_shift = (dst_spec.y0 + ego_to_infra.y - spec.y0) / spec.cell_size
        if col_shift == round(col_shift) and row_shift == round(row_shift):
            out = np.zeros(dst_spec.shape)
            dc, dr = int(round(col_shift)), int(round(row_shift))
            c_lo = max(0, -dc)
            c_hi = min(dst_spec.cols, spec.cols - dc)
            r_lo = max(0, -dr)
            r_hi = min(dst_spec.rows, spec.rows - dr)
            if c_lo < c_hi and r_lo < r_hi:
                out[r_lo:r_hi, c_lo:c_hi] = f_inf.values[
                    r_lo + dr : r_hi + dr, c_lo + dc : c_hi + dc
                ]
            return FeatureGrid(spec=dst_spec, values=out, timestamp=f_inf.timestamp,
                               frame="vehicle")

    xs, ys = dst_spec.cell_centers()
    c, s = math.cos(ego_to_infra.yaw), math.sin(ego_to_infra.yaw)
    src_x = c * xs - s * ys + ego_to_infra.x
    src_y = s * xs + c * ys + ego_to_infra.y
    u = (src_x - spec.x0) / spec.cell_size - 0.5
    v = (src_y - spec.y0) / spec.cell_size - 0.5
    u0 = np.floor(u).astype(int)
    v0 = np.floor(v).astype(int)
    fu = u - u0
    fv = v - v0

    out = np.zeros(dst_spec.shape)
    src = f_inf.values.reshape(-1, spec.channels)
    for dv in (0, 1):
        for du in (0, 1):
            uu = u0 + du
            vv = v0 + dv
            weight = (fu if du else (1.0 - fu)) * (fv if dv else (1.0 - fv))
            valid = (uu >= 0) & (uu < spec.cols) & (vv >= 0) & (vv < spec.rows)
            weight = np.where(valid, weight, 0.0)
            flat = np.clip(vv, 0, spec.rows - 1) * spec.cols + np.clip(uu, 0, spec.cols - 1)
            out += weight[:, :, None] * src[flat]
    return FeatureGrid(spec=dst_spec, values=out, timestamp=f_inf.timestamp, frame="vehicle")


def fuse_early(
    pc_ego: PointCloud,
    pc_inf: PointCloud,
    infra_to_ego: Pose,
    spec: GridSpec,
    density_cap: float = 10.0,
) -> FeatureGrid:
    """Merge the transmitted cloud into the ego cloud and rasterize once."""
    if len(pc_inf) == 0:
        merged = pc_ego.points
    else:
        moved = pc_inf.points.copy()
        moved[:, :3] = infra_to_ego.apply_to_points(pc_inf.points[:, :3])
        merged = np.concatenate([pc_ego.points, moved], axis=0) if len(pc_ego) else moved
    cloud = PointCloud(merged, "vehicle", pc_ego.timestamp)
    return rasterize_bev(cloud, spec, density_cap=density_cap)


def fuse_middle(f_ego: FeatureGrid, f_inf_aligned: FeatureGrid) -> FeatureGrid:
    """Elementwise max of two ego-frame grids with equal specs."""
    if f_ego.spec != f_inf_aligned.spec:
        raise ShapeMismatchError("middle fusion requires identical grid specs")
    values = np.maximum(f_ego.values, f_inf_aligned.values)
    return FeatureGrid(spec=f_ego.spec, values=values, timestamp=f_ego.timestamp, frame=f_ego.frame)


def fuse_late(ego: Boxes, inf: Boxes, threshold_m: float) -> Boxes:
    """Merge two ego-frame box records by gated optimal assignment.

    Matched pairs (center distance <= threshold) merge into one box whose
    center and dims are score-weighted averages, yaw and category come from
    the higher-score member (the ego box on a tie), and the score is the max.
    Unmatched boxes pass through. Output order: ego order with matched
    entries replaced by their merge, then leftover transmitted boxes.
    """
    cost = center_distances(ego.values[:, :3], inf.values[:, :3])
    pairs, _, leftover = gated_assignment(cost, cost <= threshold_m)
    values, category, score = ego.values.copy(), ego.category.copy(), ego.score.copy()
    if pairs:
        r, c = np.array(pairs).T
        a, b = ego.values[r], inf.values[c]
        sa, sb = ego.score[r], inf.score[c]
        wa, wb = (np.where(sa + sb <= 0, 1.0, w)[:, None] for w in (sa, sb))
        values[r, :6] = (wa * a[:, :6] + wb * b[:, :6]) / (wa + wb)
        ego_leads = sa >= sb
        values[r, 6] = wrap_angle(np.where(ego_leads, a[:, 6], b[:, 6]))
        category[r] = np.where(ego_leads, ego.category[r], inf.category[c])
        score[r] = np.where(sb > sa, sb, sa)
    return Boxes.concat([Boxes(values, category, score), inf.take(leftover)])


@dataclass
class EgoInputs:
    """Per-frame vehicle-side products handed to the fusion stage."""

    cloud: PointCloud  # ego frame
    grid: FeatureGrid  # ego frame
    detections: Optional[Boxes]  # ego frame; None when no strategy uses them
    density_cap: float = 10.0


@dataclass
class FusionOutput:
    """Either a fused grid (grid-level strategies) or fused detections."""

    grid: Optional[FeatureGrid] = None
    detections: Optional[Boxes] = None
    used_fallback: bool = False
    tau_s: float = 0.0


class Strategy(NamedTuple):
    """What one fusion kind sends and how the receiver fuses it."""

    message: Optional[MessageKind]  # the payload's wire kind; None sends nothing
    ego_detections: bool  # the receiver uses detections made on the ego grid
    infra_grid: bool  # the payload is made from the infra grid
    # (infra cloud, infra grid, previous infra grid or None, DetectParams) -> payload
    payload: Optional[Callable] = None
    # (FusionMethod, decoded payload, tau, EgoInputs, infra_to_ego) -> FusionOutput
    fuse: Optional[Callable] = None


def _grid_and_flow(cloud, grid, prev_grid, params):
    """The grid and its flow since the previous frame's; the first frame's flow is zero."""
    return grid, (extract_feature_flow(prev_grid, grid) if prev_grid is not None
                  else replace(grid, values=np.zeros(grid.spec.shape)))


def _fuse_boxes(fusion, boxes, tau, ego, infra_to_ego):
    return FusionOutput(detections=fuse_late(ego.detections, boxes.transformed(infra_to_ego),
                                             fusion.late_threshold_m), tau_s=tau)


def _fuse_grid(fusion, f_inf, tau, ego, infra_to_ego):
    aligned = align_grid(f_inf, infra_to_ego, ego.grid.spec)
    return FusionOutput(grid=fuse_middle(ego.grid, aligned), tau_s=tau)


STRATEGIES = {
    FusionKind.VEHICLE_ONLY: Strategy(None, ego_detections=True, infra_grid=False),
    FusionKind.EARLY: Strategy(
        MessageKind.RAW_POINTS, ego_detections=False, infra_grid=False,
        payload=lambda cloud, grid, prev_grid, params: cloud,
        fuse=lambda fusion, points, tau, ego, infra_to_ego: FusionOutput(
            grid=fuse_early(ego.cloud, points, infra_to_ego, ego.grid.spec, ego.density_cap),
            tau_s=tau)),
    FusionKind.LATE: Strategy(
        MessageKind.DETECTIONS, ego_detections=True, infra_grid=True,
        payload=lambda cloud, grid, prev_grid, params: detect(grid, params), fuse=_fuse_boxes),
    FusionKind.MIDDLE_STATIC: Strategy(
        MessageKind.FEATURE, ego_detections=False, infra_grid=True,
        payload=lambda cloud, grid, prev_grid, params: grid, fuse=_fuse_grid),
    FusionKind.MIDDLE_FLOW: Strategy(
        MessageKind.FEATURE_WITH_FLOW, ego_detections=False, infra_grid=True,
        payload=_grid_and_flow,
        fuse=lambda fusion, pair, tau, *rest: _fuse_grid(fusion, predict_feature(*pair, tau),
                                                          tau, *rest)),
}


def cooperative_feature(
    fusion: FusionMethod,
    channel: Optional[Channel],
    t_v: float,
    ego: EgoInputs,
    infra_to_ego: Pose,
    infra_spec: GridSpec,
    compression: bool,
) -> FusionOutput:
    """Produce the fused representation for one ego frame.

    A strategy that sends a message decodes the latest arrived one against
    the run's infra grid and grid format (``decode_message``) and fuses it
    with tau = t_v minus the message capture time. With no message (always
    for ``vehicle_only``) the frame is the ego frame alone, flagged as a
    fallback when the strategy sends one.
    """
    strategy = STRATEGIES[fusion.kind]
    sends = strategy.message is not None
    msg = channel.latest(t_v) if sends and channel is not None else None
    if msg is None:
        return FusionOutput(grid=ego.grid, used_fallback=sends,
                            detections=ego.detections if strategy.ego_detections else None)
    content = decode_message(msg, infra_spec, compression)
    return strategy.fuse(fusion, content, t_v - msg.t_send, ego, infra_to_ego)
