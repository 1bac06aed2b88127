"""Multi-object tracker: per-track constant-velocity Kalman filter, gated
optimal-assignment association on center distance, and a hit/miss
birth-death lifecycle with unique monotone track ids.

Track state is the 10-vector (x, y, z, yaw, w, l, h, vx, vy, vz). Tracker
state is strictly sequential within a run; distinct runs are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .assignment import gated_assignment
from .detector import Detection
from .errors import ConfigurationError, NumericError, OrderingError
from .geometry import Box3D, center_distance_matrix, wrap_angle
from .scenario import Provenance, TrackedObject

STATE_DIM = 10
MEAS_DIM = 7  # x, y, z, yaw, w, l, h
_YAW = 3
MIN_DIM_M = 0.05  # floor on a reported box dim; the filter's dims can shrink to <= 0

_H = np.zeros((MEAS_DIM, STATE_DIM))
_H[:MEAS_DIM, :MEAS_DIM] = np.eye(MEAS_DIM)


@dataclass(frozen=True)
class TrackerParams:
    min_hits: int = 3
    max_age: int = 2
    gate_m: float = 4.0  # association gate on center distance
    q_pose: float = 0.01  # process noise density, pose and dims
    q_vel: float = 1.0  # process noise density, velocities
    r_pos: float = 0.25
    r_yaw: float = 0.1
    r_dims: float = 0.25
    p0_pose: float = 1.0
    p0_yaw: float = 0.5
    p0_dims: float = 1.0
    p0_vel: float = 100.0

    def __post_init__(self):
        if self.min_hits < 1 or self.max_age < 0 or self.gate_m <= 0:
            raise ConfigurationError("invalid tracker lifecycle parameters")

    def measurement_noise(self) -> np.ndarray:
        return np.diag([self.r_pos] * 3 + [self.r_yaw] + [self.r_dims] * 3)

    def process_noise_density(self) -> np.ndarray:
        return np.diag([self.q_pose] * 7 + [self.q_vel] * 3)

    def initial_covariance(self) -> np.ndarray:
        return np.diag(
            [self.p0_pose] * 3 + [self.p0_yaw] + [self.p0_dims] * 3 + [self.p0_vel] * 3
        )


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


class Tracker:
    """Stateful per-run tracker; call step() with strictly increasing times."""

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
        """Advance one frame and return the current reportable tracks.

        Tracks updated this frame are reported once they have reached
        min_hits. During the first min_hits frames of a run every updated
        track is reported (warm-up), so a perfect detector yields output
        from frame one.
        """
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
