"""Multi-object tracker: a constant-velocity Kalman filter run over every live
track at once, gated optimal-assignment association on center distance, and
a hit/miss birth-death lifecycle with unique monotone track ids.

Track state is the 10-vector (x, y, z, yaw, w, l, h, vx, vy, vz). The live
tracks are stacked (``Tracks``), so a frame's predict and update are each one
array expression over all of them; each matches the filter run one track at
a time bit for bit (``tests/oracle_utils.py`` keeps that filter as the
oracle). Tracker state is strictly sequential within a run; distinct runs are
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .assignment import gated_assignment
from .errors import ConfigurationError, NumericError, OrderingError
from .geometry import Boxes, center_distances, wrap_angle

STATE_DIM = 10
MEAS_DIM = 7  # x, y, z, yaw, w, l, h
_YAW = 3
MIN_DIM_M = 0.05  # floor on a reported box dim; the filter's dims can shrink to <= 0

_H = np.eye(MEAS_DIM, STATE_DIM)
# Columns of a ``Boxes`` row (x, y, z, w, l, h, yaw) in measurement order, and back.
_MEAS_OF_BOX = [0, 1, 2, 6, 3, 4, 5]
_BOX_OF_MEAS = [0, 1, 2, 4, 5, 6, 3]


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
        if self.min_hits < 1 or self.max_age < 0:
            raise ConfigurationError("invalid tracker lifecycle parameters")
        for f in fields(self)[2:]:  # the gate, noise densities and initial variances
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"tracker {f.name} must be finite and > 0, got {value}")

    def measurement_noise(self) -> np.ndarray:
        return np.diag([self.r_pos] * 3 + [self.r_yaw] + [self.r_dims] * 3)

    def process_noise_density(self) -> np.ndarray:
        return np.diag([self.q_pose] * 7 + [self.q_vel] * 3)

    def initial_covariance(self) -> np.ndarray:
        return np.diag(
            [self.p0_pose] * 3 + [self.p0_yaw] + [self.p0_dims] * 3 + [self.p0_vel] * 3
        )


@dataclass(frozen=True, eq=False)
class Tracks:
    """The live tracks, stacked: row i of every array is one track."""

    state: np.ndarray  # (T, 10)
    covariance: np.ndarray  # (T, 10, 10)
    ids: np.ndarray  # (T,)
    hits: np.ndarray  # (T,)
    misses: np.ndarray  # (T,)
    score: np.ndarray  # (T,) the score of the track's last detection

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> "Tracks":
        return Tracks(*(column[index] for column in vars(self).values()))


def _positive_definite(p: np.ndarray) -> np.ndarray:
    """The symmetric part of each (10, 10) covariance, checked positive definite."""
    sym = 0.5 * (p + p.swapaxes(-1, -2))
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError("track covariance is not positive definite") from exc
    return sym


def predict(state: np.ndarray, p: np.ndarray, dt: float, q: np.ndarray):
    """(T, 10) states and covariances advanced dt seconds at constant velocity; ``q`` is
    ``TrackerParams.process_noise_density()``."""
    if dt < 0:
        raise OrderingError(f"dt must be non-negative, got {dt}")
    f = np.eye(STATE_DIM)
    f[0, 7] = f[1, 8] = f[2, 9] = dt
    state = (f @ state[:, :, None])[:, :, 0]
    state[:, _YAW] = wrap_angle(state[:, _YAW])
    return state, _positive_definite(f @ p @ f.T + q * dt)


def update(state: np.ndarray, p: np.ndarray, z: np.ndarray, r: np.ndarray):
    """Kalman update of (M, 10) states and covariances on (M, 7) measurements
    (x, y, z, yaw, w, l, h) with noise ``r`` (``TrackerParams.measurement_noise()``).

    The yaw innovation wraps into (-pi, pi]. Uses the Joseph-form covariance
    update, then symmetrizes and checks positive definiteness.
    """
    innovation = z - (_H @ state[:, :, None])[:, :, 0]
    innovation[:, _YAW] = wrap_angle(innovation[:, _YAW])
    s = _H @ p @ _H.T + r
    gain = p @ _H.T @ np.linalg.inv(s)
    state = state + (gain @ innovation[:, :, None])[:, :, 0]
    state[:, _YAW] = wrap_angle(state[:, _YAW])
    ikh = np.eye(STATE_DIM) - gain @ _H
    cov = ikh @ p @ ikh.swapaxes(-1, -2) + gain @ r @ gain.swapaxes(-1, -2)
    return state, _positive_definite(cov)


class Tracker:
    """Stateful per-run tracker; call step() with strictly increasing times."""

    def __init__(self, params: TrackerParams = TrackerParams()):
        self.params = params
        self._r = params.measurement_noise()
        self._q = params.process_noise_density()
        self._p0 = params.initial_covariance()
        self.tracks = Tracks(np.zeros((0, STATE_DIM)), np.zeros((0, STATE_DIM, STATE_DIM)),
                             *np.zeros((3, 0), dtype=int), np.zeros(0))
        self._next_id = 1
        self._frame_count = 0
        self._last_t: Optional[float] = None

    def step(self, detections: Boxes, t: float) -> Tuple[Boxes, np.ndarray]:
        """Advance one frame; return the reportable tracks' boxes and their ids.

        Tracks updated this frame are reported once they have reached
        min_hits. During the first min_hits frames of a run every updated
        track is reported (warm-up), so a perfect detector yields output
        from frame one. Reported boxes are cars scored by the track's last
        detection, in track order.
        """
        if self._last_t is not None and t <= self._last_t:
            raise OrderingError(f"step times must strictly increase ({self._last_t} -> {t})")
        dt = 0.0 if self._last_t is None else t - self._last_t
        self._last_t = t
        self._frame_count += 1
        p = self.params

        trk = self.tracks
        state, cov = predict(trk.state, trk.covariance, dt, self._q)
        if not np.isfinite(state).all():
            raise NumericError("track state is not finite")
        det = detections.values
        cost = center_distances(state[:, :3], det[:, :3])
        matches, _, births = gated_assignment(cost, cost <= p.gate_m)
        misses, hits, score = trk.misses + 1, trk.hits.copy(), trk.score.copy()
        if matches:
            rows, cols = np.array(matches).T
            state[rows], cov[rows] = update(state[rows], cov[rows], det[cols][:, _MEAS_OF_BOX],
                                            self._r)
            misses[rows] = 0
            hits[rows] += 1
            score[rows] = detections.score[cols]

        n = len(births)
        born = np.hstack([det[births][:, _MEAS_OF_BOX], np.zeros((n, STATE_DIM - MEAS_DIM))])
        live = Tracks(
            np.concatenate([state, born]),
            np.concatenate([cov, np.broadcast_to(self._p0, (n, STATE_DIM, STATE_DIM))]),
            np.concatenate([trk.ids, self._next_id + np.arange(n)]),
            np.concatenate([hits, np.ones(n, dtype=int)]),
            np.concatenate([misses, np.zeros(n, dtype=int)]),
            np.concatenate([score, detections.score[births]]),
        )
        self._next_id += n
        self.tracks = live = live.take(live.misses <= p.max_age)

        warm = self._frame_count <= p.min_hits
        out = np.flatnonzero((live.misses == 0) & ((live.hits >= p.min_hits) | warm))
        values = live.state[out[:, None], _BOX_OF_MEAS]
        np.maximum(values[:, 3:6], MIN_DIM_M, out=values[:, 3:6])
        values[:, 6] = wrap_angle(values[:, 6])
        return Boxes(values, np.zeros(len(out), dtype=np.uint8), live.score[out]), live.ids[out]
