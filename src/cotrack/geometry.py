"""Planar poses, oriented 3D boxes, frame transforms and box center distances.

All rotations are yaw-only (about the vertical axis). Every function here is
pure and operates on immutable values, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NumericError

TWO_PI = 2.0 * math.pi


def wrap_angle(angle):
    """Wrap an angle (scalar or ndarray) into (-pi, pi]."""
    return angle - TWO_PI * np.ceil((angle - math.pi) / TWO_PI)


class Category(Enum):
    CAR = "car"
    VAN = "van"
    BUS = "bus"
    TRUCK = "truck"


# Stable wire-format codes, index == position in this tuple.
CATEGORY_ORDER = (Category.CAR, Category.VAN, Category.BUS, Category.TRUCK)


@dataclass(frozen=True)
class Pose:
    """Rigid planar transform: translation (x, y, z) plus yaw about +z.

    Applying a pose maps points from its source frame into its target frame.
    """

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "yaw", float(wrap_angle(self.yaw)))

    @classmethod
    def identity(cls) -> "Pose":
        return cls()

    def apply_to_points(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N, 3) array of points into the target frame."""
        pts = np.asarray(points, dtype=float)
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        out = np.empty_like(pts)
        out[:, 0] = c * pts[:, 0] - s * pts[:, 1] + self.x
        out[:, 1] = s * pts[:, 0] + c * pts[:, 1] + self.y
        out[:, 2] = pts[:, 2] + self.z
        return out

    def apply_to_point(self, x: float, y: float, z: float = 0.0):
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return (c * x - s * y + self.x, s * x + c * y + self.y, z + self.z)


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two poses: the result applies ``b`` first, then ``a``."""
    x, y, z = a.apply_to_point(b.x, b.y, b.z)
    return Pose(x, y, z, a.yaw + b.yaw)


def inverse(p: Pose) -> Pose:
    """Pose undoing ``p``: compose(p, inverse(p)) is the identity."""
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    return Pose(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.z, -p.yaw)


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

    def corners_bev(self) -> np.ndarray:
        """Ground-plane footprint corners, (4, 2), counter-clockwise."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        half_l, half_w = 0.5 * self.l, 0.5 * self.w
        local = np.array(
            [[half_l, -half_w], [half_l, half_w], [-half_l, half_w], [-half_l, -half_w]]
        )
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.x, self.y])


def transform_box(b: Box3D, src_to_dst: Pose) -> Box3D:
    """Re-express a box in another frame; dims are unchanged."""
    x, y, z = src_to_dst.apply_to_point(b.x, b.y, b.z)
    return replace(b, x=x, y=y, z=z, yaw=float(wrap_angle(b.yaw + src_to_dst.yaw)))


def center_distance_matrix(rows: Sequence[Box3D], cols: Sequence[Box3D]) -> np.ndarray:
    """Pairwise center distances, shape (len(rows), len(cols))."""
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    a = np.array([[b.x, b.y, b.z] for b in rows])
    c = np.array([[b.x, b.y, b.z] for b in cols])
    diff = a[:, None, :] - c[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle in the ego frame, the evaluation region."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigurationError("region must have x_min < x_max and y_min < y_max")

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


_EPS_T = 1e-9


@dataclass(frozen=True)
class Blockers:
    """Ray blockers stacked for one batched slab test: boxes first, then walls.

    ``(point - centre[k]) @ rot_t[k]`` maps world points into blocker ``k``'s
    frame, where it is the rectangle ``[lo[k], hi[k]]``. Shapes are (K, 2, 2)
    and (K, 1, 2). A wall's rotation is the identity and its centre zero, so
    its frame is the world bitwise: x * 1 + y * 0 == x, up to the sign of a
    zero, which no comparison in the slab test sees.
    """

    rot_t: np.ndarray
    centre: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(
        cls,
        boxes: Sequence[Box3D] = (),
        walls: Sequence[Tuple[float, float, float, float]] = (),
    ) -> "Blockers":
        """Box footprints, then axis-aligned walls (x_min, y_min, x_max, y_max)."""
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
        return cls(rot_t, centre, lo, hi)


def segments_hit_blockers(starts: np.ndarray, ends: np.ndarray, blockers: Blockers) -> np.ndarray:
    """Whether 2D segments cross the interior of each blocker, shape (K, N).

    One broadcast slab test in every blocker's frame. The rotation into each
    frame stays a (stacked) matrix product, so each row is bitwise what a
    test against that blocker alone gives.
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

