"""Planar poses, oriented 3D boxes, frame transforms and box center distances.

All rotations are yaw-only (about the vertical axis). A run carries each
frame's boxes as one ``Boxes`` record; ``Box3D`` is one box, made where a box
leaves the run (tracked objects, track files). Every function here is pure
and operates on immutable values, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class Boxes:
    """A frame's boxes as one record: row i of each array is one box.

    ``values`` is (N, 7): x, y, z, w, l, h, yaw, as in ``Box3D``; ``category``
    holds ``CATEGORY_ORDER`` codes and ``score`` confidences in [0, 1]. A new
    record checks its rows as ``Box3D`` checks a box, and the scores, but
    wraps no yaw: ``wrap_angle`` is not idempotent next to -pi, so each stage
    wraps exactly where the per-box path built a ``Box3D``.
    """

    values: np.ndarray
    category: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        values, score = self.values, self.score
        if not np.isfinite(values).all():
            raise NumericError("box fields must be finite")
        if not values[:, 3:6].min(initial=math.inf) > 0:
            raise ConfigurationError(f"box dims must be positive, got {values[:, 3:6].tolist()}")
        if not (score.min(initial=0.0) >= 0.0 and score.max(initial=1.0) <= 1.0):
            raise NumericError(f"scores must be in [0, 1], got {score.tolist()}")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, boxes: Sequence[Box3D], scores: Optional[Sequence[float]] = None) -> "Boxes":
        """The record of ``boxes``, fields as they are; scores default to 1."""
        return cls(np.array([(b.x, b.y, b.z, b.w, b.l, b.h, b.yaw) for b in boxes]).reshape(-1, 7),
                   np.array([CATEGORY_ORDER.index(b.category) for b in boxes], dtype=np.uint8),
                   np.ones(len(boxes)) if scores is None else np.array(scores, dtype=float))

    def take(self, index) -> "Boxes":
        return Boxes(self.values[index], self.category[index], self.score[index])

    def transformed(self, src_to_dst: Pose) -> "Boxes":
        """The boxes re-expressed in another frame; dims are unchanged.

        Centres move by ``Pose.apply_to_points`` (``apply_to_point``'s
        arithmetic); each yaw turns by the pose's and wraps twice, as
        ``transform_box`` did and the ``Box3D`` it made.
        """
        values = self.values.copy()
        values[:, :3] = src_to_dst.apply_to_points(self.values[:, :3])
        values[:, 6] = wrap_angle(wrap_angle(self.values[:, 6] + src_to_dst.yaw))
        return Boxes(values, self.category, self.score)

    def rows(self) -> List[Box3D]:
        """One ``Box3D`` per row, fields as they are: the rows were checked and
        wrapped when the record was built, and one more wrap could move a yaw
        next to -pi, so the boxes skip ``Box3D.__post_init__``."""
        boxes = [object.__new__(Box3D) for _ in range(len(self))]
        for box, row, code in zip(boxes, self.values.tolist(), self.category.tolist()):
            box.__dict__.update(zip(("x", "y", "z", "w", "l", "h", "yaw"), row),
                                category=CATEGORY_ORDER[code])
        return boxes


def center_distances(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Pairwise distances between (N, 3) and (M, 3) centres, shape (N, M)."""
    diff = a[:, None, :] - c[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def center_distance_matrix(rows: Sequence[Box3D], cols: Sequence[Box3D]) -> np.ndarray:
    """Pairwise center distances of two box lists, shape (len(rows), len(cols))."""
    return center_distances(*(np.array([(b.x, b.y, b.z) for b in boxes]).reshape(-1, 3)
                              for boxes in (rows, cols)))


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

    def contains(self, x, y):
        """Whether (x, y) lies in the region; elementwise for arrays."""
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)


_EPS_T = 1e-9


@dataclass(frozen=True)
class Blockers:
    """Ray blockers stacked for one batched slab test: boxes first, then walls.

    ``(point - centre[k]) @ rot_t[k]`` maps world points into blocker ``k``'s
    frame, where it is the rectangle ``[lo[k], hi[k]]``. Shapes are (K, 2, 2)
    and (K, 1, 2). A box's ``rot_t`` is ((c, s), (-s, c)) with c, s the cosine
    and sine of minus its yaw, its centre is its position and ``hi`` is
    (l / 2, w / 2) = -``lo``. A wall's rotation is the identity and its centre
    zero, so its frame is the world bitwise: x * 1 + y * 0 == x, up to the
    sign of a zero, which no comparison in the slab test sees. A scenario
    stacks every frame's blockers once (``scenario.FrameGeometry``).
    """

    rot_t: np.ndarray
    centre: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def rays_hit_blockers(origin: np.ndarray, x: np.ndarray, y: np.ndarray,
                      blockers: Blockers) -> np.ndarray:
    """Whether the 2D segments from ``origin`` to (``x``, ``y``) cross each blocker.

    ``origin`` is (..., 2), ``x`` and ``y`` are (..., N) and the blockers'
    arrays carry the same leading dimensions (or none); the answer is (...,
    K, N), one row per blocker. The ends and the origin, as one extra column,
    are moved into every blocker's frame by one stacked product, ``rot_t``
    transposed times the (2, N + 1) coordinate rows, which is bitwise the row
    by row ``(point - centre) @ rot_t`` (``tests/test_occlusion.py`` pins
    this). The slab test then runs on (K, 2, N) arrays with N innermost.
    """
    c = blockers.centre[..., 0, :]
    n = x.shape[-1]
    p = np.empty(c.shape[:-1] + (2, n + 1))
    np.subtract(x[..., None, :], c[..., 0, None], out=p[..., 0, :n])
    np.subtract(y[..., None, :], c[..., 1, None], out=p[..., 1, :n])
    np.subtract(origin[..., None, :], c, out=p[..., n])
    q = blockers.rot_t.swapaxes(-1, -2) @ p
    start = q[..., n:]
    lo, hi = blockers.lo.swapaxes(-1, -2), blockers.hi.swapaxes(-1, -2)
    d = q[..., :n] - start
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - start) / d
        t2 = (hi - start) / d
    t_near = np.minimum(t1, t2)
    t_far = np.maximum(t1, t2)
    # Axis-parallel segments: hit only if within the slab on that axis.
    parallel = d == 0.0
    if parallel.any():
        inside = (start >= lo) & (start <= hi)
        t_near = np.where(parallel, np.where(inside, -np.inf, np.inf), t_near)
        t_far = np.where(parallel, np.where(inside, np.inf, -np.inf), t_far)
    enter = np.maximum(t_near[..., 0, :], t_near[..., 1, :])
    exit_ = np.minimum(t_far[..., 0, :], t_far[..., 1, :])
    return (enter <= exit_) & (enter < 1.0 - _EPS_T) & (exit_ > _EPS_T)
