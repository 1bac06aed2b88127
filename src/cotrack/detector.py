"""Deterministic BEV detection head: fused feature grid in, scored boxes out.

A learned detector cannot be reproduced at desk scale, so this module fits
oriented boxes to thresholded connected components of the density channel.
The substitution keeps the pipeline contract (grid in, scored boxes out) so
fusion and latency effects stay measurable end to end; see the README for
the full rationale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, NumericError
from .geometry import Box3D, Category
from .sensing import DENSITY_CHANNEL, FeatureGrid, HEIGHT_CHANNEL


@dataclass(frozen=True)
class Detection:
    """A detected box with a confidence score in [0, 1]."""

    box: Box3D
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise NumericError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class DetectParams:
    tau: float = 0.15  # density threshold
    min_cells: int = 3  # smaller components are discarded
    min_dim_m: float = 0.5
    max_dim_m: float = 15.0
    max_height_m: float = 5.0

    def __post_init__(self):
        if self.tau < 0 or self.min_cells < 1:
            raise ConfigurationError("invalid detection parameters")
        if not 0 < self.min_dim_m <= min(self.max_dim_m, self.max_height_m):
            raise ConfigurationError("detection needs 0 < min_dim_m <= max_dim_m, max_height_m")


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def detect(g: FeatureGrid, params: DetectParams = DetectParams()) -> List[Detection]:
    """Fit one oriented box per connected blob of the density channel.

    Cells with density above ``params.tau`` are labeled with 8-connectivity.
    Per component, the box center is the density-weighted centroid of cell
    centers, yaw is the principal axis of the weighted scatter folded into
    (-pi/2, pi/2], and the planar dims are the extents along the principal
    axes plus one cell, clamped to [min_dim_m, max_dim_m]. Height comes from
    the median of the component's max-height cells (robust to extrapolation
    overshoot) with the center z at half height. The score is the mean
    density of the component. Boxes come out in the grid's frame.
    """
    density = g.values[:, :, DENSITY_CHANNEL]
    labels = ndimage.label(density > params.tau, structure=_EIGHT_CONNECTED)[0].ravel()
    sizes = np.bincount(labels)
    sizes[0] = 0  # the background; min_cells >= 1 drops it
    kept = sizes >= params.min_cells
    cells = np.flatnonzero(kept[labels])
    if not len(cells):
        return []
    # A stable sort by label keeps each component's cells in row-major order,
    # the order numpy's pairwise sums must see them in for bit-equal results.
    cells = cells[np.argsort(labels[cells], kind="stable")]
    sizes = sizes[kept]
    starts = np.cumsum(sizes) - sizes
    bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))
    rows, cols = np.divmod(cells, g.spec.cols)
    w = density.ravel()[cells]
    cell = g.spec.cell_size
    xs = g.spec.x0 + (cols + 0.5) * cell
    ys = g.spec.y0 + (rows + 0.5) * cell

    # Each component's sums run over its contiguous slice of each row, as
    # .sum() does; np.add.reduceat adds sequentially, which differs from
    # numpy's pairwise sum in the last bits from three cells up.
    moments = np.stack([w, w * xs, w * ys])
    wsum, wx, wy = np.array([moments[:, a:b].sum(axis=1) for a, b in bounds]).T
    cx = wx / wsum
    cy = wy / wsum
    dx = xs - np.repeat(cx, sizes)
    dy = ys - np.repeat(cy, sizes)
    moments = np.stack([w * dx * dx, w * dx * dy, w * dy * dy])
    cov = np.array([moments[:, a:b].sum(axis=1) for a, b in bounds])
    eigvals, eigvecs = np.linalg.eigh((cov / wsum[:, None])[:, [0, 1, 1, 2]].reshape(-1, 2, 2))
    major = eigvecs[np.arange(len(sizes)), :, np.argmax(eigvals, axis=1)]
    yaws = np.array([math.atan2(my, mx) for mx, my in major.tolist()])
    yaws = np.where(yaws > math.pi / 2, yaws - math.pi,
                    np.where(yaws <= -math.pi / 2, yaws + math.pi, yaws)).tolist()

    cos_sin = [[math.cos(yaw) for yaw in yaws], [math.sin(yaw) for yaw in yaws]]
    c, s = np.repeat(cos_sin, sizes, axis=1)
    proj = np.stack([dx * c + dy * s, -dx * s + dy * c])  # along and across the major axis
    spans = np.maximum.reduceat(proj, starts, axis=1) - np.minimum.reduceat(proj, starts, axis=1)
    lengths, widths = np.clip(spans + cell, params.min_dim_m, params.max_dim_m).tolist()
    heights = g.values.reshape(-1, g.spec.channels)[cells, HEIGHT_CHANNEL]
    heights = heights[np.lexsort((heights, np.repeat(np.arange(len(sizes)), sizes)))]
    # np.median's arithmetic: the mean of the middle two heights, or (a + a) / 2 == a.
    hs = np.clip((heights[starts + (sizes - 1) // 2] + heights[starts + sizes // 2]) / 2,
                 params.min_dim_m, params.max_height_m).tolist()
    scores = np.clip(wsum / sizes, 0.0, 1.0).tolist()
    return [
        Detection(Box3D(x=x, y=y, z=0.5 * h, w=wd, l=ln, h=h, yaw=yaw, category=Category.CAR), score)
        for x, y, wd, ln, h, yaw, score in zip(cx.tolist(), cy.tolist(), widths, lengths, hs, yaws,
                                               scores)
    ]

