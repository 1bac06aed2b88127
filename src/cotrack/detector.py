"""Deterministic BEV detection head: fused feature grid in, scored boxes out.

A learned detector cannot be reproduced at desk scale, so this module fits
oriented boxes to thresholded connected components of the density channel.
The substitution keeps the pipeline contract (grid in, scored boxes out) so
fusion and latency effects stay measurable end to end; see the README for
the full rationale.

Components are 8-connected and numbered in raster (row-major) order of
their first cell, the numbering of ``scipy.ndimage.label`` with a 3 x 3
structure; the order of the detections follows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigurationError
from .geometry import Boxes, wrap_angle
from .sensing import DENSITY_CHANNEL, FeatureGrid, HEIGHT_CHANNEL


@dataclass(frozen=True)
class DetectParams:
    tau: float = 0.15  # density threshold
    min_cells: int = 3  # smaller components are discarded
    min_dim_m: float = 0.5
    max_dim_m: float = 15.0
    max_height_m: float = 5.0

    def __post_init__(self):
        if not 0 <= self.tau < math.inf or self.min_cells < 1:
            raise ConfigurationError("invalid detection parameters")
        if not 0 < self.min_dim_m <= min(self.max_dim_m, self.max_height_m):
            raise ConfigurationError("detection needs 0 < min_dim_m <= max_dim_m, max_height_m")


def _label_blobs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """8-connected components of a 2-D boolean mask, over its true cells only.

    Returns the raster indices of the true cells, ascending, and each cell's
    label: 1 for the component whose first cell comes first in raster order,
    2 for the next, and so on. The true cells split into horizontal runs; a
    run joins every run of the row above whose columns overlap its own
    widened by one, and min-label hooking with pointer jumping resolves the
    joins, so each component's root is its first run.
    """
    cols = mask.shape[1]
    cells = np.flatnonzero(mask)
    run_start = np.ones(len(cells), dtype=bool)
    run_start[1:] = (np.diff(cells) != 1) | (cells[1:] % cols == 0)  # a gap or a row wrap
    run_end = np.ones(len(cells), dtype=bool)
    run_end[:-1] = run_start[1:]
    starts, ends = cells[run_start], cells[run_end]
    # The runs that touch [lo, hi] in the row above: runs are disjoint and in
    # raster order, so both their starts and their ends are sorted.
    above = (starts // cols - 1) * cols
    lo = above + np.maximum(starts % cols - 1, 0)
    hi = above + np.minimum(ends % cols + 1, cols - 1)
    first = np.searchsorted(ends, lo)
    count = np.maximum(np.searchsorted(starts, hi, side="right") - first, 0)
    # Run k joins runs first[k], ..., first[k] + count[k] - 1.
    run = np.repeat(np.arange(len(starts)), count)
    other = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(len(run))
    parent = np.arange(len(starts))
    while True:
        a, b = parent[run], parent[other]
        if np.array_equal(a, b):
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    labels = np.cumsum(parent == np.arange(len(starts)))[parent]
    return cells, np.repeat(labels, ends - starts + 1)


def detect(g: FeatureGrid, params: DetectParams = DetectParams()) -> Boxes:
    """Fit one oriented box per connected blob of the density channel.

    Cells with density above ``params.tau`` are labeled with 8-connectivity.
    Per component, the box center is the density-weighted centroid of cell
    centers, yaw is the principal axis of the weighted scatter folded into
    (-pi/2, pi/2], and the planar dims are the extents along the principal
    axes plus one cell, clamped to [min_dim_m, max_dim_m]. Height comes from
    the median of the component's max-height cells (robust to extrapolation
    overshoot) with the center z at half height. The score is the mean
    density of the component. Boxes are cars, in the grid's frame.
    """
    flat = g.values.reshape(-1, g.spec.channels)
    cells, labels = _label_blobs(g.values[:, :, DENSITY_CHANNEL] > params.tau)
    sizes = np.bincount(labels)  # sizes[0] == 0; min_cells >= 1 drops it
    kept = sizes >= params.min_cells
    keep = kept[labels]
    if not keep.any():
        return Boxes.of([])
    # A stable sort by label keeps each component's cells in row-major order,
    # the order numpy's pairwise sums must see them in for bit-equal results.
    cells = cells[keep][np.argsort(labels[keep], kind="stable")]
    sizes = sizes[kept]
    starts = np.cumsum(sizes) - sizes
    bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))
    rows, cols = np.divmod(cells, g.spec.cols)
    w = flat[cells, DENSITY_CHANNEL]
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
                    np.where(yaws <= -math.pi / 2, yaws + math.pi, yaws))

    cos_sin = [[f(yaw) for yaw in yaws.tolist()] for f in (math.cos, math.sin)]
    c, s = np.repeat(cos_sin, sizes, axis=1)
    proj = np.stack([dx * c + dy * s, -dx * s + dy * c])  # along and across the major axis
    spans = np.maximum.reduceat(proj, starts, axis=1) - np.minimum.reduceat(proj, starts, axis=1)
    lengths, widths = np.clip(spans + cell, params.min_dim_m, params.max_dim_m)
    heights = flat[cells, HEIGHT_CHANNEL]
    heights = heights[np.lexsort((heights, np.repeat(np.arange(len(sizes)), sizes)))]
    # np.median's arithmetic: the mean of the middle two heights, or (a + a) / 2 == a.
    hs = np.clip((heights[starts + (sizes - 1) // 2] + heights[starts + sizes // 2]) / 2,
                 params.min_dim_m, params.max_height_m)
    values = np.stack([cx, cy, 0.5 * hs, widths, lengths, hs, wrap_angle(yaws)], axis=1)
    return Boxes(values, np.zeros(len(sizes), dtype=np.uint8), np.clip(wsum / sizes, 0.0, 1.0))
