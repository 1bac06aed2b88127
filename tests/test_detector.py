import math

import numpy as np
import pytest

from cotrack.detector import Detection, DetectParams, detect
from cotrack.errors import ConfigurationError, NumericError
from cotrack.geometry import Box3D
from cotrack.sensing import FeatureGrid, GridSpec

SPEC = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=80, rows=40)


def grid_from_density(density, heights=None):
    values = np.zeros(SPEC.shape)
    values[:, :, 0] = density
    if heights is not None:
        values[:, :, 1] = heights
    return FeatureGrid(spec=SPEC, values=values, timestamp=0.0, frame="vehicle")


def blob(density, r0, r1, c0, c1, value=0.5, height=1.5):
    density[r0:r1, c0:c1] = value
    heights = np.zeros_like(density)
    heights[r0:r1, c0:c1] = height
    return heights


class TestDetect:
    def test_empty_grid_empty_output(self):
        assert detect(grid_from_density(np.zeros((40, 80)))) == []

    def test_axis_aligned_blob_center_and_yaw(self):
        density = np.zeros((40, 80))
        heights = blob(density, 10, 14, 20, 29, value=0.5, height=1.5)
        dets = detect(grid_from_density(density, heights))
        assert len(dets) == 1
        d = dets[0]
        # Blob covers rows 10..13 and cols 20..28: 9 x 4 cells of 0.5 m.
        assert d.box.x == pytest.approx(12.25, abs=0.25)
        assert d.box.y == pytest.approx(6.0, abs=0.25)
        assert abs(d.box.yaw) < 0.05
        assert d.box.l == pytest.approx(4.5, abs=0.01)
        assert d.box.w == pytest.approx(2.0, abs=0.01)
        assert d.box.h == pytest.approx(1.5)
        assert d.box.z == pytest.approx(0.75)
        assert d.score == pytest.approx(0.5)

    def test_two_blobs_two_detections(self):
        density = np.zeros((40, 80))
        blob(density, 5, 8, 5, 12)
        blob(density, 30, 33, 45, 52)
        dets = detect(grid_from_density(density))
        assert len(dets) == 2

    def test_small_components_discarded(self):
        density = np.zeros((40, 80))
        density[3, 3] = 0.9
        density[20, 20] = 0.9
        density[20, 21] = 0.9
        assert detect(grid_from_density(density), DetectParams(min_cells=3)) == []
        assert len(detect(grid_from_density(density), DetectParams(min_cells=1))) == 2

    def test_threshold_monotone_on_unimodal_blobs(self):
        # Level sets of unimodal bumps nest, so raising tau can only drop
        # whole detections. (Multi-modal fields can split one component in
        # two, so no component-based detector is monotone in general.)
        ys, xs = np.mgrid[0:40, 0:80]
        density = np.zeros((40, 80))
        for cy, cx, amp in ((12, 20, 0.9), (25, 50, 0.6), (8, 65, 0.4)):
            density += amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / 18.0)
        counts = [
            len(detect(grid_from_density(density), DetectParams(tau=tau, min_cells=1)))
            for tau in (0.1, 0.2, 0.3, 0.5, 0.7, 0.95)
        ]
        assert counts[0] == 3
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_translation_equivariance(self):
        density = np.zeros((40, 80))
        heights = blob(density, 10, 14, 20, 29)
        base = detect(grid_from_density(density, heights))[0]
        shifted = np.roll(density, (7, 11), axis=(0, 1))
        heights_shifted = np.roll(heights, (7, 11), axis=(0, 1))
        moved = detect(grid_from_density(shifted, heights_shifted))[0]
        assert moved.box.x - base.box.x == pytest.approx(11 * 0.5, abs=1e-6)
        assert moved.box.y - base.box.y == pytest.approx(7 * 0.5, abs=1e-6)

    def test_diagonal_blob_yaw(self):
        density = np.zeros((40, 80))
        heights = np.zeros((40, 80))
        for k in range(12):
            density[10 + k, 20 + k] = 0.5
            density[11 + k, 20 + k] = 0.5
            heights[10 + k, 20 + k] = 1.5
            heights[11 + k, 20 + k] = 1.5
        dets = detect(grid_from_density(density, heights))
        assert len(dets) == 1
        assert dets[0].box.yaw == pytest.approx(math.pi / 4, abs=0.1)

    def test_yaw_folded_into_half_open_interval(self):
        density = np.zeros((40, 80))
        blob(density, 10, 25, 30, 33)  # tall vertical blob, principal axis +-y
        d = detect(grid_from_density(density))[0]
        assert -math.pi / 2 < d.box.yaw <= math.pi / 2

    def test_dims_clamped(self):
        density = np.zeros((40, 80))
        blob(density, 10, 11, 20, 23)  # one-cell-high stripe
        d = detect(grid_from_density(density), DetectParams(min_cells=1))[0]
        assert d.box.w >= 0.5
        assert d.box.h >= 0.5


class TestParameterChecks:
    @pytest.mark.parametrize("fields", [
        {"min_dim_m": 0.0},
        {"min_dim_m": -0.5},
        {"min_dim_m": 2.0, "max_dim_m": 1.0},
        {"min_dim_m": 2.0, "max_height_m": 1.5},
    ])
    def test_box_limits_rejected_at_construction(self, fields):
        with pytest.raises(ConfigurationError, match="min_dim_m"):
            DetectParams(**fields)

    def test_equal_limits_accepted(self):
        DetectParams(min_dim_m=1.0, max_dim_m=1.0, max_height_m=1.0)

    @pytest.mark.parametrize("score", [-0.1, 1.5, math.nan])
    def test_score_outside_unit_interval_is_a_numeric_error(self, score):
        with pytest.raises(NumericError, match="score"):
            Detection(Box3D(x=0.0, y=0.0, z=0.0, w=1.0, l=1.0, h=1.0), score)
