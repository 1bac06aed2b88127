"""The batched per-frame kernels against the loops they replaced.

``detect`` groups every kept component's cells in one pass, ``rasterize_bev``
reads each cell's run of sorted points (on a cloud that carries its
scenario's clutter, taking the clutter cells that nothing else hits from the
clutter's cached sort) and ``_hungarian_square``
runs on Python floats; ``oracle_utils`` keeps the first implementations of all three
(``loop_detect``, ``ufunc_at_rasterize_bev``, ``numpy_hungarian_square``).
Every float must be bit-identical, which the tests compare through
``view(np.uint64)`` so that -0.0 and 0.0 differ.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrack import assignment, experiment, fusion
from cotrack.assignment import solve_assignment
from cotrack.detector import DetectParams, detect
from cotrack.experiment import ExperimentConfig, run_single
from cotrack.fusion import FusionKind, FusionMethod
from cotrack.presets import clean_straight_scenario, hidden_lane_scenario
from cotrack.scenario import AgentPopulation, ScenarioConfig, generate_scenario
from cotrack.sensing import FeatureGrid, GridSpec, NoiseConfig, PointCloud, View, rasterize_bev
from oracle_utils import detections_of, loop_detect, numpy_hungarian_square, ufunc_at_rasterize_bev

SPEC = GridSpec(x0=-3.0, y0=1.5, cell_size=0.5, cols=48, rows=40)
SECOND_SPEC = GridSpec(x0=-7.0, y0=-2.25, cell_size=0.75, cols=30, rows=28)
HUNGARIAN = assignment._hungarian_square
NEIGHBOURS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def detection_fields(dets) -> np.ndarray:
    return bits([[d.box.x, d.box.y, d.box.z, d.box.w, d.box.l, d.box.h, d.box.yaw, d.score]
                 for d in dets]).reshape(len(dets), 8)


def assert_detect_matches_loop(grid: FeatureGrid, params: DetectParams = DetectParams()):
    new, ref = detections_of(detect(grid, params)), loop_detect(grid, params)
    assert [d.box.category for d in new] == [d.box.category for d in ref]
    assert np.array_equal(detection_fields(new), detection_fields(ref))


def assert_grids_equal(a: FeatureGrid, b: FeatureGrid):
    assert (a.spec, a.timestamp, a.frame) == (b.spec, b.timestamp, b.frame)
    assert np.array_equal(bits(a.values), bits(b.values))


@st.composite
def blob_grids(draw):
    """A grid of 1-4 random-walk blobs of 1-200 cells each, over a faint floor.

    Blobs may touch and merge. Densities are constant or random above the
    threshold; heights are all tied, drawn from three values, or random.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = np.where(rng.random((SPEC.rows, SPEC.cols)) < draw(st.sampled_from([0.0, 0.1])),
                       rng.uniform(0.0, 0.3, (SPEC.rows, SPEC.cols)), 0.0)
    heights = rng.uniform(-0.5, 3.0, (SPEC.rows, SPEC.cols))
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 200))
        cells = {(int(rng.integers(SPEC.rows)), int(rng.integers(SPEC.cols)))}
        frontier = list(cells)
        while len(cells) < size:
            r, c = frontier[rng.integers(len(frontier))]
            dr, dc = NEIGHBOURS[rng.integers(8)]
            if 0 <= r + dr < SPEC.rows and 0 <= c + dc < SPEC.cols and (r + dr, c + dc) not in cells:
                cells.add((r + dr, c + dc))
                frontier.append((r + dr, c + dc))
        rows, cols = np.array(sorted(cells)).T
        density[rows, cols] = (draw(st.sampled_from([0.5, 1.0])) if draw(st.booleans())
                               else rng.uniform(0.16, 1.0, len(rows)))
        height_kind = draw(st.sampled_from(["tied", "few", "random"]))
        if height_kind == "tied":
            heights[rows, cols] = 1.5
        elif height_kind == "few":
            heights[rows, cols] = rng.choice([1.0, 1.5, 2.0], len(rows))
    values = np.zeros(SPEC.shape)
    values[:, :, 0] = density
    values[:, :, 1] = heights
    values[:, :, 2] = rng.random((SPEC.rows, SPEC.cols))
    return FeatureGrid(SPEC, values, 0.5, "vehicle")


@given(grid=blob_grids(), min_cells=st.sampled_from([1, 3, 8]))
def test_detect_matches_the_loop_on_blobs(grid, min_cells):
    assert_detect_matches_loop(grid, DetectParams(min_cells=min_cells))


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 130, 131, 200])
def test_detect_matches_the_loop_on_every_size_around_the_pairwise_block(size):
    """One line of cells: numpy's pairwise sum recurses above 128 elements."""
    rng = np.random.default_rng(size)
    big = GridSpec(x0=0.0, y0=0.0, cell_size=0.25, cols=210, rows=3)
    values = np.zeros(big.shape)
    values[1, 3:3 + size, 0] = rng.uniform(0.2, 1.0, size)
    values[1, 3:3 + size, 1] = rng.choice([1.0, 2.0], size)
    values[0, 3:3 + size:5, 0] = 0.9  # a ragged second row bends the principal axis
    assert_detect_matches_loop(FeatureGrid(big, values, 0.0, "vehicle"), DetectParams(min_cells=1))


def test_detect_on_empty_and_all_below_threshold_grids():
    values = np.zeros(SPEC.shape)
    assert len(detect(FeatureGrid(SPEC, values, 0.0, "vehicle"))) == 0
    values[:, :, 0] = 0.15  # at the threshold, not above it
    values[:, :, 1] = 1.0
    assert len(detect(FeatureGrid(SPEC, values, 0.0, "vehicle"))) == 0
    values[5, 5, 0] = values[9, 9, 0] = 0.9  # two components, both too small
    assert len(detect(FeatureGrid(SPEC, values, 0.0, "vehicle"))) == 0
    assert_detect_matches_loop(FeatureGrid(SPEC, values, 0.0, "vehicle"))


@st.composite
def point_clouds(draw):
    """Points over and around SPEC, many sharing a cell, a height or both.

    Heights come from a small set holding 0.0 and -0.0, so a cell's highest
    points can tie on a signed zero; some points fall outside the grid.
    """
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1.0, 4.0, 30.0]))
    xy = rng.uniform(-spread, spread, (n, 2)) + [SPEC.x0 + 3.0, SPEC.y0 + 3.0]
    if draw(st.booleans()):
        xy = np.round(xy * 2.0) / 2.0 + 0.25  # stack points on cell centres
    z = (rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], n) if draw(st.booleans())
         else rng.normal(0.0, 1.0, n))
    intensity = (rng.choice([0.0, 0.25, 1.0], n) if draw(st.booleans()) else rng.random(n))
    return PointCloud(np.column_stack([xy, z, intensity]), "infra", 0.5)


@given(cloud=point_clouds(), cap=st.sampled_from([1.0, 3.0, 10.0]))
def test_rasterize_matches_ufunc_at(cloud, cap):
    assert_grids_equal(rasterize_bev(cloud, SPEC, cap), ufunc_at_rasterize_bev(cloud, SPEC, cap))


def test_rasterize_keeps_the_sign_of_a_tied_zero_height():
    for zs in ([-0.0, 0.0], [0.0, -0.0], [-1.0, 0.0, -0.0, -0.0], [-0.0, -0.0]):
        pts = np.array([[0.0, 2.0, z, 0.5] for z in zs])
        cloud = PointCloud(pts, "infra", 0.0)
        assert_grids_equal(rasterize_bev(cloud, SPEC), ufunc_at_rasterize_bev(cloud, SPEC))


@st.composite
def static_clouds(draw):
    """Clouds laid out as ``sample_point_cloud`` lays them out: agent rows, then
    the rows of a scenario's clutter that survive dropout, with fresh
    intensities. Only a cloud with no dropout carries the clutter.

    The clutter is sorted on SPEC or on SECOND_SPEC. Its disc is centred on
    the sensor origin, so it covers part of both and spills out of them.
    Position noise may be zero, which ties every clutter height at 0.0 and
    leaves no cached sort. Agent points sit on a clutter point (at its height
    or not), anywhere around the grid, or nowhere; either part may be empty.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = NoiseConfig(sigma_m=draw(st.sampled_from([0.0, 0.05, 0.5])),
                        dropout_p=draw(st.sampled_from([0.0, 0.1, 0.5])),
                        clutter_per_m2=draw(st.sampled_from([0.0, 0.5, 4.0])))
    range_m = draw(st.sampled_from([6.0, 15.0]))
    scenario = ScenarioConfig(
        duration_s=0.1, agents=AgentPopulation(count=0), noise=noise,
        infra_position=(float(rng.uniform(-50.0, 50.0)), float(rng.uniform(-50.0, 50.0))),
        infra_yaw=draw(st.sampled_from([0.0, 0.5, -2.0])), infra_range_m=range_m,
        vehicle_range_m=range_m, infra_grid=draw(st.sampled_from([SPEC, SECOND_SPEC])))
    returns = generate_scenario(scenario, draw(st.integers(0, 20))).clutter[View.INFRA]
    clutter = np.column_stack([returns.xyz, rng.random(len(returns.xyz))])

    n = draw(st.integers(0, 60))
    agents = np.column_stack([rng.uniform(-20.0, 30.0, (n, 2)), rng.choice([-0.0, 0.0, 0.5], n),
                              rng.choice([0.0, 0.5, 1.0], n)])
    if len(clutter) and draw(st.booleans()):
        on = rng.integers(len(clutter), size=n)
        agents[:, :2] = clutter[on, :2]
        if draw(st.booleans()):
            agents[:, 2] = clutter[on, 2]

    if noise.dropout_p > 0:
        keep = rng.random(n + len(clutter)) >= noise.dropout_p
        agents, clutter = agents[keep[:n]], clutter[keep[n:]]
        returns = None
    return PointCloud(np.concatenate([agents, clutter]), "infra", 0.5, carry=returns)


@given(cloud=static_clouds(), cap=st.sampled_from([1.0, 3.0, 10.0]))
def test_rasterize_over_scenario_clutter_matches_ufunc_at(cloud, cap):
    """Each cloud goes on both specs: the one its clutter is sorted on, if it
    carries a sorted clutter, and the other, where it is sorted whole."""
    for spec in (SPEC, SECOND_SPEC):
        assert_grids_equal(rasterize_bev(cloud, spec, cap), ufunc_at_rasterize_bev(cloud, spec, cap))


@st.composite
def cost_matrices(draw):
    """0 x k to 20 x 20 costs: reals of either sign, or small integers with ties."""
    n, m = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "ties", "constant"]))
    if kind == "real":
        return rng.normal(0.0, draw(st.sampled_from([1.0, 1e3])), (n, m))
    if kind == "ties":
        return rng.integers(-3, 4, (n, m)).astype(float)
    return np.full((n, m), draw(st.sampled_from([-2.0, 0.0, 5.0])))


def hungarian_checked_against_numpy(a):
    col_of_row, u, v = HUNGARIAN(a)
    ref_col, ref_u, ref_v = numpy_hungarian_square(a)
    assert list(col_of_row) == ref_col.tolist()
    assert np.array_equal(bits(u), bits(ref_u)) and np.array_equal(bits(v), bits(ref_v))
    return col_of_row, u, v


@given(cost=cost_matrices())
def test_hungarian_matches_the_numpy_solve(cost):
    with mock.patch.object(assignment, "_hungarian_square", hungarian_checked_against_numpy):
        pairs = solve_assignment(cost)
    with mock.patch.object(assignment, "_hungarian_square", numpy_hungarian_square):
        assert pairs == solve_assignment(cost)


def rasterize_checked(cloud, spec, density_cap=10.0):
    grid = rasterize_bev(cloud, spec, density_cap)
    assert_grids_equal(grid, ufunc_at_rasterize_bev(cloud, spec, density_cap))
    return grid


def detect_checked(grid, params=DetectParams()):
    assert_detect_matches_loop(grid, params)
    return detect(grid, params)


@pytest.mark.parametrize("scenario", [
    ScenarioConfig(), hidden_lane_scenario(),
    ScenarioConfig(duration_s=5.0, ego_speed=6.0), clean_straight_scenario(duration_s=5.0),
], ids=["default", "hidden_lane", "moving_ego", "clean_straight"])
def test_every_kernel_call_of_seed_one_matches_its_oracle(scenario):
    """Late fusion solves assignments on ego and infra boxes; middle_flow
    detects on fused, extrapolated grids; early fusion rasterizes the merged
    cloud, which carries no clutter. Between them every rasterized,
    detected and assigned input of seed 1 goes through both versions. A
    moving ego's clouds carry their clutter only at frame 0; clean_straight
    has none."""
    cfg = ExperimentConfig(scenario=scenario, seeds=(1,), latencies_ms=(200.0,))
    with mock.patch.object(experiment, "rasterize_bev", rasterize_checked), \
            mock.patch.object(fusion, "rasterize_bev", rasterize_checked), \
            mock.patch.object(experiment, "detect", detect_checked), \
            mock.patch.object(assignment, "_hungarian_square", hungarian_checked_against_numpy):
        for kind in (FusionKind.LATE, FusionKind.MIDDLE_FLOW, FusionKind.EARLY):
            run_single(cfg, FusionMethod(kind), 200.0, 1)
