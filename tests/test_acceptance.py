"""End-to-end acceptance criteria for the simulator.

Each test prints one PASS line when its criterion holds; failures surface
as ordinary assertion errors. Oracles are brute-force implementations from
oracle_utils, independent of the library's algorithms.
"""

import time

import numpy as np

from cotrack.assignment import solve_assignment
from cotrack.channel import compress_grid, decompress_grid
from cotrack.experiment import ExperimentConfig, run_single, run_sweep, write_sweep_outputs
from cotrack.fusion import FusionKind, FusionMethod
from cotrack.metrics import evaluate_clearmot
from cotrack.presets import clean_straight_scenario, hidden_lane_scenario
from cotrack.scenario import Provenance, generate_scenario, ground_truth_at
from cotrack.sensing import (
    FeatureGrid,
    GridSpec,
    View,
    extract_feature_flow,
    predict_feature,
)

from oracle_utils import (Box3D, TrackedObject, brute_force_assignment_cost, brute_force_clearmot,
                          clearmot_frames)

STATIC = FusionMethod(FusionKind.MIDDLE_STATIC)
FLOW = FusionMethod(FusionKind.MIDDLE_FLOW)
EARLY = FusionMethod(FusionKind.EARLY)
LATE = FusionMethod(FusionKind.LATE)
VEHICLE = FusionMethod(FusionKind.VEHICLE_ONLY)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_linear_prediction_exact_on_affine_grids():
    start = time.monotonic()
    spec = GridSpec(x0=0.0, y0=-40.0, cell_size=0.5, cols=200, rows=160)
    rng = np.random.default_rng(17)
    # Density stays positive over the whole horizon, so the predictor's
    # clamp never engages and the sequence is exactly affine per cell.
    base = rng.uniform(2.0, 4.0, spec.shape)
    slope = rng.uniform(-1.0, 1.0, spec.shape)

    def grid_at(t):
        return FeatureGrid(spec=spec, values=base + slope * t, timestamp=t, frame="infra")

    flow = extract_feature_flow(grid_at(0.9), grid_at(1.0))
    worst = 0.0
    for tau in (0.1, 0.2, 0.3):
        predicted = predict_feature(grid_at(1.0), flow, tau)
        worst = max(worst, float(np.abs(predicted.values - grid_at(1.0 + tau).values).max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report("1 linear-prediction exactness", f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_assignment_matches_exhaustive_minimum():
    start = time.monotonic()
    rng = np.random.default_rng(29)
    checked = 0
    for n in range(1, 7):
        for m in range(1, 7):
            for _ in range(100):
                cost = rng.uniform(-10.0, 10.0, size=(n, m))
                pairs = solve_assignment(cost)
                total = sum(cost[r, c] for r, c in pairs)
                assert total == brute_force_assignment_cost(cost)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("2 assignment oracle", f"{checked} matrices, {elapsed:.2f}s")


def test_criterion_3_clearmot_matches_brute_force():
    rng = np.random.default_rng(31)

    def obj(track_id, x, y, t):
        return TrackedObject(box=Box3D(x=x, y=y, z=0.75, w=1.8, l=4.5, h=1.5),
                             track_id=track_id, timestamp=t, provenance=Provenance.FUSED)

    for case in range(100):
        n_frames = int(rng.integers(1, 7))
        gt_frames, hyp_frames = [], []
        for k in range(n_frames):
            t = 0.1 * k
            gt_frames.append([
                obj(int(i), float(rng.uniform(0, 12)), float(rng.uniform(0, 12)), t)
                for i in rng.choice(5, size=rng.integers(0, 6), replace=False)
            ])
            hyp_frames.append([
                obj(int(100 + i), float(rng.uniform(0, 12)), float(rng.uniform(0, 12)), t)
                for i in rng.choice(5, size=rng.integers(0, 6), replace=False)
            ])
        mine = evaluate_clearmot(clearmot_frames(gt_frames), clearmot_frames(hyp_frames), 3.0)
        fp, fn, ids, num_gt, *_ = brute_force_clearmot(gt_frames, hyp_frames, 3.0)
        assert (mine.fp, mine.fn, mine.ids) == (fp, fn, ids)
        if num_gt > 0:
            assert abs(mine.mota - (1.0 - (fp + fn + ids) / num_gt)) <= 1e-12
    _report("3 CLEAR-MOT oracle", "100 micro-sequences, exact FP/FN/IDS")


def test_criterion_4_perfect_pipeline_tracks_perfectly():
    start = time.monotonic()
    cfg = ExperimentConfig(scenario=clean_straight_scenario(duration_s=15.0))
    report = run_single(cfg, VEHICLE, 0.0, seed=1)
    elapsed = time.monotonic() - start
    assert report.mota == 1.0
    assert report.ids == 0
    assert report.motp_m <= 0.71
    assert elapsed < 10.0
    _report("4 perfect pipeline", f"MOTA {report.mota}, MOTP {report.motp_m:.3f} m, {elapsed:.1f}s")


def test_criterion_5_bandwidth_ordering_and_flow_payload_factor():
    start = time.monotonic()
    cfg = ExperimentConfig()  # default scenario, compression on
    late = run_single(cfg, LATE, 100.0, seed=1)
    static = run_single(cfg, STATIC, 100.0, seed=1)
    early = run_single(cfg, EARLY, 100.0, seed=1)
    assert 0 < late.bps_post < static.bps_post < early.bps_post

    raw_cfg = ExperimentConfig(compression=False)
    static_raw = run_single(raw_cfg, STATIC, 100.0, seed=1)
    flow_raw = run_single(raw_cfg, FLOW, 100.0, seed=1)
    spec = raw_cfg.scenario.infra_grid
    header_allowance = 28 + 1 + spec.channels * 8 + 16  # per message
    messages_per_second = raw_cfg.scenario.frame_rate_hz
    assert abs(flow_raw.bps_post - 2.0 * static_raw.bps_post) <= header_allowance * messages_per_second
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        "5 bandwidth ordering",
        f"late {late.bps_post:.3g} < middle {static.bps_post:.3g} < early {early.bps_post:.3g} B/s; "
        f"uncompressed flow/static payload ratio {flow_raw.bps_post / static_raw.bps_post:.4f}, {elapsed:.1f}s",
    )


def _sweep_by_cell(cfg):
    """One run_sweep over ``cfg``; reports keyed by (fusion, latency, seed)."""
    reports, failures = run_sweep(cfg)
    assert failures == []
    return {(r.fusion, r.latency_ms, r.seed): r for r in reports}


def test_criterion_6_flow_fusion_degenerates_to_static_at_zero_latency():
    seeds = range(1, 11)
    runs = _sweep_by_cell(ExperimentConfig(scenario=hidden_lane_scenario(), fusions=(STATIC, FLOW),
                                           latencies_ms=(0.0,), seeds=tuple(seeds)))
    for seed in seeds:
        a = runs[("middle_static", 0.0, seed)]
        b = runs[("middle_flow", 0.0, seed)]
        assert (a.mota, a.motp_m, a.ids, a.fp, a.fn, a.num_gt) == \
               (b.mota, b.motp_m, b.ids, b.fp, b.fn, b.num_gt)
    _report("6 zero-latency degeneracy", "10 seeds bit-equal")


def test_criterion_7_flow_fusion_is_more_latency_robust():
    start = time.monotonic()
    seeds = range(1, 21)
    runs = _sweep_by_cell(ExperimentConfig(scenario=hidden_lane_scenario(), fusions=(STATIC, FLOW),
                                           latencies_ms=(0.0, 200.0), seeds=tuple(seeds)))
    means = {}
    for fusion, label in ((STATIC, "static"), (FLOW, "flow")):
        for latency in (0.0, 200.0):
            means[(label, latency)] = float(np.mean(
                [runs[(fusion.kind.value, latency, s)].mota for s in seeds]
            ))
    drop_static = means[("static", 0.0)] - means[("static", 200.0)]
    drop_flow = means[("flow", 0.0)] - means[("flow", 200.0)]
    elapsed = time.monotonic() - start
    assert drop_flow < drop_static
    assert means[("flow", 200.0)] >= means[("static", 200.0)]
    assert elapsed < 300.0
    _report(
        "7 latency robustness",
        f"MOTA drop flow {drop_flow:.3f} < static {drop_static:.3f}; "
        f"at 200 ms flow {means[('flow', 200.0)]:.3f} >= static {means[('static', 200.0)]:.3f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_every_fusion_beats_vehicle_only_with_occlusion():
    start = time.monotonic()
    scenario = hidden_lane_scenario()
    scn = generate_scenario(scenario, 1)
    hidden = set(ground_truth_at(scn, 0.0, View.INFRA)[0].tolist()) - \
             set(ground_truth_at(scn, 0.0, View.VEHICLE)[0].tolist())
    assert len(hidden) >= 2, "scenario must hide at least two agents from the ego"

    seeds = range(1, 11)
    runs = _sweep_by_cell(ExperimentConfig(scenario=scenario,
                                           fusions=(VEHICLE, EARLY, LATE, STATIC, FLOW),
                                           latencies_ms=(0.0,), seeds=tuple(seeds)))
    baseline = float(np.mean([runs[("vehicle_only", 0.0, s)].mota for s in seeds]))
    gains = {}
    for fusion in (EARLY, LATE, STATIC, FLOW):
        mean = float(np.mean([runs[(fusion.kind.value, 0.0, s)].mota for s in seeds]))
        gains[fusion.kind.value] = mean - baseline
        assert mean - baseline >= 0.10, f"{fusion.kind.value} gain {mean - baseline:.3f}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        "8 cooperation benefit",
        "gains over vehicle-only: "
        + ", ".join(f"{k} +{v:.2f}" for k, v in gains.items())
        + f"; {elapsed:.0f}s",
    )


def test_criterion_9_compression_roundtrip_bound():
    rng = np.random.default_rng(41)
    spec = GridSpec(x0=-10.0, y0=-10.0, cell_size=0.5, cols=40, rows=40)
    worst_ratio = 0.0
    for case in range(50):
        values = rng.uniform(-5.0, 15.0, spec.shape)
        values[rng.random(spec.shape[:2]) < 0.4] = 0.0
        if case % 5 == 0:
            values[:, :, 2] = 3.25  # constant channel must roundtrip exactly
        g = FeatureGrid(spec=spec, values=values, timestamp=0.0, frame="infra")
        out = decompress_grid(compress_grid(g), spec)
        for ch in range(spec.channels):
            span = values[:, :, ch].max() - values[:, :, ch].min()
            err = float(np.abs(out.values[:, :, ch] - values[:, :, ch]).max())
            if span == 0.0:
                assert err == 0.0
            else:
                assert err <= span / 255.0 + 1e-12
                worst_ratio = max(worst_ratio, err / (span / 255.0))
    _report("9 compression bound", f"50 grids, worst err at {worst_ratio:.3f} of bound")


def test_criterion_10_sweep_output_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        scenario=clean_straight_scenario(duration_s=4.0),
        fusions=(VEHICLE, LATE, FLOW),
        latencies_ms=(0.0, 200.0),
        seeds=(1, 2),
    )

    def run_once(out_dir):
        reports, failures = run_sweep(cfg)
        assert failures == []
        return write_sweep_outputs(reports, failures, out_dir)

    paths_a = run_once(tmp_path / "a")
    paths_b = run_once(tmp_path / "b")
    for key in paths_a:
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes(), key
    _report("10 determinism", f"{len(paths_a)} output files byte-identical across reruns")
