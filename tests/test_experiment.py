import importlib.util
import json
import math
import re
import sys
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import cotrack.experiment as experiment
from cotrack.channel import Channel, LatencyModel
from cotrack.cli import main as cli_main
from cotrack.errors import ConfigurationError
from cotrack.experiment import (
    ExperimentConfig,
    emit_report,
    experiment_config_from_dict,
    load_experiment_config,
    run_single,
    run_sweep,
    summarize,
    write_sweep_outputs,
)
from cotrack.fusion import FusionKind, FusionMethod
from cotrack.geometry import Category
from cotrack.metrics import MotResult, RunReport
from cotrack.presets import hidden_lane_scenario
from cotrack.scenario import (AgentPopulation, Lane, Provenance, ScenarioConfig,
                              generate_scenario)
from cotrack.sensing import Clutter, GridSpec, NoiseConfig, PointCloud
from oracle_utils import Box3D, trajectory_of

ROOT = Path(__file__).resolve().parents[1]


def tiny_config(**kw):
    scenario = ScenarioConfig(
        duration_s=2.0,
        ego_start=(0.0, 0.0),
        agents=AgentPopulation(count=2, speed_range=(4.0, 6.0),
                               lanes=(Lane(-6.0), Lane(6.0)), x_start_range=(10.0, 25.0)),
        noise=NoiseConfig(sigma_m=0.02, clutter_per_m2=0.05),
    )
    defaults = dict(
        scenario=scenario,
        fusions=(FusionMethod(FusionKind.VEHICLE_ONLY), FusionMethod(FusionKind.LATE)),
        latencies_ms=(0.0, 100.0),
        seeds=(1, 2),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# Values of a JSON type that their field does not take.
WRONG_TYPED_DOCS = [
    {"compression": "false"},
    {"seeds": [1.7]},
    {"seeds": [True, 2]},
    {"latencies_ms": "12"},
    {"latencies_ms": {"5": 1}},
    {"scenario": {"ego": {"start": "12"}}},
    {"scenario": {"frame_rate_hz": 10.5}},
    {"scenario": {"agents": {"count": "6"}}},
    {"jitter_ms": "3"},
    {"tracker": {"warmup_output": "no"}},  # an unknown key as well
    {"tracker": {"min_hits": True}},
]

# Agent populations that loaded and then failed every cell (a zero turn rate
# divided by zero, a reversed or unbounded start range broke the draw) or,
# with a negative turn rate, ran with no agent turning.
BAD_AGENT_DOCS = [
    {"scenario": {"agents": {"turn_fraction": 1.0, "turn_rate": 0.0}}},
    {"scenario": {"agents": {"turn_rate": -0.3}}},
    {"scenario": {"agents": {"x_start_range": [50.0, -10.0]}}},
    {"scenario": {"agents": {"x_start_range": [-1e308, 1e308]}}},
]


def _leaf_fields(cls, path):
    """(JSON path, type) of each bool, int, float and Enum field under ``cls``."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        sub = path + tuple(experiment._JSON_NAMES.get(f.name, f.name).split("."))
        if is_dataclass(tp):
            yield from _leaf_fields(tp, sub)
        elif tp in (bool, int, float) or (isinstance(tp, type) and issubclass(tp, Enum)):
            yield sub, tp


# Every leaf a config file sets: the dataclass fields, the top-level fusion
# keys, and one element of each list of leaves.
LEAVES = sorted(_leaf_fields(ExperimentConfig, ()), key=repr) + [
    (("late_threshold_m",), float),
    (("fusions", 0), FusionKind),
    (("latencies_ms", 0), float),
    (("seeds", 0), int),
    (("scenario", "agents", "categories", 0), Category),
    (("scenario", "agents", "lanes", 0, "y"), float),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([m.value for m in FusionKind] + [m.value for m in Category]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def takes(tp, value) -> bool:
    """Whether a leaf of type ``tp`` takes the JSON value, as the README states."""
    if tp is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if tp is int:
        return isinstance(value, int)
    if tp is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, str) and value in {m.value for m in tp}


def right_typed(tp):
    if tp is bool:
        return st.booleans()
    if tp is int:
        return st.integers()
    if tp is float:
        return st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**60, 2**60)
    return st.sampled_from([m.value for m in tp])


def doc_at(path, value):
    """A config document that sets only the leaf at ``path``."""
    for key in reversed(path):
        value = [value] if isinstance(key, int) else {key: value}
    return value


def key_path(path) -> str:
    return "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


class TestRunSingle:
    def test_deterministic_reports(self):
        cfg = tiny_config()
        a = run_single(cfg, cfg.fusions[1], 100.0, 1)
        b = run_single(cfg, cfg.fusions[1], 100.0, 1)
        assert a == b

    def test_vehicle_only_has_zero_bps(self):
        # Every run has a channel; vehicle_only never sends into it.
        cfg = tiny_config()
        report, art = run_single(cfg, FusionMethod(FusionKind.VEHICLE_ONLY), 300.0, 1,
                                 keep_artifacts=True)
        assert isinstance(art.channel, Channel) and art.channel.messages == []
        assert report.bps_pre == 0.0 and report.bps_post == 0.0

    def test_fallback_frames_counted_under_latency(self):
        cfg = tiny_config()
        report = run_single(cfg, FusionMethod(FusionKind.MIDDLE_STATIC), 500.0, 1)
        assert report.fallback_frames == 5  # messages arrive 0.5 s late

    def test_gt_respects_region(self):
        cfg = tiny_config()
        _, art = run_single(cfg, FusionMethod(FusionKind.VEHICLE_ONLY), 0.0, 1,
                            keep_artifacts=True)
        region = cfg.scenario.region
        for _, boxes in art.gt_frames:
            assert region.contains(boxes.values[:, 0], boxes.values[:, 1]).all()

    @pytest.mark.parametrize("kind, provenance", [
        (FusionKind.VEHICLE_ONLY, Provenance.VEHICLE_SIDE),
        (FusionKind.LATE, Provenance.FUSED),
    ])
    def test_hypotheses_carry_the_run_provenance(self, kind, provenance):
        _, art = run_single(tiny_config(), FusionMethod(kind), 100.0, 1, keep_artifacts=True)
        sides = [side for frame in art.hyp_sides for side in frame]
        assert sides and all(side is provenance for side in sides)
        assert [len(side) for side in art.hyp_sides] == [len(ids) for ids, _ in art.hyp_frames]


class TestRunSweep:
    def test_cell_counting_and_summary(self):
        cfg = tiny_config(fusions=(FusionMethod(FusionKind.VEHICLE_ONLY),),
                          latencies_ms=(0.0,), seeds=(1, 2, 3))
        reports, failures = run_sweep(cfg)
        assert len(reports) == 3 and failures == []
        rows = summarize(reports)
        assert len(rows) == 1
        assert rows[0]["n_seeds"] == 3
        assert rows[0]["mean_mota"] == pytest.approx(np.mean([r.mota for r in reports]))

    def test_summary_columns_are_the_means_of_the_report_fields(self, tmp_path):
        rng = np.random.default_rng(5)
        reports = [
            RunReport(fusion=fusion, latency_ms=latency_ms, seed=seed,
                      mota=float(rng.uniform(-1, 1)), motp_m=float(rng.uniform(0, 2)),
                      ids=int(rng.integers(9)), fp=int(rng.integers(9)), fn=int(rng.integers(9)),
                      num_gt=50, bps_pre=float(rng.uniform(0, 1e6)),
                      bps_post=float(rng.uniform(0, 1e5)), fallback_frames=int(rng.integers(9)),
                      match_gate_m=2.0, duration_s=2.0, num_frames=21)
            for seed in (1, 2, 3) for fusion in ("late", "early") for latency_ms in (100.0, 0.0)
        ]
        paths = write_sweep_outputs(reports, [], tmp_path)
        header = paths["summary"].read_text().splitlines()[0].split(",")
        assert header == [
            "fusion", "latency_ms", "n_seeds", "mean_mota", "mean_motp_m", "mean_ids", "mean_fp",
            "mean_fn", "mean_bps_pre", "mean_bps_post", "mean_fallback_frames"]
        rows = summarize(reports)
        assert [(r["fusion"], r["latency_ms"]) for r in rows] == [
            ("late", 100.0), ("late", 0.0), ("early", 100.0), ("early", 0.0)]
        for row in rows:
            cell = [r for r in reports if (r.fusion, r.latency_ms) == (row["fusion"],
                                                                        row["latency_ms"])]
            assert row["n_seeds"] == len(cell) == 3
            for column in header[3:]:
                field = column.removeprefix("mean_")
                assert row[column] == float(np.mean([getattr(r, field) for r in cell]))

    def test_failures_recorded_and_sweep_continues(self, monkeypatch):
        cfg = tiny_config(fusions=(FusionMethod(FusionKind.VEHICLE_ONLY),),
                          latencies_ms=(0.0,), seeds=(1, 2, 3))
        real = experiment.run_single

        def flaky(cfg_, fusion, latency, seed, **kwargs):
            if seed == 2:
                raise RuntimeError("injected")
            return real(cfg_, fusion, latency, seed, **kwargs)

        monkeypatch.setattr(experiment, "run_single", flaky)
        reports, failures = run_sweep(cfg)
        assert len(reports) == 2
        assert len(failures) == 1
        assert failures[0].seed == 2 and "injected" in failures[0].error

    def test_run_command_keeps_failures_when_every_cell_fails(self, tmp_path, monkeypatch,
                                                              capsys):
        def broken(cfg_, fusion, latency, seed, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(experiment, "run_single", broken)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"duration_s": 1.0}, "fusions": ["vehicle_only"],
                                   "latencies_ms": [0], "seeds": [4]}))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "no runs completed" in err
        assert "FAILED vehicle_only latency=0.0 seed=4: RuntimeError('injected')" in err
        failures = json.loads((out_dir / "failures.json").read_text())
        assert failures == [{"error": "RuntimeError('injected')", "fusion": "vehicle_only",
                             "latency_ms": 0.0, "seed": 4}]
        assert sorted(p.name for p in out_dir.iterdir()) == ["failures.json"]

    def test_shared_work_failure_fails_exactly_that_seeds_cells(self, monkeypatch):
        cfg = tiny_config()
        clean, _ = run_sweep(cfg)
        real = experiment.sample_point_cloud

        def broken_sensor(scn, t, sensor):
            if scn.seed == 2 and t >= 0.5:
                raise RuntimeError("sensor down")
            return real(scn, t, sensor)

        monkeypatch.setattr(experiment, "sample_point_cloud", broken_sensor)
        reports, failures = run_sweep(cfg)
        assert reports == [r for r in clean if r.seed == 1]
        assert [(f.fusion, f.latency_ms, f.seed) for f in failures] == [
            ("late", 0.0, 2), ("late", 100.0, 2),
            ("vehicle_only", 0.0, 2), ("vehicle_only", 100.0, 2)]
        assert {f.error for f in failures} == {repr(RuntimeError("sensor down"))}

    def test_one_cell_failure_spares_the_other_cells_of_its_seed(self, monkeypatch):
        cfg = tiny_config()
        clean, _ = run_sweep(cfg)
        real = experiment.cooperative_feature

        def flaky(fusion, channel, t_v, *receiver):
            if (fusion.kind is FusionKind.LATE and channel.latency.base_ms == 100.0
                    and channel.latency.seed == 2 and t_v >= 0.5):
                raise RuntimeError("fusion bug")
            return real(fusion, channel, t_v, *receiver)

        monkeypatch.setattr(experiment, "cooperative_feature", flaky)
        reports, failures = run_sweep(cfg)
        assert reports == [r for r in clean
                           if (r.fusion, r.latency_ms, r.seed) != ("late", 100.0, 2)]
        assert [(f.fusion, f.latency_ms, f.seed, f.error) for f in failures] == [
            ("late", 100.0, 2, repr(RuntimeError("fusion bug")))]

    def test_parallel_matches_serial(self):
        cfg = tiny_config()
        assert len(cfg.fusions) >= 2 and len(cfg.latencies_ms) >= 2
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert serial == parallel
        assert [(r.fusion, r.latency_ms, r.seed) for r in serial[0]] == [
            (f.kind.value, lat, seed) for f in cfg.fusions for lat in cfg.latencies_ms
            for seed in cfg.seeds]

    @pytest.mark.parametrize("variant", [{"jitter_ms": 80.0}, {"compression": False}])
    def test_sweep_equals_one_cell_runs(self, variant):
        # Cells of a seed share world, sensing and encoded messages; a cell
        # that mutated a shared product would make the sweep and isolated
        # one-cell runs disagree.
        cfg = tiny_config(fusions=tuple(FusionMethod(kind) for kind in FusionKind),
                          latencies_ms=(0.0, 100.0, 300.0), **variant)
        reports, failures = run_sweep(cfg)
        assert failures == []
        single = [run_single(cfg, fusion, lat, seed)
                  for fusion in cfg.fusions for lat in cfg.latencies_ms for seed in cfg.seeds]
        assert reports == single

    def test_latency_sweep_matches_pinned_benchmark_reference(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        pinned = json.loads((ROOT / "perfbench" / "reference" / "latency_sweep.json").read_text())
        reports, failures = run_sweep(workloads.WORKLOADS["latency_sweep"].config(0))
        assert failures == []
        assert [r.to_json_dict() for r in reports] == pinned["seeds"]["0"]


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


def _held_bytes(obj, seen) -> int:
    """Bytes a held object keeps alive: each array counted by the buffer that
    owns it (a view keeps its whole base), each wire payload by its length.
    The scenario's clutter is shared by every frame and not counted."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (Enum, Clutter)):
        return 0
    if isinstance(obj, dict):
        return sum(_held_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_held_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(_held_bytes(v, seen) for v in vars(obj).values())
    return 0


HELD_SCENES = {
    "hidden_lane": hidden_lane_scenario(duration_s=1.0),
    "default": ScenarioConfig(duration_s=1.0),
    "moving_ego": ScenarioConfig(duration_s=1.0, ego_speed=6.0),
    "noiseless_dropout": ScenarioConfig(
        duration_s=1.0, noise=NoiseConfig(sigma_m=0.0, dropout_p=0.2)),
}


def all_fusion_frames(scene: ScenarioConfig):
    cfg = ExperimentConfig(scenario=scene, seeds=(1,))
    scn = generate_scenario(scene, 1)
    return list(experiment._seed_frames(cfg, scn, cfg.fusions))


class TestHeldFrames:
    """A seed's frames are held packed while its cells replay them."""

    def assert_same_frame(self, got, frame):
        assert got._replace(ego=None) == frame._replace(ego=None)
        cloud, want = got.ego.cloud, frame.ego.cloud
        np.testing.assert_array_equal(_bits(cloud.points), _bits(want.points))
        assert not cloud.points.flags.writeable
        assert cloud.clutter is want.clutter
        assert (cloud.frame, cloud.timestamp) == (want.frame, want.timestamp)
        grid, want = got.ego.grid, frame.ego.grid
        np.testing.assert_array_equal(_bits(grid.values), _bits(want.values))
        assert (grid.spec, grid.timestamp, grid.frame) == (want.spec, want.timestamp, want.frame)
        assert got.ego.detections is frame.ego.detections
        assert got.ego.density_cap == frame.ego.density_cap

    @pytest.mark.parametrize("name", sorted(HELD_SCENES))
    def test_unpacking_gives_every_frame_back_bit_for_bit(self, name):
        frames = all_fusion_frames(HELD_SCENES[name])
        carried = [frame.ego.cloud.clutter is not None for frame in frames]
        # The presets carry their clutter; a moving ego only at its frame-0
        # pose; dropout never.
        assert carried == {"hidden_lane": [True] * 11, "default": [True] * 11,
                           "moving_ego": [True] + [False] * 10,
                           "noiseless_dropout": [False] * 11}[name]
        for frame in frames:
            self.assert_same_frame(experiment._unpacked(experiment._packed(frame)), frame)

    def test_a_negative_zero_cell_keeps_its_sign(self):
        frames = all_fusion_frames(HELD_SCENES["hidden_lane"])
        frame = frames[0]
        values = frame.ego.grid.values.copy()
        values[0, 0] = (-0.0, 0.0, 0.0)
        values[1, 2, 1] = -0.0
        frame = frame._replace(ego=replace(frame.ego, grid=replace(frame.ego.grid,
                                                                   values=values)))
        self.assert_same_frame(experiment._unpacked(experiment._packed(frame)), frame)

    def test_a_held_frame_keeps_what_the_frame_adds(self):
        # The reference holds the ego cloud at its built size, 32 bytes a
        # row, and the grid as each nonzero float with an int64 index, the
        # messages and detections as they are.
        frames = all_fusion_frames(HELD_SCENES["hidden_lane"])
        held = whole = 0
        for frame in frames:
            held += _held_bytes(experiment._packed(frame), set())
            whole += _held_bytes(frame._replace(ego=replace(frame.ego, cloud=None, grid=None)),
                                 set())
            whole += 32 * len(frame.ego.cloud)
            whole += 16 * np.count_nonzero(_bits(frame.ego.grid.values))
        assert held <= 0.6 * whole


@pytest.mark.parametrize("kinds", [(FusionKind.LATE,), (FusionKind.MIDDLE_FLOW,),
                                   (FusionKind.LATE, FusionKind.MIDDLE_FLOW)],
                         ids=["late", "middle_flow", "both_held"])
def test_late_and_middle_cells_build_no_full_cloud(kinds, monkeypatch):
    """Only ``early`` fusion and the raw-points encoder read a cloud's rows
    whole; a late or middle cell, streamed or held, never builds them."""
    cfg = ExperimentConfig(scenario=ScenarioConfig(duration_s=1.0),
                           fusions=tuple(map(FusionMethod, kinds)), latencies_ms=(100.0,),
                           seeds=(1,))
    want = run_sweep(cfg)

    def no_points(pc):
        raise AssertionError("a full cloud was built")

    monkeypatch.setattr(PointCloud, "points", property(no_points))
    got = run_sweep(cfg)
    assert got == want and not got[1] and len(got[0]) == len(kinds)


class TestEmitReport:
    def test_empty_reports_error_and_no_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report([], "csv", tmp_path / "out")
        assert not (tmp_path / "out" / "runs.csv").exists()

    def test_unknown_format_rejected(self, tmp_path):
        report = run_single(tiny_config(), FusionMethod(FusionKind.VEHICLE_ONLY), 0.0, 1)
        with pytest.raises(ConfigurationError, match="unknown report format"):
            emit_report([report], "xml", tmp_path)

    def test_single_report_csv(self, tmp_path):
        cfg = tiny_config()
        report = run_single(cfg, FusionMethod(FusionKind.VEHICLE_ONLY), 0.0, 1)
        path = emit_report([report], "csv", tmp_path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("fusion,latency_ms,seed,mota")

    def test_csv_json_roundtrip_within_print_precision(self, tmp_path):
        cfg = tiny_config()
        reports = [run_single(cfg, FusionMethod(FusionKind.LATE), 100.0, s) for s in (1, 2)]
        csv_path = emit_report(reports, "csv", tmp_path / "c")
        json_path = emit_report(reports, "json", tmp_path / "j")
        rows = csv_path.read_text().strip().split("\n")
        header = rows[0].split(",")
        parsed = [dict(zip(header, line.split(","))) for line in rows[1:]]
        loaded = json.loads(json_path.read_text())
        for csv_row, json_row in zip(parsed, loaded):
            for key, value in json_row.items():
                if isinstance(value, float):
                    assert abs(float(csv_row[key]) - value) <= 5e-5 + 1e-12
                else:
                    assert str(value) == csv_row[key]

    def test_sweep_outputs_curves(self, tmp_path):
        cfg = tiny_config(seeds=(1,))
        reports, failures = run_sweep(cfg)
        paths = write_sweep_outputs(reports, failures, tmp_path)
        assert paths["summary"].exists()
        assert (tmp_path / "latency_curve_late.csv").exists()
        curve = (tmp_path / "latency_curve_late.csv").read_text().strip().split("\n")
        assert curve[0] == "latency_ms,mean_mota,mean_motp_m,mean_ids"
        assert len(curve) == 3


class TestConfigParsing:
    def test_roundtrip_from_dict(self):
        cfg = experiment_config_from_dict({
            "scenario": {
                "duration_s": 3.0,
                "agents": {"count": 2, "lanes": [{"y": -4.0}, {"y": 4.0, "heading": 3.14159}],
                           "categories": ["car"]},
                "noise": {"sigma_m": 0.0, "clutter_per_m2": 0.0},
            },
            "fusions": ["vehicle_only", "middle_flow"],
            "latencies_ms": [0, 200],
            "seeds": [5, 6],
            "compression": False,
            "eval_gate_m": 1.5,
            "detect": {"tau": 0.2, "min_cells": 4},
            "tracker": {"min_hits": 2, "max_age": 1},
        })
        assert cfg.scenario.duration_s == 3.0
        assert cfg.fusions[1].kind is FusionKind.MIDDLE_FLOW
        assert cfg.compression is False
        assert cfg.eval_gate_m == 1.5
        assert cfg.detect.tau == 0.2
        assert cfg.tracker.min_hits == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"fusion": ["late"]})
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"scenario": {"durations": 3.0}})

    @pytest.mark.parametrize("doc", [
        {"reducer": "max"},
        {"tracker": {"association": "distance"}},
        {"tracker": {"iou_gate": 0.1}},
        {"tracker": {"warmup_output": True}},
    ], ids=json.dumps)
    def test_removed_option_keys_are_unknown(self, doc):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            experiment_config_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"scenario": 3},
        {"scenario": {"region": [0.0, 1.0]}},
        {"scenario": {"vehicle_grid": {"x0": 0.0}}},
        {"scenario": {"agents": {"categories": ["boat"]}}},
        {"scenario": {"agents": {"lanes": [{"y": "left"}]}}},
        {"scenario": {"occluders": [[1.0, 2.0, 3.0]]}},
        {"seeds": None},
        {"tracker": {"min_hits": "many"}},
        {"detect": {"min_dim_m": 0}},
        {"eval_gate_m": -1},
        {"eval_gate_m": 0.0},
        {"scenario": {"ego": {"speed_mps": -1.0}}},
        *WRONG_TYPED_DOCS,
        {"seeds": [-1]},
        *BAD_AGENT_DOCS,
    ])
    def test_malformed_values_raise_configuration_error(self, doc):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict(doc)

    @given(st.sampled_from(LEAVES), JSON_VALUES)
    def test_a_leaf_rejects_a_value_of_a_json_type_it_does_not_take(self, leaf, value):
        path, tp = leaf
        assume(not takes(tp, value))
        with pytest.raises(ConfigurationError) as err:
            experiment_config_from_dict(doc_at(path, value))
        assert key_path(path) in str(err.value)

    @given(st.sampled_from(LEAVES).flatmap(
        lambda leaf: st.tuples(st.just(leaf), right_typed(leaf[1]))))
    def test_a_leaf_keeps_a_value_of_a_json_type_it_takes(self, drawn):
        (path, tp), value = drawn
        out = experiment._coerce(tp, value, key_path(path))
        assert type(out) is tp and out == tp(value)

    def test_every_dataclass_field_is_settable(self):
        cfg = experiment_config_from_dict({
            "scenario": {"agents": {"lane_slot_spacing_m": 25.0}, "ego": {"speed_mps": 3.0}},
            "detect": {"max_dim_m": 9.0},
            "tracker": {"q_vel": 2.0},
        })
        assert cfg.scenario.agents.lane_slot_spacing_m == 25.0
        assert cfg.scenario.ego_speed == 3.0
        assert cfg.detect.max_dim_m == 9.0
        assert cfg.tracker.q_vel == 2.0

    def test_fusion_keys_apply_to_the_default_fusions(self):
        cfg = experiment_config_from_dict({"late_threshold_m": 0.5})
        assert [f.kind for f in cfg.fusions] == list(FusionKind)
        assert {f.late_threshold_m for f in cfg.fusions} == {0.5}
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"late_threshold_m": -1.0})

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"fusions": ["psychic"]})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config_from_dict({"seeds": [1, 1]})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [3], "latencies_ms": [0]}))
        cfg = load_experiment_config(path)
        assert cfg.seeds == (3,)
        with pytest.raises(ConfigurationError):
            load_experiment_config(tmp_path / "missing.json")


def _holds_float(tp) -> bool:
    return tp is float or any(_holds_float(arg) for arg in get_args(tp))


def _with_last_float(value, bad):
    """``value`` with its last float, alone or nested in tuples, set to ``bad``."""
    if isinstance(value, float):
        return bad
    *head, last = value
    return (*head, _with_last_float(last, bad))


# A valid config of each checked class, with every tuple field holding a float.
_FINITE_CONFIGS = [
    GridSpec(0.0, 0.0, 1.0, 2, 2),
    NoiseConfig(),
    Lane(0.0),
    AgentPopulation(),
    ScenarioConfig(occluders=((1.0, 2.0, 3.0, 4.0),)),
    LatencyModel(),
    ExperimentConfig(),
]
_FLOAT_FIELDS = [(config, f.name) for config in _FINITE_CONFIGS
                 for f in fields(config) if _holds_float(get_type_hints(type(config))[f.name])]


class TestNonFiniteConfigFields:
    """Checks written as ``x < 0`` let NaN through a config built in Python:
    NaN noise and latencies ran and reported, a NaN grid origin ran with numpy
    warnings, and NaN ranges or infinite yaws and jitter failed every cell
    with a plain ValueError or OverflowError."""

    def test_the_float_fields_include_positions_yaws_and_tuples(self):
        names = {(type(config).__name__, name) for config, name in _FLOAT_FIELDS}
        assert {("ScenarioConfig", "ego_yaw"), ("ScenarioConfig", "occluders"),
                ("AgentPopulation", "x_start_range"), ("ExperimentConfig", "latencies_ms"),
                ("Lane", "heading"), ("GridSpec", "cell_size"),
                ("LatencyModel", "jitter_ms")} <= names
        assert len(names) == 29

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("config, name", _FLOAT_FIELDS,
                             ids=[f"{type(c).__name__}.{n}" for c, n in _FLOAT_FIELDS])
    def test_a_non_finite_float_is_rejected_at_construction(self, config, name, bad):
        value = _with_last_float(getattr(config, name), bad)
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            replace(config, **{name: value})


class TestReadmeSchema:
    def test_the_readme_config_block_loads(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```jsonc\n(.*?)```", text, flags=re.S)
        assert len(blocks) == 1
        doc = json.loads(re.sub(r"//[^\n]*", "", blocks[0]))
        cfg = experiment_config_from_dict(doc)
        assert cfg.seeds == tuple(doc["seeds"])
        assert [f.kind.value for f in cfg.fusions] == doc["fusions"]


# README schema keys that no shipped config, preset or benchmark workload sets
# to a value other than its default, each with the keys its effect needs and
# the fusion that shows it: (key, its dependencies, fusion).
_SCHEMA_KEY_EFFECTS = [
    ({"scenario": {"frame_rate_hz": 5}}, {}, "vehicle_only"),
    ({"scenario": {"region": [0.0, -20.0, 60.0, 20.0]}}, {}, "vehicle_only"),
    ({"scenario": {"ego": {"yaw": 0.3}}}, {}, "vehicle_only"),
    ({"scenario": {"ego": {"speed_mps": 5.0}}}, {}, "vehicle_only"),
    ({"scenario": {"infra": {"yaw": 0.3}}}, {}, "middle_static"),
    ({"scenario": {"agents": {"turn_fraction": 1.0}}}, {}, "vehicle_only"),
    ({"scenario": {"agents": {"turn_rate": 0.6}}},
     {"scenario": {"agents": {"turn_fraction": 1.0}}}, "vehicle_only"),
    ({"scenario": {"agents": {"lane_slot_spacing_m": 10.0}}}, {}, "vehicle_only"),
    ({"scenario": {"noise": {"dropout_p": 0.5}}}, {}, "vehicle_only"),
    ({"scenario": {"vehicle_grid": {"x0": 0.0, "y0": -40.0, "cell_size": 0.4,
                                    "cols": 250, "rows": 200}}}, {}, "vehicle_only"),
    ({"scenario": {"infra_grid": {"x0": -50.0, "y0": -40.0, "cell_size": 0.4,
                                  "cols": 250, "rows": 200}}}, {}, "middle_static"),
    ({"scenario": {"density_cap": 3.0}}, {}, "vehicle_only"),
    ({"scenario": {"surface_pts_per_m": 2.0}}, {}, "vehicle_only"),
    ({"compression": False}, {}, "middle_static"),
    ({"jitter_ms": 80.0}, {}, "late"),
    ({"eval_gate_m": 0.2}, {}, "vehicle_only"),
    ({"late_threshold_m": 0.5}, {}, "late"),
    ({"detect": {"tau": 0.5}}, {}, "vehicle_only"),
    ({"detect": {"min_cells": 12}}, {}, "vehicle_only"),
    ({"tracker": {"min_hits": 1}}, {}, "vehicle_only"),
    ({"tracker": {"max_age": 0}}, {}, "vehicle_only"),
    ({"tracker": {"gate_m": 0.5}}, {}, "vehicle_only"),
]


def _merged(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = _merged(out[k], v) if isinstance(v, dict) and isinstance(out.get(k), dict) else v
    return out


class TestSchemaKeyEffects:
    @pytest.mark.parametrize("key,needs,fusion", _SCHEMA_KEY_EFFECTS,
                             ids=[json.dumps(k) for k, _, _ in _SCHEMA_KEY_EFFECTS])
    def test_setting_the_key_changes_a_one_cell_run(self, key, needs, fusion):
        base = _merged({"scenario": {"duration_s": 1.0}, "fusions": [fusion],
                        "latencies_ms": [100], "seeds": [1]}, needs)

        def report(doc):
            cfg = experiment_config_from_dict(doc)
            return run_single(cfg, cfg.fusions[0], cfg.latencies_ms[0], cfg.seeds[0])

        assert report(_merged(base, key)) != report(base)


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_config_loads_and_runs(self, path):
        cfg = load_experiment_config(path)
        cfg = replace(cfg, scenario=replace(cfg.scenario, duration_s=1.0), seeds=cfg.seeds[:1])
        reports, failures = run_sweep(cfg)
        assert failures == []
        assert len(reports) == len(cfg.fusions) * len(cfg.latencies_ms)


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": {
                "duration_s": 1.5,
                "agents": {"count": 1, "lanes": [{"y": 5.0}], "categories": ["car"],
                           "speed_range": [5.0, 5.0], "x_start_range": [10.0, 10.0]},
                "noise": {"sigma_m": 0.0, "clutter_per_m2": 0.0},
            },
            "fusions": ["vehicle_only"],
            "latencies_ms": [0],
            "seeds": [1],
        }))
        return path

    def test_run_command(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = cli_main(["run", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "runs.csv").exists()
        assert (out_dir / "summary.csv").exists()
        assert "1 runs completed" in capsys.readouterr().out

    def test_run_command_negative_eval_gate(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "eval_gate_m": -1}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: match gate must be positive")

    def test_run_command_wrong_typed_compression(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "compression": "false"}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config.compression" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", [3, "nope", {"kind": "late"}], ids=json.dumps)
    def test_run_command_bad_fusion_name_names_its_json_path(self, tmp_path, capsys, name):
        cfg = self._write_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "fusions": ["late", name]}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config.fusions[1]: ") and ".kind" not in err

    @pytest.mark.parametrize("doc", [*WRONG_TYPED_DOCS, {"seeds": [-1]}, *BAD_AGENT_DOCS],
                             ids=json.dumps)
    def test_run_command_exits_2_on_a_bad_value(self, tmp_path, capsys, doc):
        cfg = self._write_config(tmp_path)  # a one-cell sweep, should the value load
        cfg.write_text(json.dumps(_merged(json.loads(cfg.read_text()), doc)))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ["vehicle_grid", "infra_grid"])
    @pytest.mark.parametrize("channels", [2, 4])
    def test_run_command_exits_2_on_a_grid_without_three_channels(self, tmp_path, capsys,
                                                                  grid, channels):
        """A 2-channel grid has no intensity channel to write and a 4-channel
        one would send a channel nothing writes; the codec itself stays
        generic over the channel count."""
        cfg = self._write_config(tmp_path)
        spec = {"x0": 0.0, "y0": -40.0, "cell_size": 0.5, "cols": 200, "rows": 160,
                "channels": channels}
        cfg.write_text(json.dumps(_merged(json.loads(cfg.read_text()), {"scenario": {grid: spec}})))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3 channels" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["density_cap", "surface_pts_per_m"])
    @pytest.mark.parametrize("value", [0, -1.0])
    def test_run_command_exits_2_on_a_nonpositive_point_density(self, tmp_path, capsys,
                                                                key, value):
        """A zero density cap divided every cell by zero, and a negative cap or
        a nonpositive surface density scored every run as if nothing was seen."""
        cfg = self._write_config(tmp_path)
        cfg.write_text(json.dumps(_merged(json.loads(cfg.read_text()), {"scenario": {key: value}})))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be positive" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"scenario": {"surface_pts_per_m": 1e12}}, "surface_pts_per_m must be at most"),
        ({"scenario": {"noise": {"clutter_per_m2": 1e12}}}, "clutter points"),
        ({"scenario": {"infra_grid": {"x0": 0.0, "y0": 0.0, "cell_size": 0.5,
                                      "cols": 10**8, "rows": 10**8}}}, "cells"),
        ({"scenario": {"duration_s": 1e9}}, "frame_rate_hz must be at most"),
        ({"scenario": {"agents": {"count": 101}}}, "agent count must be in [0, 100]"),
        ({"scenario": {"occluders": [[0.0, 0.0, 1.0, 1.0]] * 101}}, "at most 100 occluders"),
    ], ids=["surface_pts_per_m", "clutter_per_m2", "grid_cells", "duration_s", "agents",
            "occluders"])
    def test_run_command_exits_2_on_a_size_past_its_cap(self, tmp_path, capsys, doc, message):
        """Each of these loaded and then failed its cell with a MemoryError."""
        cfg = self._write_config(tmp_path)
        cfg.write_text(json.dumps(_merged(json.loads(cfg.read_text()), doc)))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [("gate_m", 0), ("gate_m", -4.0), ("r_pos", -0.5),
                                           ("q_vel", 0), ("p0_vel", -100.0)])
    def test_run_command_exits_2_on_a_nonpositive_tracker_value(self, tmp_path, capsys, key,
                                                                value):
        """A non-positive gate births a track per detection; a negative noise
        failed the cell mid-run with a covariance that is not positive definite."""
        cfg = self._write_config(tmp_path)
        cfg.write_text(json.dumps(_merged(json.loads(cfg.read_text()), {"tracker": {key: value}})))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"tracker {key} must be finite and > 0" in err
        assert not (tmp_path / "o").exists()

    def test_run_command_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"fusions\": [\"nope\"]}")
        code = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '"latencies_ms": [NaN]',
        '"late_threshold_m": NaN',
        '"detect": {"tau": NaN}',
        '"scenario": {"duration_s": Infinity}',
        '"jitter_ms": -Infinity',
        '"seeds": [Infinity]',
    ])
    def test_run_command_non_finite_number(self, tmp_path, capsys, text):
        # Python's json reads NaN and Infinity; no config field takes them.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"fusions": ["late"], ' + text + "}")
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config.") and "\n" == err[-1]
        assert not (tmp_path / "o").exists()

    def test_eval_command(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        hyp = tmp_path / "hyp.jsonl"
        rec = {"t": 0.0, "track_id": 1,
               "box": {"x": 1.0, "y": 2.0, "z": 0.75, "w": 1.8, "l": 4.5, "h": 1.5,
                        "yaw": 0.0, "category": "car"}}
        gt.write_text(json.dumps(rec) + "\n")
        hyp.write_text(json.dumps({**rec, "track_id": 9}) + "\n")
        code = cli_main(["eval", "--gt", str(gt), "--hyp", str(hyp), "--gate", "2.0"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["mota"] == 1.0
        assert result["num_gt"] == 1

    def test_eval_command_rejects_a_negative_gate(self, tmp_path, capsys):
        path = tmp_path / "tracks.jsonl"
        path.write_text(json.dumps({"t": 0.0, "track_id": 1, "box": {
            "x": 1.0, "y": 2.0, "z": 0.75, "w": 1.8, "l": 4.5, "h": 1.5}}) + "\n")
        assert cli_main(["eval", "--gt", str(path), "--hyp", str(path), "--gate", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: match gate must be positive")

    def test_eval_command_agrees_with_pipeline_report(self, tmp_path, capsys):
        # Exported track files scored by the standalone evaluator reproduce
        # the run's own metrics exactly, for every fusion kind.
        from cotrack.annotate import write_tracks

        cfg = tiny_config()
        gt_path = tmp_path / "gt.jsonl"
        hyp_path = tmp_path / "hyp.jsonl"
        for kind in FusionKind:
            report, art = run_single(cfg, FusionMethod(kind), 100.0, 2, keep_artifacts=True)
            write_tracks(gt_path, art.times, art.gt_frames, art.gt_sides)
            write_tracks(hyp_path, art.times, art.hyp_frames, art.hyp_sides)
            code = cli_main(["eval", "--gt", str(gt_path), "--hyp", str(hyp_path),
                             "--gate", str(cfg.eval_gate_m)])
            assert code == 0
            result = json.loads(capsys.readouterr().out)
            scores = [f.name for f in fields(MotResult)]
            assert sorted(result) == sorted([*scores, "frames", "gate_m"])
            assert [result[key] for key in scores] == [getattr(report, key) for key in scores], kind
            assert (result["frames"], result["gate_m"]) == (report.num_frames,
                                                            report.match_gate_m)

    @staticmethod
    def dense_tracks(path):
        """A 100 Hz file: two views of one track, 50 samples 0.01 s apart."""
        from cotrack.annotate import write_trajectories

        def tr(track_id, prov):
            return trajectory_of(track_id, [(0.01 * k, Box3D(x=0.1 * k, y=0.0, z=0.75, w=1.8,
                                                             l=4.5, h=1.5)) for k in range(50)],
                                 prov)

        write_trajectories(path, [tr(1, Provenance.VEHICLE_SIDE), tr(2, Provenance.INFRA_SIDE)])
        return path

    @staticmethod
    def ten_hz_tracks(path, infra_offset_m=0.0):
        """A 10 Hz, 11.9 s file: two views of one track, the infra one shifted
        by ``infra_offset_m`` along x."""
        from cotrack.annotate import write_trajectories

        def tr(track_id, prov, offset):
            samples = [(0.1 * k, Box3D(x=1.0 * k + offset, y=0.0, z=0.75, w=1.8, l=4.5, h=1.5))
                       for k in range(120)]
            return trajectory_of(track_id, samples, prov)

        write_trajectories(path, [tr(1, Provenance.VEHICLE_SIDE, 0.0),
                                  tr(2, Provenance.INFRA_SIDE, infra_offset_m)])
        return path

    def test_annotate_command_rejects_a_window_shorter_than_a_frame(self, tmp_path, capsys):
        # The frame rate is the file's own, 100 Hz, so 0.004 s is under a frame.
        src = self.dense_tracks(tmp_path / "dense.jsonl")
        out_dir = tmp_path / "o"
        code = cli_main(["annotate", "--in", str(src), "--out", str(out_dir),
                         "--window-s", "0.004", "--overlap-s", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: window_s * frame_rate_hz must be at least 1 frame, got 0.004 s at 100 Hz\n")
        assert not out_dir.exists()  # a rejected command writes nothing

    @pytest.mark.parametrize("args", [
        ["--window-s", "nan"],
        ["--window-s", "inf"],
        ["--window-s", "1e308", "--overlap-s", "0"],
        ["--overlap-s", "nan"],
        ["--overlap-s=-inf"],
        ["--match-threshold", "nan"],
        ["--match-threshold", "inf"],
        ["--similarity-threshold", "nan"],
    ], ids=" ".join)
    def test_annotate_command_rejects_a_non_finite_parameter(self, tmp_path, capsys, args):
        """On a 10 Hz, 11.9 s two-track file these raised a ValueError or an
        OverflowError traceback, or wrote one segment or no pair at all."""
        src = self.ten_hz_tracks(tmp_path / "ten_hz.jsonl")
        out_dir = tmp_path / "o"
        assert cli_main(["annotate", "--in", str(src), "--out", str(out_dir), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_annotate_command_rejects_a_span_of_too_many_segments(self, tmp_path, capsys):
        # 12 lines, samples 10 us apart at 0 and at 10 s: a 100 kHz file whose
        # 1e-5 s window holds a frame but would cut 10 s into a million segments.
        src = tmp_path / "sparse.jsonl"
        box = {"y": 0.0, "z": 0.75, "w": 1.8, "l": 4.5, "h": 1.5}
        lines = [{"t": t0 + 1e-5 * k, "track_id": track_id, "provenance": side,
                  "box": {"x": 10 * t0 + 1e-4 * k, **box}}
                 for track_id, side in ((1, "vehicle"), (2, "infra"))
                 for t0 in (0.0, 10.0) for k in range(3)]
        src.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out_dir = tmp_path / "o"
        code = cli_main(["annotate", "--in", str(src), "--out", str(out_dir),
                         "--window-s", "1e-5", "--overlap-s", "0"])
        assert code == 2
        assert "more than 100,000 segments" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_annotate_command_scores_completion_at_the_file_frame_rate(self, tmp_path):
        # The fused track covers half of a 1 s window at 100 Hz: completion
        # 0.5, with no turning and a constant speed.
        src = self.dense_tracks(tmp_path / "dense.jsonl")
        out_dir = tmp_path / "o"
        assert cli_main(["annotate", "--in", str(src), "--out", str(out_dir),
                         "--window-s", "1", "--overlap-s", "0.5"]) == 0
        assert (out_dir / "segment_scores.csv").read_text() == (
            "segment,track_id,score\n0,1,0.5000\n")

    def test_annotate_command(self, tmp_path, capsys):
        src = self.ten_hz_tracks(tmp_path / "tracks.jsonl", infra_offset_m=0.3)
        out_dir = tmp_path / "mined"
        code = cli_main(["annotate", "--in", str(src), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "cooperative.jsonl").exists()
        assert (out_dir / "matches.csv").exists()
        scores = (out_dir / "segment_scores.csv").read_text().strip().split("\n")
        assert len(scores) >= 2
        matches = (out_dir / "matches.csv").read_text()
        assert "1,2," in matches
