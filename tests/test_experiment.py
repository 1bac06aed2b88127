import importlib.util
import json
import re
import sys
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import cotrack.experiment as experiment
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
from cotrack.scenario import AgentPopulation, Lane, Provenance, ScenarioConfig
from cotrack.sensing import NoiseConfig

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
        cfg = tiny_config()
        report = run_single(cfg, FusionMethod(FusionKind.VEHICLE_ONLY), 300.0, 1)
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
        for frame in art.gt_frames:
            for o in frame:
                assert region.contains(o.box.x, o.box.y)

    @pytest.mark.parametrize("kind, provenance", [
        (FusionKind.VEHICLE_ONLY, Provenance.VEHICLE_SIDE),
        (FusionKind.LATE, Provenance.FUSED),
    ])
    def test_hypotheses_carry_the_run_provenance(self, kind, provenance):
        _, art = run_single(tiny_config(), FusionMethod(kind), 100.0, 1, keep_artifacts=True)
        hyps = [o for frame in art.hyp_frames for o in frame]
        assert hyps and all(o.provenance is provenance for o in hyps)


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

    @pytest.mark.parametrize("doc", [*WRONG_TYPED_DOCS, {"seeds": [-1]}], ids=json.dumps)
    def test_run_command_exits_2_on_a_bad_value(self, tmp_path, capsys, doc):
        cfg = self._write_config(tmp_path)  # a one-cell sweep, should the value load
        cfg.write_text(json.dumps(_merged(json.loads(cfg.read_text()), doc)))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
    ], ids=["surface_pts_per_m", "clutter_per_m2", "grid_cells", "duration_s"])
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
        # the run's own metrics.
        from cotrack.annotate import write_tracked_objects

        cfg = tiny_config()
        report, art = run_single(cfg, FusionMethod(FusionKind.LATE), 100.0, 2,
                                 keep_artifacts=True)
        gt_path = tmp_path / "gt.jsonl"
        hyp_path = tmp_path / "hyp.jsonl"
        write_tracked_objects(gt_path, art.gt_frames)
        write_tracked_objects(hyp_path, art.hyp_frames)
        code = cli_main(["eval", "--gt", str(gt_path), "--hyp", str(hyp_path),
                         "--gate", str(cfg.eval_gate_m)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["mota"] == pytest.approx(report.mota, abs=1e-9)
        assert result["ids"] == report.ids
        assert result["fp"] == report.fp
        assert result["fn"] == report.fn

    def test_annotate_command(self, tmp_path, capsys):
        from cotrack.annotate import Trajectory, write_trajectories
        from cotrack.geometry import Box3D
        from cotrack.scenario import Provenance

        def tr(track_id, prov, offset):
            samples = tuple(
                (0.1 * k, Box3D(x=1.0 * k + offset, y=0.0, z=0.75, w=1.8, l=4.5, h=1.5))
                for k in range(120)
            )
            return Trajectory(track_id=track_id, samples=samples, provenance=prov)

        src = tmp_path / "tracks.jsonl"
        write_trajectories(src, [tr(1, Provenance.VEHICLE_SIDE, 0.0),
                                 tr(2, Provenance.INFRA_SIDE, 0.3)])
        out_dir = tmp_path / "mined"
        code = cli_main(["annotate", "--in", str(src), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "cooperative.jsonl").exists()
        assert (out_dir / "matches.csv").exists()
        scores = (out_dir / "segment_scores.csv").read_text().strip().split("\n")
        assert len(scores) >= 2
        matches = (out_dir / "matches.csv").read_text()
        assert "1,2," in matches
