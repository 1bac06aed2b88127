"""Tests of the benchmark itself: tracing, rebinding and the correctness check."""

import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import cotrack  # noqa: E402
from check import check_sweep  # noqa: E402
from cotrack import experiment, scenario  # noqa: E402
from cotrack.sensing import View  # noqa: E402
from tracing import (CELL_TARGET, PER_LAYER, TARGETS, Tracer, cell_seconds,  # noqa: E402
                     per_layer_metrics, self_time_gap)
from workloads import WORKLOADS, Workload  # noqa: E402

# Three cells of a one-second hidden-lane scene: enough for every layer to run.
TINY = Workload("tiny", "hidden_lane", 1.0, ("vehicle_only", "middle_static", "middle_flow"),
                (0.0,), 1)


def _sweep(workload=TINY, seed=0):
    reports, failures = experiment.run_sweep(workload.config(seed), workers=1)
    return [r.to_json_dict() for r in reports], [dict(f.__dict__) for f in failures]


def _bindings():
    """Every attribute of every cotrack module or class that is callable."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cotrack" or name.startswith("cotrack.")):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def _traced_sweep(targets=TARGETS):
    """A tiny sweep under a Tracer, with its wall time on the tracer's clock."""
    with Tracer(targets) as tracer:
        start = tracer.now_ns()
        reports, failures = _sweep()
        wall_ns = tracer.now_ns() - start
    return tracer, reports, failures, wall_ns


def test_spans_nest_and_self_times_add_up():
    tracer, reports, failures, wall_ns = _traced_sweep()
    assert failures == []
    assert tracer.absent == {}
    assert tracer.nesting_violations() == 0
    roots = [s for s in tracer.spans if s.parent_id < 0]
    assert [s.name for s in roots] == ["run_sweep"]
    assert sum(s.name == CELL_TARGET for s in tracer.spans) == 3
    by_id = {s.span_id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    for s in tracer.spans:
        if s.parent_id >= 0:
            parent = by_id[s.parent_id]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
    assert 0 < self_time_gap(tracer, wall_ns) < 1e-3
    assert len(cell_seconds(tracer)) == 3
    frames = sum(r["num_frames"] for r in reports)
    metrics = per_layer_metrics(tracer, frames)
    assert set(metrics) == set(PER_LAYER)
    assert all(value is not None for value, _ in metrics.values())
    # Every cell of one seed senses the same world, so the sweep repeats work.
    assert metrics["scenario.gt_repeat_share"][0] > 0.5
    assert metrics["channel.payload_bytes_per_msg"][0] < metrics["channel.raw_bytes_per_msg"][0]


def test_work_outside_a_cell_is_traced_and_no_violation():
    # Per-seed work moved out of run_single runs under run_sweep or, without
    # it, as a root of its own; neither is misnested.
    cfg = TINY.config(0)
    with Tracer() as tracer:
        scn = scenario.generate_scenario(cfg.scenario, 1)
        scenario.ground_truth_at(scn, 0.0, View.INFRA)
        _sweep()
    assert [s.name for s in tracer.spans if s.parent_id < 0] == [
        "generate_scenario", "ground_truth_at", "run_sweep"]
    assert tracer.nesting_violations() == 0


def test_nesting_and_self_time_checks_can_fail():
    tracer, _, _, wall_ns = _traced_sweep()
    child = next(s for s in tracer.spans if s.parent_id >= 0)
    tracer.spans.append(child._replace(span_id=len(tracer.spans), end_ns=child.end_ns + 10**12))
    tracer.spans.append(child._replace(span_id=len(tracer.spans), parent_id=10**9))
    assert tracer.nesting_violations() == 2
    # Time no span covers (here: the sweep, untraced) opens the self-time gap.
    untraced = tuple(t for t in TARGETS if t.qualname not in ("run_sweep", CELL_TARGET))
    tracer, _, _, wall_ns = _traced_sweep(untraced)
    assert self_time_gap(tracer, wall_ns) > 1e-2
    assert cell_seconds(tracer) is None
    assert tracer.absent == {}


def test_rebinding_is_undone_after_a_traced_run():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert experiment.run_single is not before[("cotrack.experiment", "run_single")]
            assert cotrack.run_single is experiment.run_single
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    with Tracer():
        _sweep()
    assert _bindings() == before


def test_a_missing_function_is_absent_not_zero():
    targets = TARGETS + (TARGETS[0]._replace(qualname="no_such_function"),)
    with Tracer(targets) as tracer:
        pass
    assert "no_such_function" in tracer.absent
    broken = tuple(t._replace(qualname="gone_" + t.qualname) if t.qualname == "align_grid" else t
                   for t in TARGETS)
    with Tracer(broken) as tracer:
        reports, _ = _sweep()
    metrics = per_layer_metrics(tracer, sum(r["num_frames"] for r in reports))
    assert metrics["fusion.align_ms_per_call"][0] is None
    assert metrics["detector.detect_ms_per_call"][0] is not None
    no_cell = tuple(t._replace(qualname="gone_" + t.qualname) if t.qualname == CELL_TARGET else t
                    for t in TARGETS)
    tracer, reports, _, _ = _traced_sweep(no_cell)
    metrics = per_layer_metrics(tracer, sum(r["num_frames"] for r in reports))
    assert cell_seconds(tracer) is None
    for name in ("scenario.generate_ms_per_cell", "metrics.clearmot_ms_per_cell",
                 "experiment.self_ms_per_frame"):
        assert metrics[name][0] is None
    assert metrics["scenario.gt_ms_per_frame"][0] is not None


def test_check_passes_on_its_own_output_and_fails_on_a_perturbed_reference():
    reports, failures = _sweep()
    reference = [dict(r) for r in reports]
    result = check_sweep(TINY, 0, reports, failures, reference)
    assert result.errors == {}

    reference[1]["mota"] += 1e-12
    result = check_sweep(TINY, 0, reports, failures, reference)
    assert list(result.errors) == [("middle_static", 0.0, 1)]
    assert len(result.errors) / result.cells > 0  # the error rate the benchmark reports

    skipped = check_sweep(TINY, 0, reports, failures, None)
    assert skipped.errors == {}


def test_invariants_fail_without_a_reference():
    reports, failures = _sweep()
    bad = [dict(r) for r in reports]
    bad[0]["bps_pre"] = bad[0]["bps_post"] = 10.0  # vehicle_only sending bytes
    bad[2]["fp"] += 1  # middle_flow no longer equal to middle_static at 0 ms
    bad[1]["bps_post"] = bad[1]["bps_pre"] + 1.0
    result = check_sweep(TINY, 0, bad, failures, None)
    assert set(result.errors) == {("vehicle_only", 0.0, 1), ("middle_static", 0.0, 1),
                                  ("middle_flow", 0.0, 1)}
    result = check_sweep(TINY, 0, reports[:2], [{"fusion": "middle_flow", "latency_ms": 0.0,
                                                 "seed": 1, "error": "boom"}], None)
    assert list(result.errors) == [("middle_flow", 0.0, 1)]


def test_parts_are_exactly_the_workload_cells():
    for workload in WORKLOADS.values():
        whole = workload.config(3)
        parts = [workload.config(3, part) for part in range(workload.num_parts())]
        assert [s for cfg in parts for s in cfg.seeds] == list(whole.seeds)
        for cfg in parts:
            assert (cfg.scenario, cfg.fusions, cfg.latencies_ms) == (
                whole.scenario, whole.fusions, whole.latencies_ms)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", "reference"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow_long",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
