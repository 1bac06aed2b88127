"""The benchmark tracer sees every stage of every fusion strategy.

``perfbench/tracing.py`` rebinds each traced function where a ``cotrack``
module holds it as a global. A strategy that captured one of those functions
in a table at import time would call it past the tracer, and its metrics
would read as missing. These counts pin where each stage runs, per strategy.
"""

import importlib.util
from pathlib import Path

import pytest

import cotrack.experiment as experiment
from cotrack.experiment import ExperimentConfig
from cotrack.fusion import FusionKind, FusionMethod
from cotrack.presets import hidden_lane_scenario

ROOT = Path(__file__).resolve().parents[1]
N = 11  # frames of a 1 s scene at 10 Hz

spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                              ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

# Calls every cell makes whatever its strategy. The assignment solver's call
# count depends on what was detected, so it is not pinned.
PER_RUN = {"run_single": 1, "generate_scenario": 1, "ground_truth_at": 2 * N, "step": N,
           "evaluate_clearmot": 1, "aggregate_run": 1}
COOPERATIVE = {"cooperative_feature": N, "detect": N, "sample_point_cloud": 2 * N,
               "rasterize_bev": 2 * N, "encode_message": N, "send": N}
MIDDLE = {**COOPERATIVE, "decompress_grid": N, "align_grid": N}
STAGES = {
    FusionKind.VEHICLE_ONLY: {"cooperative_feature": N, "detect": N,
                              "sample_point_cloud": N, "rasterize_bev": N},
    FusionKind.EARLY: COOPERATIVE,
    FusionKind.LATE: {**COOPERATIVE, "detect": 2 * N},
    FusionKind.MIDDLE_STATIC: {**MIDDLE, "compress_grid": N},
    FusionKind.MIDDLE_FLOW: {**MIDDLE, "compress_grid_pair": N, "predict_feature": N,
                             "extract_feature_flow": N - 1},
}


@pytest.mark.parametrize("kind", list(FusionKind), ids=lambda k: k.value)
def test_tracer_counts_each_stage_of_a_run(kind):
    cfg = ExperimentConfig(scenario=hidden_lane_scenario(duration_s=1.0))
    with tracing.Tracer() as tracer:
        experiment.run_single(cfg, FusionMethod(kind), 0.0, 1)
    assert tracer.absent == {}
    assert not [name for name, s in tracer.stats.items() if "observe_error" in s]
    calls = {name: s["calls"] for name, s in tracer.stats.items() if name != "solve_assignment"}
    expected = {name: 0 for name in calls}
    expected.update({**PER_RUN, **STAGES[kind]})
    assert calls == expected
