"""Reproduce the ROADMAP's baseline table (seconds per run cell per fusion), traced.

    python3 perfbench/baseline_table.py

Runs one cell per fusion on both presets, the way the table was taken
(hidden_lane at 200 ms, the default scene at 100 ms, a 15 s scenario,
seed 1), in this process with the benchmark's tracer on. Prints the seconds
per cell and each layer's self time per frame. Traced seconds run slightly
higher than untraced ones; ``trace.overhead_s`` in the traced benchmark
run says by how much.
"""

from dataclasses import replace

from child import import_cotrack
from tracing import CELL_TARGET, LAYERS, Tracer, per_layer_metrics

SEED = 1
DURATION_S = 15.0


def main() -> None:
    import_cotrack()
    from cotrack import experiment
    from cotrack.fusion import FusionKind, FusionMethod
    from cotrack.presets import hidden_lane_scenario
    from cotrack.scenario import ScenarioConfig

    scenes = (("hidden_lane", hidden_lane_scenario(DURATION_S), 200.0),
              ("default", replace(ScenarioConfig(), duration_s=DURATION_S), 100.0))
    print("| scene | fusion | latency ms | s/cell | "
          + " | ".join(f"{layer} self ms/frame" for layer in LAYERS) + " |")
    print("|" + "---|" * (4 + len(LAYERS)))
    for scene, scenario, latency in scenes:
        cfg = experiment.ExperimentConfig(scenario=scenario)
        for kind in FusionKind:
            with Tracer() as tracer:
                report = experiment.run_single(cfg, FusionMethod(kind), latency, SEED)
            seconds = tracer.stats[CELL_TARGET]["total_ns"] / 1e9
            metrics = per_layer_metrics(tracer, report.num_frames)
            self_ms = [metrics[f"{layer}.self_ms_per_frame"][0] for layer in LAYERS]
            print(f"| {scene} | {kind.value} | {latency:.0f} | {seconds:.2f} | "
                  + " | ".join("absent" if v is None else f"{v:.2f}" for v in self_ms) + " |")


if __name__ == "__main__":
    main()
