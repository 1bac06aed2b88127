"""The benchmark's workloads: each one maps a workload seed to an ExperimentConfig.

A workload is a fixed sweep of run cells (fusion x latency x scenario seed).
The benchmark's ``--seed`` picks the scenario seeds, so the same seed always
gives the same cells. Configs are built from ``cotrack.presets`` and
``ScenarioConfig()`` directly; ``load_experiment_config`` is not used because
it rejects both shipped config files.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

ALL_FUSIONS = ("vehicle_only", "early", "late", "middle_static", "middle_flow")


@dataclass(frozen=True)
class Workload:
    """A sweep shape; ``scenario_seeds(seed)`` gives its cells' scenario seeds.

    ``seeds_per_part`` splits the end-to-end run into ``run_sweep`` calls over
    that many scenario seeds each (all fusions and latencies of a seed stay
    in one call); ``None`` keeps the whole sweep in one call. It changes how
    the cells are timed, not which cells run, so it is not in ``spec()``.
    """

    name: str
    scene: str  # "hidden_lane" (presets.hidden_lane_scenario) | "default" (ScenarioConfig())
    duration_s: float
    fusions: Tuple[str, ...]
    latencies_ms: Tuple[float, ...]
    seeds_per_run: int
    seeds_per_part: Optional[int] = None

    def scenario_seeds(self, seed: int) -> Tuple[int, ...]:
        if seed < 0:
            raise ValueError("workload seed must be non-negative")
        first = seed * self.seeds_per_run + 1
        return tuple(range(first, first + self.seeds_per_run))

    def num_parts(self) -> int:
        per = self.seeds_per_part or self.seeds_per_run
        return -(-self.seeds_per_run // per)

    def spec(self) -> dict:
        """The workload's own description; pinned references are keyed on it."""
        return {
            "scene": self.scene,
            "duration_s": self.duration_s,
            "fusions": list(self.fusions),
            "latencies_ms": list(self.latencies_ms),
            "seeds_per_run": self.seeds_per_run,
        }

    def config(self, seed: int, part: Optional[int] = None):
        """The ExperimentConfig that ``run_sweep`` gets for this workload seed,
        or for one part of it."""
        from cotrack.experiment import ExperimentConfig
        from cotrack.fusion import FusionKind, FusionMethod
        from cotrack.presets import hidden_lane_scenario
        from cotrack.scenario import ScenarioConfig

        if self.scene == "hidden_lane":
            scenario = hidden_lane_scenario(duration_s=self.duration_s)
        else:
            scenario = replace(ScenarioConfig(), duration_s=self.duration_s)
        seeds = self.scenario_seeds(seed)
        if part is not None:
            if not 0 <= part < self.num_parts():
                raise ValueError(f"{self.name} has no part {part}")
            per = self.seeds_per_part or self.seeds_per_run
            seeds = seeds[part * per:(part + 1) * per]
        return ExperimentConfig(
            scenario=scenario,
            fusions=tuple(FusionMethod(FusionKind(f)) for f in self.fusions),
            latencies_ms=self.latencies_ms,
            seeds=seeds,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("latency_sweep", "hidden_lane", 3.0, ALL_FUSIONS, (0.0, 200.0), 2, 1),
        Workload("flow_long", "default", 8.0, ("middle_flow",), (100.0,), 4, 1),
        Workload("late_sweep", "default", 2.0, ("late",), (100.0,), 32, 8),
    )
}
