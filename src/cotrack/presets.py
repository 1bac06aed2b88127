"""Ready-made scenario and experiment configurations.

Three scene families cover the interesting regimes:

* default: mixed two-way traffic around the sensors, moderate noise
* clean_straight: noiseless contained traffic with no occlusion, where a
  correct pipeline should track perfectly
* hidden_lane: a wall hides one fast lane from the ego vehicle while the
  roadside sensor sees it unobstructed, the regime where cooperation and
  latency compensation pay off
"""

from __future__ import annotations

from .geometry import Category
from .scenario import AgentPopulation, Lane, ScenarioConfig
from .sensing import NoiseConfig


# Each preset's agents and noise are frozen, so every call shares them and
# builds only its ScenarioConfig: benchmarks build a preset in untraced set-up.
_CLEAN_STRAIGHT_AGENTS = AgentPopulation(
    count=5,
    speed_range=(3.0, 5.0),
    lanes=(Lane(-12.0), Lane(-6.0), Lane(0.0), Lane(6.0), Lane(12.0)),
    x_start_range=(8.0, 12.0),
    categories=(Category.CAR,),
)
_CLEAN_STRAIGHT_NOISE = NoiseConfig(sigma_m=0.0, dropout_p=0.0, clutter_per_m2=0.0)
_HIDDEN_LANE_AGENTS = AgentPopulation(
    count=4,
    speed_range=(10.5, 11.5),
    lanes=(Lane(8.0), Lane(-8.0)),
    x_start_range=(20.0, 34.0),
    categories=(Category.CAR,),
    lane_slot_spacing_m=40.0,
)
_HIDDEN_LANE_NOISE = NoiseConfig(sigma_m=0.05, dropout_p=0.0, clutter_per_m2=0.1)


def clean_straight_scenario(duration_s: float = 15.0) -> ScenarioConfig:
    """Noiseless, occlusion-free straight traffic that never leaves the region.

    One agent per lane, start positions and speeds chosen so no agent ever
    shadows another from the ego position and nobody exits the region
    within the default duration.
    """
    return ScenarioConfig(
        duration_s=duration_s,
        ego_start=(0.0, 0.0),
        ego_speed=0.0,
        infra_position=(50.0, 0.0),
        vehicle_range_m=120.0,
        infra_range_m=120.0,
        agents=_CLEAN_STRAIGHT_AGENTS,
        noise=_CLEAN_STRAIGHT_NOISE,
    )


def hidden_lane_scenario(duration_s: float = 15.0) -> ScenarioConfig:
    """A wall hides the north lane from the ego; the roadside sensor sees it.

    Two fast agents run on the hidden lane and two on the ego-visible lane.
    At 10.5 to 11.5 m/s, a 200 ms stale feature displaces a hidden agent
    beyond the 2 m evaluation gate while the flow-extrapolated feature stays
    within it, which is exactly the regime latency experiments probe.
    """
    return ScenarioConfig(
        duration_s=duration_s,
        ego_start=(0.0, 0.0),
        ego_speed=0.0,
        infra_position=(50.0, 20.0),
        vehicle_range_m=120.0,
        infra_range_m=120.0,
        agents=_HIDDEN_LANE_AGENTS,
        occluders=((14.0, 0.5, 16.0, 26.0),),
        noise=_HIDDEN_LANE_NOISE,
    )
