"""The one-pass point sampler against the box-by-box sampler it replaced.

``sample_point_cloud`` draws a frame's uniforms once, ray-tests every
in-range box's outline together and replays the draw until every box's kept
count is known (``sensing._outline_points``). ``oracle_utils`` keeps the
sampler that took one box at a time, drawing each box's phases, heights and
intensities as it went. Every cloud must match it byte for byte, and carry
the same clutter, in every frame and view of each scene below.
"""

import numpy as np
import pytest

import cotrack.sensing as sensing
from cotrack.presets import clean_straight_scenario, hidden_lane_scenario
from cotrack.scenario import AgentPopulation, Lane, ScenarioConfig, generate_scenario
from cotrack.sensing import NoiseConfig, View, sample_point_cloud
from oracle_utils import per_box_sample_point_cloud

WALLS = ((10.0, -6.0, 12.0, 6.0), (40.0, 2.0, 44.0, 20.0))


def hidden_middle(**noise):
    """Three parked cars ahead of the ego; a wall hides all of the middle one."""
    return ScenarioConfig(
        duration_s=1.0, ego_start=(0.0, 0.0), infra_position=(50.0, 0.0),
        agents=AgentPopulation(count=3, speed_range=(0.0, 0.0),
                               lanes=(Lane(-8.0), Lane(0.0), Lane(8.0)),
                               x_start_range=(30.0, 30.0)),
        occluders=((10.0, -2.0, 12.0, 2.0),), noise=NoiseConfig(**noise))


SCENES = {
    "default": ScenarioConfig(duration_s=2.0),
    "hidden_lane": hidden_lane_scenario(duration_s=2.0),
    "clean_straight": clean_straight_scenario(duration_s=2.0),
    "moving_ego": ScenarioConfig(duration_s=2.0, ego_speed=6.0),
    "dropout": ScenarioConfig(duration_s=2.0, noise=NoiseConfig(dropout_p=0.2)),
    "noiseless": ScenarioConfig(duration_s=2.0, noise=NoiseConfig(sigma_m=0.0)),
    "no_agents": ScenarioConfig(duration_s=1.0, agents=AgentPopulation(count=0)),
    "walls_rotated_ego": ScenarioConfig(duration_s=2.0, ego_yaw=0.4, ego_speed=6.0,
                                        occluders=WALLS),
    "dense_outlines": ScenarioConfig(duration_s=1.0, surface_pts_per_m=20.0),
    "twenty_agents": ScenarioConfig(duration_s=2.0, agents=AgentPopulation(count=20),
                                    occluders=WALLS),
    "hidden_middle": hidden_middle(),
    "out_of_range": ScenarioConfig(duration_s=1.0, vehicle_range_m=1.0, infra_range_m=1.0),
}


@pytest.fixture
def rounds(monkeypatch):
    """Ray tests per ``sample_point_cloud`` call, one per replay round."""
    calls = []
    real = sensing.rays_hit_blockers

    def counted(*args):
        calls[-1] += 1
        return real(*args)

    monkeypatch.setattr(sensing, "rays_hit_blockers", counted)

    def sample(s, t, view):
        calls.append(0)
        return sample_point_cloud(s, t, view)

    return sample, calls


@pytest.mark.parametrize("name", SCENES)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_cloud_equals_the_box_by_box_sampler(name, seed, rounds):
    sample, calls = rounds
    s = generate_scenario(SCENES[name], seed)
    for t in s.frame_times():
        for view in View:
            got, want = sample(s, t, view), per_box_sample_point_cloud(s, t, view)
            assert got.points.tobytes() == want.points.tobytes(), (t, view)
            assert got.points.shape == want.points.shape
            assert got.clutter is want.clutter
            assert not got.points.flags.writeable
    if name == "twenty_agents":
        assert max(calls) >= 3  # boxes after a mismatch were tested again, twice or more
    if name in ("no_agents", "out_of_range"):
        assert max(calls) == 0


def test_the_scenes_take_the_paths_they_are_named_for(rounds):
    sample, calls = rounds
    # Every agent out of range: the clouds hold the clutter alone.
    s = generate_scenario(SCENES["out_of_range"], 1)
    assert len(s.geometry.ids) and all(len(sample(s, t, View.INFRA)) == len(s.clutter[View.INFRA].xyz)
                                 for t in s.frame_times())
    # The middle box keeps none of its points from the ego, so the last box's
    # draws start right after the middle box's four phases.
    s = generate_scenario(hidden_middle(sigma_m=0.0, clutter_per_m2=0.0), 1)
    pc = sample(s, 0.0, View.VEHICLE)
    centres = s.geometry.centres[0]
    nearest = np.argmin(np.linalg.norm(pc.points[:, None, :2] - centres[None], axis=2), axis=1)
    assert np.bincount(nearest, minlength=3).tolist()[1] == 0
    assert np.all(np.bincount(nearest, minlength=3)[[0, 2]] > 0)
    assert calls[-1] == 2  # the middle box's miss sends the last box round again
