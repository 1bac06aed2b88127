import math

import numpy as np
import pytest

from cotrack.errors import ConfigurationError, NumericError, OrderingError
from cotrack.tracker import (
    STATE_DIM,
    Tracker,
    TrackerParams,
    _positive_definite,
    predict,
    update,
)
from oracle_utils import Box3D, record_of


def dets(*xs, y=0.0, z=0.75, yaw=0.0, score=0.9):
    return record_of([Box3D(x=x, y=y, z=z, w=1.8, l=4.5, h=1.5, yaw=yaw) for x in xs],
                     [score] * len(xs))


def fresh(x=0.0, y=0.0, params=TrackerParams()):
    """One track's stacked state and covariance, as a birth at (x, y) makes them."""
    state = np.zeros((1, STATE_DIM))
    state[0, :7] = (x, y, 0.75, 0.0, 1.8, 4.5, 1.5)
    return state, params.initial_covariance()[None]


def kf_predict(state, cov, dt, params=TrackerParams()):
    return predict(state, cov, dt, params.process_noise_density())


def kf_update(state, cov, x, y=0.0, yaw=0.0, params=TrackerParams()):
    z = np.array([[x, y, 0.75, yaw, 1.8, 4.5, 1.5]])
    return update(state, cov, z, params.measurement_noise())


class TestKalman:
    def test_zero_dt_is_identity(self):
        state, cov = fresh()
        out, out_cov = kf_predict(state, cov, 0.0)
        assert np.array_equal(out, state)
        assert np.allclose(out_cov, cov)

    def test_negative_dt_is_an_ordering_error(self):
        with pytest.raises(OrderingError):
            kf_predict(*fresh(), -0.1)

    def test_velocity_advances_position(self):
        state, cov = fresh()
        state[0, 7] = 10.0
        out, _ = kf_predict(state, cov, 0.1)
        assert out[0, 0] == pytest.approx(1.0)

    def test_constant_velocity_exact_over_many_frames(self):
        # The state's advance does not depend on the process noise.
        params = TrackerParams(q_pose=1e-12, q_vel=1e-12)
        state, cov = fresh()
        state[0, 7:10] = (7.0, -2.0, 0.0)
        for k in range(1, 11):
            state, cov = kf_predict(state, cov, 0.1, params)
            assert state[0, 0] == pytest.approx(0.7 * k, abs=1e-9)
            assert state[0, 1] == pytest.approx(-0.2 * k, abs=1e-9)

    def test_update_toward_measurement(self):
        out, _ = kf_update(*fresh(), 1.0)
        assert 0.0 < out[0, 0] < 1.0

    def test_scalar_gain_half(self):
        # P = R = 1 on x gives Kalman gain 0.5: posterior halfway to the
        # measurement.
        params = TrackerParams(r_pos=1.0, p0_pose=1.0)
        out, _ = kf_update(*fresh(params=params), 1.0, params=params)
        assert out[0, 0] == pytest.approx(0.5)

    def test_tiny_measurement_noise_snaps_to_measurement(self):
        params = TrackerParams(r_pos=1e-12, r_yaw=1e-12, r_dims=1e-12)
        out, _ = kf_update(*fresh(params=params), 3.0, y=1.0, yaw=0.3, params=params)
        assert out[0, 0] == pytest.approx(3.0, abs=1e-6)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert out[0, 3] == pytest.approx(0.3, abs=1e-6)

    def test_update_at_prediction_shrinks_covariance(self):
        state, cov = fresh()
        out, out_cov = kf_update(state, cov, 0.0)
        assert np.allclose(out[0, :3], state[0, :3], atol=1e-12)
        assert np.trace(out_cov[0]) < np.trace(cov[0])

    def test_yaw_innovation_wraps(self):
        state, cov = fresh()
        state[0, 3] = 3.0
        out, _ = kf_update(state, cov, 0.0, yaw=-3.0)  # only 0.28 rad away across pi
        assert abs(out[0, 3]) > 2.9

    def test_covariance_stays_symmetric_positive_definite(self):
        state, cov = fresh()
        for k in range(20):
            state, cov = kf_predict(state, cov, 0.1)
            state, cov = kf_update(state, cov, 0.1 * k)
            assert np.array_equal(cov[0], cov[0].T)
            np.linalg.cholesky(cov[0])

    def test_non_positive_definite_surfaces(self):
        good = np.eye(10)
        with pytest.raises(NumericError):
            _positive_definite(np.stack([good, np.diag([1.0] * 9 + [-1.0]), good]))

    def test_a_tracker_with_a_non_positive_definite_covariance_fails_its_step(self):
        tracker = Tracker(TrackerParams(min_hits=1))
        tracker.step(dets(0.0, 20.0), 0.0)
        tracker.tracks.covariance[1, 9, 9] = -1.0
        with pytest.raises(NumericError, match="positive definite"):
            tracker.step(dets(0.0, 20.0), 0.1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in predict
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_tracker_with_a_non_finite_state_fails_its_step(self, value):
        tracker = Tracker(TrackerParams(min_hits=1))
        tracker.step(dets(0.0, 20.0), 0.0)
        tracker.tracks.state[0, 8] = value  # a velocity: the covariance stays finite
        with pytest.raises(NumericError):
            tracker.step(dets(0.0, 20.0), 0.1)


class TestTrackerParams:
    @pytest.mark.parametrize("name", ["gate_m", "q_pose", "q_vel", "r_pos", "r_yaw", "r_dims",
                                      "p0_pose", "p0_yaw", "p0_dims", "p0_vel"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
    def test_non_positive_or_non_finite_values_are_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            TrackerParams(**{name: value})

    @pytest.mark.parametrize("kwargs", [{"min_hits": 0}, {"max_age": -1}])
    def test_bad_lifecycle_is_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrackerParams(**kwargs)


class TestAssociation:
    def test_no_tracks_all_detections_born(self):
        tracker = Tracker(TrackerParams(min_hits=1))
        boxes, ids = tracker.step(dets(0.0, 5.0), 0.0)
        assert ids.tolist() == [1, 2] and len(tracker.tracks) == 2

    def test_single_pair_within_gate_updates(self):
        tracker = Tracker(TrackerParams(min_hits=1))
        tracker.step(dets(0.0), 0.0)
        boxes, ids = tracker.step(dets(1.0), 0.1)
        assert ids.tolist() == [1] and tracker.tracks.hits.tolist() == [2]

    def test_beyond_gate_births_a_track(self):
        tracker = Tracker(TrackerParams(min_hits=1, gate_m=4.0))
        tracker.step(dets(0.0), 0.0)
        boxes, ids = tracker.step(dets(10.0), 0.1)
        assert ids.tolist() == [2]
        assert tracker.tracks.ids.tolist() == [1, 2]
        assert tracker.tracks.misses.tolist() == [1, 0]

    def test_crossed_costs_pick_global_optimum(self):
        # Distance matrix [[1, 2], [2, 4]] realized in the plane: the
        # assignment (0,1),(1,0) totals 4 versus 5. Track 1 (at the origin)
        # takes the detection at -2, track 2 the one at +1.
        cost_check = np.array([
            [1.0, 2.0],
            [np.hypot(0.5, 1.9364916731037085), np.hypot(3.5, 1.9364916731037085)],
        ])
        assert cost_check[1, 0] == pytest.approx(2.0)
        assert cost_check[1, 1] == pytest.approx(4.0)
        tracker = Tracker(TrackerParams(min_hits=1, gate_m=4.0, r_pos=1e-12, r_yaw=1e-12,
                                        r_dims=1e-12))
        tracker.step(record_of([Box3D(0.0, 0.0, 0.75, 1.8, 4.5, 1.5),
                                Box3D(1.5, 1.9364916731037085, 0.75, 1.8, 4.5, 1.5)]), 0.0)
        tracker.step(dets(1.0, -2.0), 1e-9)
        assert tracker.tracks.state[:, 0] == pytest.approx([-2.0, 1.0], abs=1e-6)


class TestTrackerLifecycle:
    def test_first_frame_outputs_under_warmup(self):
        tracker = Tracker(TrackerParams(min_hits=3))
        boxes, ids = tracker.step(dets(0.0, 20.0), 0.0)
        assert len(boxes) == len(ids) == 2
        assert (tracker.tracks.hits < 3).all()

    def test_confirmation_after_min_hits(self):
        # A track born after the min_hits warm-up frames is reported from
        # its min_hits-th hit on, not before.
        tracker = Tracker(TrackerParams(min_hits=3))
        for k in range(3):
            assert len(tracker.step(dets(), 0.1 * k)[0]) == 0
        assert len(tracker.step(dets(0.0), 0.3)[0]) == 0
        assert len(tracker.step(dets(0.5), 0.4)[0]) == 0
        assert len(tracker.tracks) == 1
        boxes, ids = tracker.step(dets(1.0), 0.5)
        assert ids.tolist() == [1]

    def test_single_stable_id_for_constant_velocity_target(self):
        tracker = Tracker(TrackerParams())
        ids = set()
        for k in range(10):
            ids.update(tracker.step(dets(1.0 * k), 0.1 * k)[1].tolist())
        assert ids == {1}

    def test_reappearance_after_death_gets_new_id(self):
        params = TrackerParams(min_hits=1, max_age=2)
        tracker = Tracker(params)
        first = tracker.step(dets(0.0), 0.0)[1][0]
        for k in range(1, 5):
            tracker.step(dets(), 0.1 * k)  # absent beyond max_age
        assert len(tracker.tracks) == 0
        again = tracker.step(dets(0.0), 0.5)[1][0]
        assert again != first

    def test_a_track_lives_through_max_age_misses_and_dies_on_the_next(self):
        tracker = Tracker(TrackerParams(min_hits=1, max_age=2))
        first = tracker.step(dets(0.0), 0.0)[1][0]
        for k in (1, 2):
            tracker.step(dets(), 0.1 * k)
            assert tracker.tracks.ids.tolist() == [first]
        tracker.step(dets(), 0.3)
        assert len(tracker.tracks) == 0

    def test_miss_frames_not_reported(self):
        params = TrackerParams(min_hits=1, max_age=3)
        tracker = Tracker(params)
        tracker.step(dets(0.0), 0.0)
        boxes, ids = tracker.step(dets(), 0.1)
        assert len(boxes) == 0 and len(ids) == 0
        assert len(tracker.tracks) == 1

    def test_ids_never_reused(self):
        rng = np.random.default_rng(0)
        tracker = Tracker(TrackerParams(min_hits=1, max_age=0))
        born = []
        t = 0.0
        for _ in range(40):
            t += 0.1
            xy = rng.uniform(0, 80, size=(rng.integers(0, 4), 2))
            frame = record_of([Box3D(x, y, 0.75, 1.8, 4.5, 1.5) for x, y in xy.tolist()])
            born.extend(tracker.step(frame, t)[1].tolist())
        # A dead id never returns: ids are reported in birth order.
        first_seen = list(dict.fromkeys(born))
        assert first_seen == sorted(first_seen)
        assert tracker._next_id - 1 >= max(born or [0])

    def test_time_must_strictly_increase(self):
        tracker = Tracker()
        tracker.step(dets(0.0), 0.0)
        with pytest.raises(OrderingError):
            tracker.step(dets(0.0), 0.0)

    def test_score_forwarded_and_boxes_are_cars_with_floored_dims(self):
        tracker = Tracker(TrackerParams(min_hits=1))
        boxes, _ = tracker.step(dets(0.0, score=0.7), 0.0)
        assert boxes.score.tolist() == [0.7]
        assert boxes.category.tolist() == [0]
        tracker.tracks.state[0, 4] = -1.0  # a filter width can shrink below zero
        boxes, _ = tracker.step(dets(0.0, score=0.7), 0.1)
        assert boxes.values[0, 3] > 0
