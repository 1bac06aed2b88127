import numpy as np
import pytest

from cotrack.detector import Detection
from cotrack.errors import NumericError, OrderingError
from cotrack.geometry import Box3D
from cotrack.scenario import Provenance
from cotrack.tracker import (
    Track,
    Tracker,
    TrackerParams,
    associate,
    kf_predict,
    kf_update,
    _assert_positive_definite,
)


def det(x, y=0.0, z=0.75, yaw=0.0, score=0.9):
    return Detection(box=Box3D(x=x, y=y, z=z, w=1.8, l=4.5, h=1.5, yaw=yaw), score=score)


def fresh_track(x=0.0, y=0.0, params=TrackerParams()):
    state = np.zeros(10)
    state[:7] = (x, y, 0.75, 0.0, 1.8, 4.5, 1.5)
    return Track(id=1, state=state, covariance=params.initial_covariance())


class TestKalman:
    def test_zero_dt_is_identity(self):
        t = fresh_track()
        out = kf_predict(t, 0.0)
        assert np.array_equal(out.state, t.state)
        assert np.allclose(out.covariance, t.covariance)

    def test_negative_dt_is_an_ordering_error(self):
        with pytest.raises(OrderingError):
            kf_predict(fresh_track(), -0.1)

    def test_velocity_advances_position(self):
        t = fresh_track()
        t.state[7] = 10.0
        out = kf_predict(t, 0.1)
        assert out.state[0] == pytest.approx(1.0)

    def test_constant_velocity_exact_over_many_frames(self):
        params = TrackerParams(q_pose=0.0, q_vel=0.0)
        t = fresh_track()
        t.state[7:10] = (7.0, -2.0, 0.0)
        for k in range(1, 11):
            t = kf_predict(t, 0.1, params)
            assert t.state[0] == pytest.approx(0.7 * k, abs=1e-9)
            assert t.state[1] == pytest.approx(-0.2 * k, abs=1e-9)

    def test_update_toward_measurement(self):
        t = fresh_track()
        out = kf_update(t, det(1.0))
        assert 0.0 < out.state[0] < 1.0
        assert out.hits == 2 and out.misses == 0

    def test_scalar_gain_half(self):
        # P = R = 1 on x gives Kalman gain 0.5: posterior halfway to the
        # measurement.
        params = TrackerParams(r_pos=1.0, p0_pose=1.0)
        t = fresh_track(params=params)
        out = kf_update(t, det(1.0), params)
        assert out.state[0] == pytest.approx(0.5)

    def test_tiny_measurement_noise_snaps_to_measurement(self):
        params = TrackerParams(r_pos=1e-12, r_yaw=1e-12, r_dims=1e-12)
        t = fresh_track(params=params)
        out = kf_update(t, det(3.0, y=1.0, yaw=0.3), params)
        assert out.state[0] == pytest.approx(3.0, abs=1e-6)
        assert out.state[1] == pytest.approx(1.0, abs=1e-6)
        assert out.state[3] == pytest.approx(0.3, abs=1e-6)

    def test_update_at_prediction_shrinks_covariance(self):
        t = fresh_track()
        out = kf_update(t, det(0.0))
        assert np.allclose(out.state[:3], t.state[:3], atol=1e-12)
        assert np.trace(out.covariance) < np.trace(t.covariance)

    def test_yaw_innovation_wraps(self):
        t = fresh_track()
        t.state[3] = 3.0
        out = kf_update(t, det(0.0, yaw=-3.0))  # only 0.28 rad away через pi
        assert abs(out.state[3]) > 2.9

    def test_covariance_stays_symmetric_positive_definite(self):
        t = fresh_track()
        for k in range(20):
            t = kf_predict(t, 0.1)
            t = kf_update(t, det(0.1 * k))
            assert np.array_equal(t.covariance, t.covariance.T)
            np.linalg.cholesky(t.covariance)

    def test_non_positive_definite_surfaces(self):
        with pytest.raises(NumericError):
            _assert_positive_definite(np.diag([1.0] * 9 + [-1.0]))


class TestAssociate:
    def test_no_tracks_all_detections_unmatched(self):
        matches, ut, ud = associate([], [det(0.0), det(5.0)], 4.0)
        assert matches == [] and ut == [] and ud == [0, 1]

    def test_single_pair_within_gate(self):
        matches, ut, ud = associate([fresh_track()], [det(1.0)], 4.0)
        assert matches == [(0, 0)] and ut == [] and ud == []

    def test_beyond_gate_unmatched(self):
        matches, ut, ud = associate([fresh_track()], [det(10.0)], 4.0)
        assert matches == [] and ut == [0] and ud == [0]

    def test_crossed_costs_pick_global_optimum(self):
        # Distance matrix [[1, 2], [2, 4]] realized in the plane: the
        # assignment (0,1),(1,0) totals 4 versus 5.
        t0 = fresh_track(0.0, 0.0)
        t1 = fresh_track(1.5, 1.9364916731037085)
        d0 = det(1.0, 0.0, z=0.75)
        d1 = det(-2.0, 0.0, z=0.75)
        cost_check = np.array([
            [1.0, 2.0],
            [np.hypot(0.5, 1.9364916731037085), np.hypot(3.5, 1.9364916731037085)],
        ])
        assert cost_check[1, 0] == pytest.approx(2.0)
        assert cost_check[1, 1] == pytest.approx(4.0)
        matches, _, _ = associate([t0, t1], [d0, d1], threshold_m=4.0)
        assert sorted(matches) == [(0, 1), (1, 0)]


class TestTrackerLifecycle:
    def test_first_frame_outputs_under_warmup(self):
        tracker = Tracker(TrackerParams(min_hits=3))
        out = tracker.step([det(0.0), det(20.0)], 0.0)
        assert len(out) == 2
        assert all(not trk.confirmed(3) for trk in tracker.tracks)

    def test_confirmation_after_min_hits(self):
        # A track born after the min_hits warm-up frames is reported from
        # its min_hits-th hit on, not before.
        tracker = Tracker(TrackerParams(min_hits=3))
        for k in range(3):
            assert tracker.step([], 0.1 * k) == []
        assert tracker.step([det(0.0)], 0.3) == []
        assert tracker.step([det(0.5)], 0.4) == []
        assert len(tracker.tracks) == 1
        out = tracker.step([det(1.0)], 0.5)
        assert len(out) == 1
        assert out[0].track_id == 1

    def test_single_stable_id_for_constant_velocity_target(self):
        tracker = Tracker(TrackerParams())
        ids = set()
        for k in range(10):
            out = tracker.step([det(1.0 * k)], 0.1 * k)
            ids.update(o.track_id for o in out)
        assert ids == {1}

    def test_reappearance_after_death_gets_new_id(self):
        params = TrackerParams(min_hits=1, max_age=2)
        tracker = Tracker(params)
        first = tracker.step([det(0.0)], 0.0)[0].track_id
        for k in range(1, 5):
            tracker.step([], 0.1 * k)  # absent beyond max_age
        assert tracker.tracks == []
        again = tracker.step([det(0.0)], 0.5)[0].track_id
        assert again != first

    def test_miss_frames_not_reported(self):
        params = TrackerParams(min_hits=1, max_age=3)
        tracker = Tracker(params)
        tracker.step([det(0.0)], 0.0)
        out = tracker.step([], 0.1)
        assert out == []
        assert len(tracker.tracks) == 1

    def test_ids_never_reused(self):
        rng = np.random.default_rng(0)
        tracker = Tracker(TrackerParams(min_hits=1, max_age=0))
        born = []
        t = 0.0
        for _ in range(40):
            t += 0.1
            dets = [det(float(x), float(y)) for x, y in rng.uniform(0, 80, size=(rng.integers(0, 4), 2))]
            for o in tracker.step(dets, t):
                born.append(o.track_id)
        assert len(set(born)) == len(set(born))  # ids unique as a set
        assert sorted(set(born)) == sorted(set(born))
        # A dead id must never return: check the global id counter only grows.
        assert tracker._next_id - 1 >= max(born or [0])

    def test_time_must_strictly_increase(self):
        tracker = Tracker()
        tracker.step([det(0.0)], 0.0)
        with pytest.raises(OrderingError):
            tracker.step([det(0.0)], 0.0)

    def test_provenance_and_score_forwarded(self):
        tracker = Tracker(TrackerParams(min_hits=1), provenance=Provenance.VEHICLE_SIDE)
        out = tracker.step([det(0.0, score=0.7)], 0.0)
        assert out[0].provenance is Provenance.VEHICLE_SIDE
        assert out[0].score == pytest.approx(0.7)
