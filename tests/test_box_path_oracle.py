"""The array box path against the per-box path it replaced, bit for bit.

A frame's boxes travel as one ``Boxes`` record and the tracker filters every
track in one stacked step. ``oracle_utils`` keeps the per-box versions: the
Detection list, ``transform_box``, late fusion's ``_merge_pair`` and the
tracker that ran ``kf_predict``/``kf_update`` one ``Track`` at a time
(``PerTrackTracker``). Floats are compared through ``view(np.uint64)``, so
-0.0 and 0.0 differ. Yaws at and next to +-pi matter: ``wrap_angle`` maps -pi
to pi, and one ulp above -pi its first formula lands out of range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotrack.fusion import fuse_late
from cotrack.geometry import Category, Pose
from cotrack.scenario import Provenance
from cotrack.tracker import STATE_DIM, Tracker, TrackerParams, predict, update
from oracle_utils import (Box3D, Detection, PerTrackTracker, Track, boxes_of, detections_of,
                          guarded_fuse_late, kf_predict, kf_update, record_of, rows_of,
                          tracked_objects, transform_box)

PI = math.pi
# Yaws at +-pi, one ulp inside them, and a float whose sum with -pi/2 is exactly -pi.
EDGE_YAWS = [PI, -PI, math.nextafter(PI, 0.0), math.nextafter(-PI, 0.0), -PI / 2, 0.0, -0.0]
yaws = st.one_of(st.sampled_from(EDGE_YAWS), st.floats(-4.0, 4.0))
scores = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def box_bits(boxes) -> list:
    return [bits([b.x, b.y, b.z, b.w, b.l, b.h, b.yaw]) + [b.category] for b in boxes]


@st.composite
def box3ds(draw, span=10.0):
    return Box3D(x=draw(st.floats(0.0, span)), y=draw(st.floats(-span / 2, span / 2)),
                 z=draw(st.floats(0.0, 2.0)), w=draw(st.floats(0.5, 3.0)),
                 l=draw(st.floats(0.5, 6.0)), h=draw(st.floats(0.5, 3.0)), yaw=draw(yaws),
                 category=draw(st.sampled_from(list(Category))))


detections = st.builds(Detection, box=box3ds(), score=scores)
poses = st.builds(Pose, x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0),
                  z=st.floats(-2.0, 2.0), yaw=yaws)


@settings(max_examples=300, deadline=None)
@given(st.lists(box3ds(span=100.0), max_size=6), poses)
def test_transformed_matches_transform_box(boxes, pose):
    out = record_of(boxes).transformed(pose)
    assert box_bits(rows_of(out)) == box_bits([transform_box(b, pose) for b in boxes])


@pytest.mark.parametrize("yaw", EDGE_YAWS)
@pytest.mark.parametrize("pose_yaw", [0.0, PI, -PI, -PI / 2, PI / 2, math.nextafter(PI, 0.0)])
def test_transformed_at_plus_minus_pi(yaw, pose_yaw):
    """Box3D(yaw=-pi) holds pi, and -pi/2 turned by -pi/2 sums to exactly -pi.
    ``transformed`` wraps once where ``transform_box`` wraps twice (its
    ``Box3D`` wraps again), and both land in (-pi, pi]."""
    box = Box3D(1.0, -2.0, 0.5, 1.8, 4.5, 1.5, yaw=yaw)
    pose = Pose(3.0, 4.0, 0.0, pose_yaw)
    array_yaw = record_of([box]).transformed(pose).values[0, 6]
    assert bits([array_yaw]) == bits([transform_box(box, pose).yaw])
    assert -PI < array_yaw <= PI


@settings(max_examples=300, deadline=None)
@given(st.lists(detections, max_size=6), st.lists(detections, max_size=6),
       st.sampled_from([0.5, 2.0, 4.0, 20.0]))
def test_fuse_late_merges_as_merge_pair(ego, inf, gate):
    """``guarded_fuse_late`` merges each pair with ``_merge_pair``; repr tells every float apart."""
    fused = detections_of(fuse_late(boxes_of(ego), boxes_of(inf), gate))
    assert repr(fused) == repr(guarded_fuse_late(ego, inf, gate))


def random_tracks(rng, n):
    state = rng.normal(0.0, 5.0, (n, STATE_DIM))
    state[:, 3] = rng.uniform(-PI, PI, n)
    a = rng.normal(0.0, 1.0, (n, STATE_DIM, STATE_DIM))
    cov = a @ a.swapaxes(1, 2) + 0.1 * np.eye(STATE_DIM)
    return state, 0.5 * (cov + cov.swapaxes(1, 2))


@pytest.mark.parametrize("seed", range(20))
def test_stacked_predict_and_update_match_the_per_track_filter(seed):
    rng = np.random.default_rng(seed)
    params = TrackerParams(q_pose=rng.uniform(0.01, 1.0), r_pos=rng.uniform(0.05, 1.0))
    n = int(rng.integers(1, 25))
    state, cov = random_tracks(rng, n)
    dt = [0.0, 0.1, float(rng.uniform(0.01, 1.0))][seed % 3]
    got_state, got_cov = predict(state, cov, dt, params.process_noise_density())
    want = [kf_predict(Track(i, state[i], cov[i]), dt, params) for i in range(n)]
    assert bits(got_state) == bits([t.state for t in want])
    assert bits(got_cov) == bits([t.covariance for t in want])

    near = got_state[:, :7] + rng.normal(0.0, 1.0, (n, 7))
    dets = [Detection(Box3D(x, y, z, abs(w) + 0.5, abs(l) + 0.5, abs(h) + 0.5,
                            yaw=[PI, -PI, 3.0, -3.0][i % 4]), 0.5)
            for i, (x, y, z, _, w, l, h) in enumerate(near.tolist())]
    z = boxes_of(dets).values[:, [0, 1, 2, 6, 3, 4, 5]]  # measurement order
    new_state, new_cov = update(got_state, got_cov, z, params.measurement_noise())
    want = [kf_update(t, d, params) for t, d in zip(want, dets)]
    assert bits(new_state) == bits([t.state for t in want])
    assert bits(new_cov) == bits([t.covariance for t in want])


frames = st.lists(st.lists(detections, max_size=6), min_size=1, max_size=12)
lifecycles = st.builds(TrackerParams, min_hits=st.integers(1, 3), max_age=st.integers(0, 3),
                       gate_m=st.sampled_from([1.0, 2.0, 4.0, 8.0]))


@settings(max_examples=150, deadline=None)
@given(frames, lifecycles, st.lists(st.sampled_from([0.05, 0.1, 0.3, 1.0]), min_size=12,
                                    max_size=12))
def test_stacked_tracker_replays_the_per_track_tracker(sequence, params, steps):
    """States, covariances, ids, hits, misses, scores and reported objects,
    frame by frame: empty frames, births, deaths at max_age, the warm-up and
    the first frame's dt = 0 all come up."""
    tracker, oracle = Tracker(params), PerTrackTracker(params, Provenance.VEHICLE_SIDE)
    t = 0.0
    for dets, dt in zip(sequence, steps):
        boxes, ids = tracker.step(boxes_of(dets), t)
        want = oracle.step(dets, t)
        got = tracked_objects(boxes, ids, t, [Provenance.VEHICLE_SIDE] * len(ids))
        assert box_bits([o.box for o in got]) == box_bits([o.box for o in want])
        tags = [[(o.track_id, o.timestamp, o.provenance, o.score) for o in objects]
                for objects in (got, want)]
        assert tags[0] == tags[1]
        assert bits([o.score for o in got]) == bits([o.score for o in want])
        live = tracker.tracks
        assert live.ids.tolist() == [trk.id for trk in oracle.tracks]
        assert live.hits.tolist() == [trk.hits for trk in oracle.tracks]
        assert live.misses.tolist() == [trk.misses for trk in oracle.tracks]
        assert bits(live.score) == bits([trk.score for trk in oracle.tracks])
        assert bits(live.state) == bits([trk.state for trk in oracle.tracks] or np.zeros((0, 10)))
        assert bits(live.covariance) == bits([trk.covariance for trk in oracle.tracks]
                                             or np.zeros((0, 10, 10)))
        t += dt
