"""The gated box matchers against their versions before ``gated_assignment``.

Late fusion, track association and cross-view trajectory
pairing now share one gated assignment; ``oracle_utils`` keeps each one's own
copy with its empty-side guard and leftover loops (``guarded_*``, and
``frame_pairs_before`` for the pairing, whose frame times lie on a 10 Hz grid).
Late fusion and association run on ``Boxes`` records and stacked track
states; the guarded versions take Detection lists and per-track ``Track``s. Box centres sit
on an integer lattice and the gates are lattice distances, so tied costs and
distances exactly at the gate are common. Outputs are compared through
``repr``, which tells every float apart, -0.0 from 0.0 included.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cotrack.annotate import (
    CandidateMatch,
    build_cooperative_trajectories,
    trajectory_similarity,
)
from cotrack.assignment import gated_assignment, solve_assignment
from cotrack.errors import UndefinedSimilarityError
from cotrack.fusion import fuse_late
from cotrack.geometry import Category, center_distances
from cotrack.scenario import Provenance
from oracle_utils import (Box3D, Detection, Track, boxes_of, detections_of, frame_pairs_before,
                          guarded_associate, guarded_fuse_late, trajectory_of)

# Every distance between two lattice centres is sqrt of an integer up to 4+4+1.
LATTICE_GATES = st.sampled_from([math.sqrt(k) for k in range(10)])

boxes = st.builds(
    Box3D,
    x=st.integers(0, 2).map(float),
    y=st.integers(0, 2).map(float),
    z=st.integers(0, 1).map(float),
    w=st.sampled_from([1.0, 2.0]),
    l=st.sampled_from([1.0, 2.0, 3.0]),
    h=st.just(1.5),
    yaw=st.sampled_from([0.0, math.pi / 2]),
    category=st.sampled_from(list(Category)),
)
detections = st.builds(Detection, box=boxes, score=st.sampled_from([0.0, 0.25, 0.5, 1.0]))


def track_of(i: int, box: Box3D) -> Track:
    state = np.zeros(10)
    state[:7] = (box.x, box.y, box.z, box.yaw, box.w, box.l, box.h)
    return Track(id=i + 1, state=state, covariance=np.eye(10))


def trajectories(side: Provenance):
    """Up to four trajectories of one to four consecutive 10 Hz frames each."""
    starts_and_boxes = st.tuples(st.integers(0, 3), st.lists(boxes, min_size=1, max_size=4))
    return st.lists(starts_and_boxes, max_size=4).map(lambda specs: [
        trajectory_of(10 * k + 1, [(0.1 * (start + j), b) for j, b in enumerate(found)], side)
        for k, (start, found) in enumerate(specs)])


@given(st.lists(detections, max_size=8), st.lists(detections, max_size=8), LATTICE_GATES)
def test_fuse_late_matches_its_guarded_version(ego, inf, gate):
    fused = detections_of(fuse_late(boxes_of(ego), boxes_of(inf), gate))
    assert repr(fused) == repr(guarded_fuse_late(ego, inf, gate))


@given(st.lists(boxes, max_size=8), st.lists(detections, max_size=8), LATTICE_GATES)
def test_distance_association_matches_its_guarded_version(track_boxes, dets, gate):
    """The tracker's association: stacked state centres against the frame's boxes."""
    tracks = [track_of(i, b) for i, b in enumerate(track_boxes)]
    state = np.array([t.state for t in tracks]).reshape(len(tracks), 10)
    cost = center_distances(state[:, :3], boxes_of(dets).values[:, :3])
    assert gated_assignment(cost, cost <= gate) == guarded_associate(tracks, dets, gate)


@given(trajectories(Provenance.VEHICLE_SIDE), trajectories(Provenance.INFRA_SIDE), LATTICE_GATES)
def test_trajectory_pairing_matches_its_frame_by_frame_version(v, i, gate):
    _, candidates = build_cooperative_trajectories(v, i, gate)
    v_by_id, i_by_id = {tr.track_id: tr for tr in v}, {tr.track_id: tr for tr in i}
    want = []
    for vid, iid in sorted(frame_pairs_before(v, i, gate)):
        try:
            sim = trajectory_similarity(v_by_id[vid], i_by_id[iid])
        except UndefinedSimilarityError:
            continue
        want.append(CandidateMatch(vehicle_id=vid, infra_id=iid, similarity=sim))
    assert repr(candidates) == repr(want)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_gated_assignment_keeps_accepted_solved_pairs_and_lists_the_rest(n, m, data):
    cost = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                                       min_size=n, max_size=n)), dtype=float).reshape(n, m)
    accept = cost <= data.draw(st.integers(0, 3))
    pairs, rows, cols = gated_assignment(cost, accept)
    assert pairs == [(r, c) for r, c in solve_assignment(cost) if accept[r, c]]
    assert rows == sorted(set(range(n)) - {r for r, _ in pairs})
    assert cols == sorted(set(range(m)) - {c for _, c in pairs})
