"""The gated box matchers against their versions before ``gated_assignment``.

Late fusion, track association (both metrics) and cross-view frame matching
now share one gated assignment; ``oracle_utils`` keeps each one's own copy
with its empty-side guard and leftover loops (``guarded_*``). Box centres sit
on an integer lattice and the gates are lattice distances, so tied costs and
distances exactly at the gate are common. Outputs are compared through
``repr``, which tells every float apart, -0.0 from 0.0 included.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cotrack.annotate import match_and_fuse_frames
from cotrack.assignment import gated_assignment, solve_assignment
from cotrack.detector import Detection
from cotrack.fusion import fuse_late
from cotrack.geometry import Box3D, Category
from cotrack.scenario import Provenance, TrackedObject
from cotrack.tracker import Track, associate
from oracle_utils import guarded_associate, guarded_fuse_late, guarded_match_and_fuse_frames

# Every distance between two lattice centres is sqrt of an integer up to 4+4+1.
LATTICE_GATES = st.sampled_from([math.sqrt(k) for k in range(10)])
IOU_GATES = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0])

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


def tracked(side: Provenance, found):
    return [TrackedObject(box=b, track_id=10 * k + 1, timestamp=0.5, provenance=side)
            for k, b in enumerate(found)]


@given(st.lists(detections, max_size=8), st.lists(detections, max_size=8), LATTICE_GATES)
def test_fuse_late_matches_its_guarded_version(ego, inf, gate):
    assert repr(fuse_late(ego, inf, gate)) == repr(guarded_fuse_late(ego, inf, gate))


@given(st.lists(boxes, max_size=8), st.lists(detections, max_size=8), LATTICE_GATES)
def test_distance_association_matches_its_guarded_version(track_boxes, dets, gate):
    tracks = [track_of(i, b) for i, b in enumerate(track_boxes)]
    assert associate(tracks, dets, gate) == guarded_associate(tracks, dets, gate)


@given(st.lists(boxes, max_size=8), st.lists(detections, max_size=8), IOU_GATES)
def test_iou_association_matches_its_guarded_version(track_boxes, dets, iou_gate):
    tracks = [track_of(i, b) for i, b in enumerate(track_boxes)]
    new = associate(tracks, dets, 4.0, metric="iou", iou_gate=iou_gate)
    assert new == guarded_associate(tracks, dets, 4.0, metric="iou", iou_gate=iou_gate)


@given(st.lists(boxes, max_size=8), st.lists(boxes, max_size=8), LATTICE_GATES)
def test_frame_matching_matches_its_guarded_version(v, i, gate):
    bv, bi = tracked(Provenance.VEHICLE_SIDE, v), tracked(Provenance.INFRA_SIDE, i)
    new = match_and_fuse_frames(bv, bi, gate)
    assert repr(new) == repr(guarded_match_and_fuse_frames(bv, bi, gate))


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_gated_assignment_keeps_accepted_solved_pairs_and_lists_the_rest(n, m, data):
    cost = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                                       min_size=n, max_size=n)), dtype=float).reshape(n, m)
    accept = cost <= data.draw(st.integers(0, 3))
    pairs, rows, cols = gated_assignment(cost, accept)
    assert pairs == [(r, c) for r, c in solve_assignment(cost) if accept[r, c]]
    assert rows == sorted(set(range(n)) - {r for r, _ in pairs})
    assert cols == sorted(set(range(m)) - {c for _, c in pairs})
