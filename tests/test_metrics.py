import json
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrack.channel import Channel, ChannelMessage, LatencyModel, MessageKind
from cotrack.errors import AlignmentError, ConfigurationError
from cotrack.experiment import emit_report
from cotrack.metrics import (
    MotResult,
    RunReport,
    aggregate_run,
    clearmot_events,
    clearmot_result,
    evaluate_clearmot,
)
from cotrack.scenario import Provenance

from oracle_utils import Box3D, TrackedObject, brute_force_clearmot, clearmot_frames


def obj(track_id, x, y=0.0, z=0.0, t=0.0):
    return TrackedObject(
        box=Box3D(x=x, y=y, z=z, w=1.8, l=4.5, h=1.5),
        track_id=track_id,
        timestamp=t,
        provenance=Provenance.FUSED,
    )


def clearmot(gt_frames, hyp_frames, gate):
    """``evaluate_clearmot`` on lists of tracked objects per frame."""
    return evaluate_clearmot(clearmot_frames(gt_frames), clearmot_frames(hyp_frames), gate)


class TestEvaluateClearmot:
    @pytest.mark.parametrize("gate", [-1.0, 0.0, float("nan"), float("inf")])
    def test_gate_must_be_positive_and_finite(self, gate):
        frames = [[obj(1, 0.0)]]
        with pytest.raises(ConfigurationError, match="match gate"):
            clearmot(frames, frames, gate)

    def test_perfect_tracker(self):
        frames = [[obj(1, 0.0, t=0.1 * k), obj(2, 10.0, t=0.1 * k)] for k in range(5)]
        result = clearmot(frames, frames, 2.0)
        assert result.mota == 1.0
        assert result.motp_m == 0.0
        assert result.ids == result.fp == result.fn == 0
        assert result.num_gt == 10

    def test_formula_with_constructed_errors(self):
        # 10 frames x 10 objects = 100 GT; drop one hypothesis per frame
        # (10 FN), add one far hypothesis in 5 frames (5 FP), and change one
        # object's hypothesis id twice (2 IDS): MOTA = 1 - 17/100.
        gt_frames, hyp_frames = [], []
        for k in range(10):
            t = 0.1 * k
            gts = [obj(i, 10.0 * i, t=t) for i in range(10)]
            hyps = [obj(100 + i, 10.0 * i, t=t) for i in range(1, 10)]  # id 0 dropped
            if k < 5:
                hyps.append(obj(999, 500.0, t=t))
            hyp_frames.append(hyps)
            gt_frames.append(gts)
        for k in (4, 7):  # switch object 5's hypothesis id at two frames onward
            for frame in hyp_frames[k:]:
                for i, h in enumerate(frame):
                    if h.track_id in (105, 205) and abs(h.box.x - 50.0) < 1e-6:
                        frame[i] = obj(205 if h.track_id == 105 else 105, 50.0, t=h.timestamp)
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.fn == 10
        assert result.fp == 5
        assert result.ids == 2
        assert result.mota == pytest.approx(0.83)
        assert result.mota == 1.0 - (result.fp + result.fn + result.ids) / result.num_gt

    def test_id_switch_counted_once(self):
        gt_frames = [[obj(1, 0.0, t=0.0)], [obj(1, 0.0, t=0.1)]]
        hyp_frames = [[obj(7, 0.5, t=0.0)], [obj(8, 0.5, t=0.1)]]
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.ids == 1
        assert result.fp == 0 and result.fn == 0
        assert result.motp_m == pytest.approx(0.5)

    @pytest.mark.parametrize("old_x", [0.6, 2.0])
    def test_persistent_correspondence_resists_closer_newcomer(self, old_x):
        # Ground truth stays matched to its old hypothesis while in gate,
        # exactly at the gate included, even when a new hypothesis appears closer.
        gt_frames = [[obj(1, 0.0, t=0.0)], [obj(1, 0.0, t=0.1)]]
        hyp_frames = [
            [obj(7, 0.5, t=0.0)],
            [obj(7, old_x, t=0.1), obj(8, 0.1, t=0.1)],
        ]
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.ids == 0
        assert result.fp == 1  # the newcomer is unmatched

    def test_motp_sums_each_frames_distances_in_ascending_order(self):
        # Distances 0.3, 0.2, 0.1 in row order: added smallest first they sum
        # to 0.6000000000000001, in row order or compensated to 0.6.
        gts = [obj(i, 0.0, y=10.0 * i) for i in range(3)]
        hyps = [obj(7 + i, d, y=10.0 * i) for i, d in enumerate([0.3, 0.2, 0.1])]
        assert clearmot([gts], [hyps], 2.0).motp_m == ((0.1 + 0.2) + 0.3) / 3

    def test_switch_across_gap_counted(self):
        gt_frames = [[obj(1, 0.0, t=0.0)], [], [obj(1, 0.0, t=0.2)]]
        hyp_frames = [[obj(7, 0.0, t=0.0)], [], [obj(8, 0.0, t=0.2)]]
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.ids == 1

    @pytest.mark.parametrize("far_hyp", [False, True])
    def test_a_hypothesis_no_gated_pair_reaches_leaves_a_tie_as_it_was(self, far_hyp):
        """gt 0 and 1 tie for hypothesis 101; the lower row takes it, so gt 0
        switches to 102 next frame. Hypothesis 100, listed first and 5 m from
        everything, once made the padded solve give 101 to gt 1 (ids 0)."""
        first = [obj(101, 0.0)]
        if far_hyp:
            first.insert(0, obj(100, 0.0, y=5.0))
        gt_frames = [[obj(0, 0.0), obj(1, 0.0)], [obj(0, 0.0), obj(1, 10.0)]]
        hyp_frames = [first, [obj(102, 0.0), obj(101, 10.0)]]
        result = clearmot(gt_frames, hyp_frames, 1.0)
        assert (result.ids, result.fp) == (1, int(far_hyp))

    @pytest.mark.parametrize("far_gt", [False, True])
    def test_a_ground_truth_no_gated_pair_reaches_leaves_a_tie_as_it_was(self, far_gt):
        """Hypotheses 101 and 102 tie for gt 0; the lower column takes it, so
        gt 0 switches to 102 next frame. Ground truth 5, listed first and 5 m
        from everything, once made the padded solve give 102 to gt 0 (ids 0)."""
        first = [obj(0, 0.0)]
        if far_gt:
            first.insert(0, obj(5, 0.0, y=5.0))
        gt_frames = [first, [obj(0, 0.0)]]
        hyp_frames = [[obj(101, 0.0), obj(102, 0.0)], [obj(102, 0.0)]]
        result = clearmot(gt_frames, hyp_frames, 1.0)
        assert (result.ids, result.fn) == (1, int(far_gt))

    def test_gate_respected(self):
        gt_frames = [[obj(1, 0.0)]]
        hyp_frames = [[obj(7, 2.5)]]
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.fn == 1 and result.fp == 1 and result.num_gt == 1

    def test_misaligned_frames_rejected(self):
        with pytest.raises(AlignmentError):
            clearmot([[]], [[], []], 2.0)

    def test_empty_ground_truth_perfect_when_no_hypotheses(self):
        result = clearmot([[], []], [[], []], 2.0)
        assert result.mota == 1.0 and result.num_gt == 0

    def test_order_independent_within_frames(self):
        rng = np.random.default_rng(77)
        gt_frames, hyp_frames = [], []
        for k in range(6):
            t = 0.1 * k
            gt_frames.append([obj(int(i), *rng.uniform(0, 20, size=2), t=t) for i in range(5)])
            hyp_frames.append([obj(int(100 + i), *rng.uniform(0, 20, size=2), t=t)
                               for i in range(4)])
        base = clearmot(gt_frames, hyp_frames, 3.0)
        shuffled_gt = [list(rng.permutation(np.array(f, dtype=object))) for f in gt_frames]
        shuffled_hyp = [list(rng.permutation(np.array(f, dtype=object))) for f in hyp_frames]
        again = clearmot(shuffled_gt, shuffled_hyp, 3.0)
        assert (base.mota, base.motp_m, base.ids, base.fp, base.fn) == \
               (again.mota, again.motp_m, again.ids, again.fp, again.fn)

    def test_matches_brute_force_on_random_micro_sequences(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n_frames = int(rng.integers(1, 7))
            gt_frames, hyp_frames = [], []
            for k in range(n_frames):
                t = 0.1 * k
                gts = [obj(int(i), *rng.uniform(0, 12, size=2), t=t)
                       for i in rng.choice(5, size=rng.integers(0, 6), replace=False)]
                hyps = [obj(int(100 + i), *rng.uniform(0, 12, size=2), t=t)
                        for i in rng.choice(5, size=rng.integers(0, 6), replace=False)]
                gt_frames.append(gts)
                hyp_frames.append(hyps)
            mine = clearmot(gt_frames, hyp_frames, 3.0)
            fp, fn, ids, num_gt, dist_sum, n_match, _ = brute_force_clearmot(
                gt_frames, hyp_frames, 3.0
            )
            assert (mine.fp, mine.fn, mine.ids, mine.num_gt) == (fp, fn, ids, num_gt)
            if n_match:
                assert mine.motp_m == pytest.approx(dist_sum / n_match, abs=1e-12)


def random_sequence(seed):
    """One to six frames of up to four ground-truth objects (unique ids 0-3)
    and four hypotheses (100-103), uniform in a 6 m square, so that exact
    distance ties have probability zero."""
    rng = np.random.default_rng(seed)

    def frame(first_id):
        ids = rng.choice(4, size=rng.integers(0, 5), replace=False) + first_id
        return [obj(int(i), *rng.uniform(0, 6, size=2)) for i in ids]

    frames = [(frame(0), frame(100)) for _ in range(rng.integers(1, 7))]
    return [g for g, _ in frames], [h for _, h in frames]


def lattice_frames(ids):
    """Up to four objects with unique ids from ``ids``, centred on a 4 x 3
    lattice, so that tied costs and distances exactly at the gate occur."""
    spot = st.tuples(st.integers(0, 3), st.integers(0, 2))
    return st.dictionaries(st.sampled_from(ids), spot, max_size=4).map(
        lambda found: [obj(i, float(x), float(y)) for i, (x, y) in found.items()])


def check_events_account_for_every_row(events, gt_frames, hyp_frames):
    """Each gt row is one match or one miss, each hyp row one match or one
    false positive, and each switch is also a match."""
    assert len(events) == len(gt_frames)
    for frame, gts, hyps in zip(events, gt_frames, hyp_frames):
        assert sorted([g for g, _, _ in frame.matches] + frame.misses) == \
            sorted(o.track_id for o in gts)
        assert sorted([h for _, h, _ in frame.matches] + frame.false_positives) == \
            sorted(o.track_id for o in hyps)
        assert {(g, new) for g, _, new in frame.switches} <= \
            {(g, h) for g, h, _ in frame.matches}


@given(st.integers(0, 2**32 - 1), st.floats(0.5, 4.0))
def test_events_match_the_oracle_and_reduce_to_the_scores(seed, gate):
    gt_frames, hyp_frames = random_sequence(seed)
    events = clearmot_events(clearmot_frames(gt_frames), clearmot_frames(hyp_frames), gate)
    *_, oracle = brute_force_clearmot(gt_frames, hyp_frames, gate)
    assert len(events) == len(oracle)
    for frame, (matches, misses, fps, switches) in zip(events, oracle):
        assert [(g, h) for g, h, _ in frame.matches] == [(g, h) for g, h, _ in matches]
        assert [d for *_, d in frame.matches] == pytest.approx([d for *_, d in matches],
                                                               abs=1e-12)
        assert (frame.misses, frame.false_positives, frame.switches) == (misses, fps, switches)
    check_events_account_for_every_row(events, gt_frames, hyp_frames)
    assert repr(clearmot_result(events)) == repr(clearmot(gt_frames, hyp_frames, gate))


@given(st.lists(st.tuples(lattice_frames(range(4)), lattice_frames(range(100, 104))),
                min_size=1, max_size=6),
       st.sampled_from([math.sqrt(k) for k in range(1, 14)]))  # every lattice distance
def test_events_on_a_lattice_account_for_every_row(sequence, gate):
    """Ties and distances exactly at the gate. The matcher and the oracle may
    break a tie differently, so only the events' own invariants are checked."""
    gt_frames, hyp_frames = [g for g, _ in sequence], [h for _, h in sequence]
    events = clearmot_events(clearmot_frames(gt_frames), clearmot_frames(hyp_frames), gate)
    check_events_account_for_every_row(events, gt_frames, hyp_frames)
    assert repr(clearmot_result(events)) == repr(clearmot(gt_frames, hyp_frames, gate))


@given(st.lists(st.tuples(lattice_frames(range(4)), lattice_frames(range(100, 104))),
                min_size=1, max_size=6),
       st.sampled_from([math.sqrt(k) for k in range(1, 14)]),
       st.integers(0, 5), st.booleans(), st.integers(0, 4))
def test_a_row_no_gated_pair_reaches_changes_no_other_event(sequence, gate, frame, gt_side,
                                                            position):
    """A ground truth or a hypothesis 100 m from the lattice, inserted at any
    row of any frame, is that frame's miss or false positive and nothing else:
    ties included, every other event stays as it was."""
    gt_frames, hyp_frames = [list(g) for g, _ in sequence], [list(h) for _, h in sequence]
    before = clearmot_events(clearmot_frames(gt_frames), clearmot_frames(hyp_frames), gate)
    k = frame % len(sequence)
    rows, new_id = (gt_frames[k], 50) if gt_side else (hyp_frames[k], 150)
    rows.insert(position % (len(rows) + 1), obj(new_id, 100.0))
    after = clearmot_events(clearmot_frames(gt_frames), clearmot_frames(hyp_frames), gate)
    side = after[k].misses if gt_side else after[k].false_positives
    assert new_id in side
    side.remove(new_id)
    assert after == before


def fake_msg(t, payload, raw):
    return ChannelMessage(kind=MessageKind.FEATURE, payload_bytes=payload, t_send=t,
                          t_arrive=t, content=None, raw_bytes=raw)


class TestAggregateRun:
    def test_mot_result_fields_are_a_run_of_the_report_fields(self):
        scores = [f.name for f in fields(MotResult)]
        assert scores == ["mota", "motp_m", "ids", "fp", "fn", "num_gt"]
        columns = RunReport.csv_columns()
        start = columns.index(scores[0])
        assert columns[start:start + len(scores)] == scores

    def test_empty_channel_zero_bps(self):
        mot = MotResult(mota=1.0, motp_m=0.0, ids=0, fp=0, fn=0, num_gt=10)
        report = aggregate_run(mot, Channel(latency=LatencyModel()), 15.0, "vehicle_only", 0.0, 1,
                               fallback_frames=0, match_gate_m=2.0, num_frames=0)
        assert report.bps_pre == 0.0 and report.bps_post == 0.0

    def test_bps_arithmetic(self):
        ch = Channel(latency=LatencyModel())
        ch.messages = [fake_msg(0.1 * k, 330, 330) for k in range(150)]
        mot = MotResult(mota=0.5, motp_m=0.3, ids=1, fp=2, fn=3, num_gt=10)
        report = aggregate_run(mot, ch, 15.0, "late", 200.0, 7,
                               fallback_frames=0, match_gate_m=2.0, num_frames=0)
        assert report.bps_post == pytest.approx(3300.0)
        assert report.bps_pre == pytest.approx(3300.0)

    def test_json_roundtrip_lossless(self):
        mot = MotResult(mota=0.8341, motp_m=0.318281828, ids=2, fp=5, fn=10, num_gt=100)
        report = aggregate_run(mot, Channel(latency=LatencyModel()), 15.0, "middle_flow", 200.0, 3,
                               fallback_frames=2, match_gate_m=2.0, num_frames=151)
        again = RunReport(**json.loads(json.dumps(report.to_json_dict())))
        assert again == report
        # emit_report writes the dict's values under csv_columns, also after
        # replace or pickling.
        for r in (report, replace(report, latency_ms=0.0), pickle.loads(pickle.dumps(report))):
            assert list(r.to_json_dict()) == RunReport.csv_columns()

    def test_csv_row_four_decimals(self, tmp_path):
        mot = MotResult(mota=0.83415, motp_m=0.3, ids=0, fp=0, fn=0, num_gt=10)
        report = aggregate_run(mot, Channel(latency=LatencyModel()), 15.0, "early", 100.0, 1,
                               fallback_frames=0, match_gate_m=2.0, num_frames=0)
        header, line = emit_report([report], "csv", tmp_path).read_text().splitlines()
        assert header.split(",") == RunReport.csv_columns()
        row = dict(zip(RunReport.csv_columns(), line.split(",")))
        assert row["mota"] == "0.8341" or row["mota"] == "0.8342"
        assert row["seed"] == "1"
        assert row["fusion"] == "early"
