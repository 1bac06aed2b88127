import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from cotrack.channel import Channel, ChannelMessage, LatencyModel, MessageKind
from cotrack.errors import AlignmentError, ConfigurationError
from cotrack.experiment import emit_report
from cotrack.metrics import (
    MotResult,
    RunReport,
    aggregate_run,
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
        assert result.motp == 0.0
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
        assert result.motp == pytest.approx(0.5)

    def test_persistent_correspondence_resists_closer_newcomer(self):
        # Ground truth stays matched to its old hypothesis while in gate,
        # even when a new hypothesis appears closer.
        gt_frames = [[obj(1, 0.0, t=0.0)], [obj(1, 0.0, t=0.1)]]
        hyp_frames = [
            [obj(7, 0.5, t=0.0)],
            [obj(7, 0.6, t=0.1), obj(8, 0.1, t=0.1)],
        ]
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.ids == 0
        assert result.fp == 1  # the newcomer is unmatched

    def test_switch_across_gap_counted(self):
        gt_frames = [[obj(1, 0.0, t=0.0)], [], [obj(1, 0.0, t=0.2)]]
        hyp_frames = [[obj(7, 0.0, t=0.0)], [], [obj(8, 0.0, t=0.2)]]
        result = clearmot(gt_frames, hyp_frames, 2.0)
        assert result.ids == 1

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
        assert (base.mota, base.motp, base.ids, base.fp, base.fn) == \
               (again.mota, again.motp, again.ids, again.fp, again.fn)

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
            fp, fn, ids, num_gt, dist_sum, n_match = brute_force_clearmot(
                gt_frames, hyp_frames, 3.0
            )
            assert (mine.fp, mine.fn, mine.ids, mine.num_gt) == (fp, fn, ids, num_gt)
            if n_match:
                assert mine.motp == pytest.approx(dist_sum / n_match, abs=1e-12)


def fake_msg(t, payload, raw):
    return ChannelMessage(kind=MessageKind.FEATURE, payload_bytes=payload, t_send=t,
                          t_arrive=t, content=None, raw_bytes=raw)


class TestAggregateRun:
    def test_empty_channel_zero_bps(self):
        mot = MotResult(mota=1.0, motp=0.0, ids=0, fp=0, fn=0, num_gt=10)
        report = aggregate_run(mot, None, 15.0, "vehicle_only", 0.0, 1)
        assert report.bps_pre == 0.0 and report.bps_post == 0.0

    def test_bps_arithmetic(self):
        ch = Channel(latency=LatencyModel())
        ch.messages = [fake_msg(0.1 * k, 330, 330) for k in range(150)]
        mot = MotResult(mota=0.5, motp=0.3, ids=1, fp=2, fn=3, num_gt=10)
        report = aggregate_run(mot, ch, 15.0, "late", 200.0, 7)
        assert report.bps_post == pytest.approx(3300.0)
        assert report.bps_pre == pytest.approx(3300.0)

    def test_json_roundtrip_lossless(self):
        mot = MotResult(mota=0.8341, motp=0.318281828, ids=2, fp=5, fn=10, num_gt=100)
        report = aggregate_run(mot, None, 15.0, "middle_flow", 200.0, 3,
                               fallback_frames=2, match_gate_m=2.0, num_frames=151)
        again = RunReport(**json.loads(json.dumps(report.to_json_dict())))
        assert again == report
        # emit_report writes the dict's values under csv_columns, also after
        # replace or pickling.
        for r in (report, replace(report, latency_ms=0.0), pickle.loads(pickle.dumps(report))):
            assert list(r.to_json_dict()) == RunReport.csv_columns()

    def test_csv_row_four_decimals(self, tmp_path):
        mot = MotResult(mota=0.83415, motp=0.3, ids=0, fp=0, fn=0, num_gt=10)
        report = aggregate_run(mot, None, 15.0, "early", 100.0, 1)
        header, line = emit_report([report], "csv", tmp_path).read_text().splitlines()
        assert header.split(",") == RunReport.csv_columns()
        row = dict(zip(RunReport.csv_columns(), line.split(",")))
        assert row["mota"] == "0.8341" or row["mota"] == "0.8342"
        assert row["seed"] == "1"
        assert row["fusion"] == "early"
