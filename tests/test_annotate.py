import math

import numpy as np
import pytest

from cotrack.annotate import (
    CandidateMatch,
    Trajectory,
    build_cooperative_trajectories,
    filter_matches,
    fragment,
    read_tracked_objects,
    read_trajectories,
    score_interest,
    trajectory_similarity,
    write_trajectories,
)
from cotrack.cli import main as cli_main
from cotrack.errors import (
    ConfigurationError,
    DecodeError,
    OrderingError,
    UndefinedSimilarityError,
)
from cotrack.geometry import Box3D
from cotrack.scenario import Provenance, ScenarioConfig, TrackedObject, generate_scenario
from cotrack.sensing import View


def box(x, y=0.0, z=0.75, yaw=0.0):
    return Box3D(x=x, y=y, z=z, w=1.8, l=4.5, h=1.5, yaw=yaw)


def tobj(track_id, x, y=0.0, t=0.0, prov=Provenance.VEHICLE_SIDE):
    return TrackedObject(box=box(x, y), track_id=track_id, timestamp=t, provenance=prov)


def traj(track_id, positions, t0=0.0, dt=0.1, prov=Provenance.VEHICLE_SIDE, yaws=None):
    samples = []
    for k, p in enumerate(positions):
        x, y = p if isinstance(p, tuple) else (p, 0.0)
        yaw = yaws[k] if yaws is not None else 0.0
        samples.append((t0 + k * dt, box(x, y, yaw=yaw)))
    return Trajectory(track_id=track_id, samples=tuple(samples), provenance=prov)


class TestTrajectorySimilarity:
    def test_identical_is_one(self):
        a = traj(1, [0.0, 1.0, 2.0])
        b = traj(2, [0.0, 1.0, 2.0], prov=Provenance.INFRA_SIDE)
        assert trajectory_similarity(a, b) == pytest.approx(1.0)

    def test_constant_two_meter_offset(self):
        a = traj(1, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        b = traj(2, [(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)])
        assert trajectory_similarity(a, b) == pytest.approx(math.exp(-1.0))

    def test_diverging_approaches_zero(self):
        a = traj(1, [(k * 1.0, 0.0) for k in range(20)])
        b = traj(2, [(k * 1.0, k * 30.0) for k in range(20)])
        assert trajectory_similarity(a, b) < 1e-3

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = traj(1, [tuple(p) for p in rng.uniform(0, 10, (6, 2))])
        b = traj(2, [tuple(p) for p in rng.uniform(0, 10, (6, 2))])
        assert trajectory_similarity(a, b) == pytest.approx(trajectory_similarity(b, a))

    def test_insufficient_overlap_rejected(self):
        a = traj(1, [0.0, 1.0], t0=0.0)
        b = traj(2, [5.0, 6.0], t0=5.0)
        with pytest.raises(UndefinedSimilarityError):
            trajectory_similarity(a, b)


class TestFilterMatches:
    def test_threshold_rule(self):
        ms = [CandidateMatch(1, 2, 1.0), CandidateMatch(3, 4, 0.4), CandidateMatch(5, 6, 0.9)]
        assert filter_matches(ms, 0.5) == [ms[0], ms[2]]
        assert filter_matches(ms, 0.0) == ms
        assert filter_matches([CandidateMatch(1, 2, 0.0)], 0.5) == []


class TestFragment:
    def test_fifteen_second_sequence(self):
        trajs = [traj(1, [float(k) for k in range(151)], dt=0.1)]
        segments = fragment(trajs, window_s=10.0, overlap_s=5.0)
        assert [s.start_s for s in segments] == [0.0, 5.0, 10.0]
        assert [s.full for s in segments] == [True, True, False]

    def test_ten_second_sequence_one_full_segment(self):
        trajs = [traj(1, [float(k) for k in range(101)], dt=0.1)]
        segments = fragment(trajs, window_s=10.0, overlap_s=5.0)
        assert sum(1 for s in segments if s.full) == 1

    def test_empty_input(self):
        assert fragment([], 10.0, 5.0) == []

    def test_every_timestamp_covered_and_overlap_exact(self):
        trajs = [traj(1, [float(k) for k in range(173)], dt=0.1)]
        segments = fragment(trajs, window_s=10.0, overlap_s=5.0)
        covered = set()
        for seg in segments:
            for tr in seg.trajectories:
                covered.update(round(t, 6) for t in tr.times())
        assert covered == {round(0.1 * k, 6) for k in range(173)}
        full = [s for s in segments if s.full]
        for a, b in zip(full, full[1:]):
            assert a.end_s - b.start_s == pytest.approx(5.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            fragment([], window_s=5.0, overlap_s=5.0)

    def test_cli_exits_2_on_a_window_not_longer_than_the_overlap(self, tmp_path, capsys):
        path = tmp_path / "tracks.jsonl"
        write_trajectories(path, [traj(1, [0.0, 1.0, 2.0])])
        code = cli_main(["annotate", "--in", str(path), "--out", str(tmp_path / "o"),
                         "--window-s", "5", "--overlap-s", "5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: fragment requires window_s > overlap_s")


class TestScoreInterest:
    def test_stationary_full_presence(self):
        trajs = traj(1, [5.0] * 101)
        assert score_interest(trajs, window_s=10.0) == pytest.approx(1.0)

    def test_quarter_turn_full_presence(self):
        # Constant speed around a quarter arc: turning pi/2, completion 1.
        n = 101
        yaws = [k * (math.pi / 2) / (n - 1) for k in range(n)]
        radius = 20.0
        positions = [(radius * math.sin(y), radius * (1 - math.cos(y))) for y in yaws]
        t = traj(1, positions, yaws=yaws)
        assert score_interest(t, window_s=10.0) == pytest.approx(math.pi / 2 + 1.0, abs=1e-6)

    def test_half_present_straight_mover(self):
        # Present for 50 of the window's 100 frames, constant speed.
        t = traj(1, [(0.5 * k, 0.0) for k in range(50)])
        assert score_interest(t, window_s=10.0) == pytest.approx(0.5, abs=1e-9)

    def test_speed_change_term(self):
        # 2 m/s for one second, then 6 m/s: max speed change over 1 s is 4.
        positions = [0.0]
        for k in range(10):
            positions.append(positions[-1] + 0.2)
        for k in range(10):
            positions.append(positions[-1] + 0.6)
        t = traj(1, positions)
        score = score_interest(t, window_s=2.0)
        assert score == pytest.approx(4.0 + 1.0, abs=1e-6)

    def test_too_few_samples_rejected(self):
        with pytest.raises(UndefinedSimilarityError):
            score_interest(traj(1, [0.0, 1.0]))


class TestCooperativePipeline:
    def _views_from_scenario(self, sigma):
        # Build per-side trajectories from simulator ground truth, with
        # independent position noise imitating annotation error.
        from cotrack.scenario import ground_truth_at

        cfg = ScenarioConfig(duration_s=3.0)
        scn = generate_scenario(cfg, 11)
        rng = np.random.default_rng(99)
        sides = {Provenance.VEHICLE_SIDE: {}, Provenance.INFRA_SIDE: {}}
        for view, prov in ((View.VEHICLE, Provenance.VEHICLE_SIDE),
                           (View.INFRA, Provenance.INFRA_SIDE)):
            for t in scn.frame_times():
                for o in ground_truth_at(scn, t, view):
                    noisy = Box3D(
                        x=o.box.x + rng.normal(0, sigma), y=o.box.y + rng.normal(0, sigma),
                        z=o.box.z, w=o.box.w, l=o.box.l, h=o.box.h, yaw=o.box.yaw,
                    )
                    sides[prov].setdefault(o.track_id, []).append((t, noisy))
        out = {}
        for prov, tracks in sides.items():
            out[prov] = [
                Trajectory(track_id=tid, samples=tuple(samples), provenance=prov)
                for tid, samples in sorted(tracks.items())
                if len(samples) >= 2
            ]
        return out

    def test_recovers_true_cross_view_pairing(self):
        sides = self._views_from_scenario(sigma=0.2)
        coop, _ = build_cooperative_trajectories(
            sides[Provenance.VEHICLE_SIDE], sides[Provenance.INFRA_SIDE],
            match_threshold_m=2.0, similarity_threshold=0.5,
        )
        fused = [tr for tr in coop if tr.provenance is Provenance.FUSED]
        assert fused, "expected at least one fused trajectory"
        for tr in fused:
            v_id, i_id = tr.source_ids
            assert v_id == i_id  # simulator shares agent ids across views

    @pytest.mark.parametrize("shift_s", [0.0, 1e-7, 1.23456789e-3])
    def test_identical_views_pair_whatever_the_time_offset(self, shift_s):
        # Both sides carry the same samples; frames pair by time to the
        # microsecond, so an offset shared by both sides changes nothing.
        v = [traj(1, [0.0, 1.0, 2.0], t0=shift_s)]
        i = [traj(9, [0.0, 1.0, 2.0], t0=shift_s, prov=Provenance.INFRA_SIDE)]
        coop, candidates = build_cooperative_trajectories(v, i, 2.0, 0.5)
        assert candidates == [CandidateMatch(vehicle_id=1, infra_id=9, similarity=1.0)]
        assert [(tr.provenance, tr.source_ids) for tr in coop] == [(Provenance.FUSED, (1, 9))]

    def test_unmatched_sides_pass_through(self):
        v = [traj(1, [0.0, 1.0, 2.0])]
        i = [traj(9, [(0.0, 80.0), (1.0, 80.0), (2.0, 80.0)], prov=Provenance.INFRA_SIDE)]
        coop, candidates = build_cooperative_trajectories(v, i, 2.0, 0.5)
        assert candidates == []
        assert sorted(tr.provenance.value for tr in coop) == ["infra", "vehicle"]
        assert {tr.source_ids for tr in coop} == {(1, None), (None, 9)}


class TestTrajectoryIO:
    def test_roundtrip(self, tmp_path):
        trajs = [
            traj(1, [0.0, 1.0, 2.0]),
            traj(2, [(5.0, 1.0), (6.0, 1.5)], prov=Provenance.INFRA_SIDE),
        ]
        path = tmp_path / "tracks.jsonl"
        write_trajectories(path, trajs)
        back = read_trajectories(path)
        assert len(back) == 2
        by_id = {tr.track_id: tr for tr in back}
        assert by_id[1].provenance is Provenance.VEHICLE_SIDE
        assert by_id[2].samples[1][1].x == pytest.approx(6.0)
        assert [t for t, _ in by_id[1].samples] == [0.0, 0.1, 0.2]


GOOD_LINE = ('{"t": 0.1, "track_id": 3, "box": {"x": 1.0, "y": 2.0, "z": 0.75, "w": 1.8, '
             '"l": 4.5, "h": 1.5, "yaw": 0.0, "category": "car"}, "score": 0.9, '
             '"provenance": "vehicle", "source_ids": [3, null]}')

MALFORMED_LINES = {
    "bad_json": '{"t": 0.2, "track_id": 3,',
    "not_an_object": "[1, 2, 3]",
    "missing_t": GOOD_LINE.replace('"t": 0.1, ', ""),
    "missing_box_field": GOOD_LINE.replace('"x": 1.0, ', ""),
    "missing_track_id": GOOD_LINE.replace('"track_id": 3, ', ""),
    "non_numeric_t": GOOD_LINE.replace('"t": 0.1', '"t": "soon"'),
    "non_numeric_box_field": GOOD_LINE.replace('"w": 1.8', '"w": "wide"'),
    "non_numeric_score": GOOD_LINE.replace('"score": 0.9', '"score": null'),
    "non_integer_track_id": GOOD_LINE.replace('"track_id": 3', '"track_id": "three"'),
    "non_finite_t": GOOD_LINE.replace('"t": 0.1', '"t": NaN'),
    "huge_integer_t": GOOD_LINE.replace('"t": 0.1', '"t": 1' + "0" * 400),
    "unknown_category": GOOD_LINE.replace('"car"', '"tank"'),
    "unknown_provenance": GOOD_LINE.replace('"vehicle"', '"satellite"'),
    "bad_source_ids": GOOD_LINE.replace("[3, null]", '[3, "x"]'),
    "zero_dims": GOOD_LINE.replace('"h": 1.5', '"h": 0.0'),
    "negative_dims": GOOD_LINE.replace('"l": 4.5', '"l": -4.5'),
}


class TestMalformedTrackFiles:
    """Every bad line fails with a DecodeError naming the file and the line."""

    def write(self, tmp_path, bad_line):
        path = tmp_path / "tracks.jsonl"
        path.write_text(GOOD_LINE + "\n\n" + bad_line + "\n", encoding="utf-8")
        return path

    def test_the_good_line_reads(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text(GOOD_LINE + "\n", encoding="utf-8")
        (obj,) = read_tracked_objects(path)[0.1]
        assert (obj.track_id, obj.score, obj.provenance) == (3, 0.9, Provenance.VEHICLE_SIDE)
        (tr,) = read_trajectories(path)
        assert tr.source_ids == (3, None)

    @pytest.mark.parametrize("reader", [read_tracked_objects, read_trajectories])
    @pytest.mark.parametrize("bad_line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
    def test_reader_raises_decode_error(self, tmp_path, reader, bad_line):
        path = self.write(tmp_path, bad_line)
        with pytest.raises(DecodeError, match="tracks.jsonl, line 3: "):
            reader(path)

    @pytest.mark.parametrize("bad_line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
    def test_cli_exits_2_with_an_error_line(self, tmp_path, capsys, bad_line):
        path = self.write(tmp_path, bad_line)
        assert cli_main(["eval", "--gt", str(path), "--hyp", str(path)]) == 2
        assert cli_main(["annotate", "--in", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error: ") and "line 3" in e for e in err)

    def test_a_repeated_time_in_one_trajectory_is_an_ordering_error(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text(GOOD_LINE + "\n" + GOOD_LINE + "\n", encoding="utf-8")
        with pytest.raises(OrderingError, match="trajectory 3"):
            read_trajectories(path)
