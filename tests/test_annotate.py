import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cotrack.annotate import (
    MAX_SEGMENTS,
    CandidateMatch,
    Trajectory,
    build_cooperative_trajectories,
    filter_matches,
    fragment,
    frame_rate_hz,
    read_tracks,
    read_trajectories,
    score_interest,
    trajectory_similarity,
    write_tracks,
    write_trajectories,
)
from cotrack.cli import main as cli_main
from cotrack.errors import (
    ConfigurationError,
    DecodeError,
    OrderingError,
    UndefinedSimilarityError,
)
from cotrack.geometry import CATEGORY_ORDER, Boxes, wrap_angle
from cotrack.scenario import Provenance, ScenarioConfig, generate_scenario
from cotrack.sensing import View
from oracle_utils import Box3D, rows_of, scan_fragment, trajectory_of


def box(x, y=0.0, z=0.75, yaw=0.0):
    return Box3D(x=x, y=y, z=z, w=1.8, l=4.5, h=1.5, yaw=yaw)


def traj(track_id, positions, t0=0.0, dt=0.1, prov=Provenance.VEHICLE_SIDE, yaws=None):
    samples = []
    for k, p in enumerate(positions):
        x, y = p if isinstance(p, tuple) else (p, 0.0)
        yaw = yaws[k] if yaws is not None else 0.0
        samples.append((t0 + k * dt, box(x, y, yaw=yaw)))
    return trajectory_of(track_id, samples, prov)


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
                covered.update(round(t, 6) for t in tr.times)
        assert covered == {round(0.1 * k, 6) for k in range(173)}
        full = [s for s in segments if s.full]
        for a, b in zip(full, full[1:]):
            assert a.end_s - b.start_s == pytest.approx(5.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            fragment([], window_s=5.0, overlap_s=5.0)

    @pytest.mark.parametrize("window_s, overlap_s", [
        (math.nan, 5.0), (math.inf, 5.0), (10.0, math.nan), (math.inf, math.inf),
        (10.0, -math.inf), (10.0, -1.0),
    ])
    def test_non_finite_or_negative_window_rejected(self, window_s, overlap_s):
        # A NaN overlap cut one window and dropped the rest of the file.
        with pytest.raises(ConfigurationError, match="both finite"):
            fragment([traj(1, [float(k) for k in range(119)])], window_s, overlap_s)

    def test_segment_count_capped(self):
        # A span of MAX_SEGMENTS strides cuts into MAX_SEGMENTS segments; one
        # more stride is rejected before any is cut.
        at_cap = [traj(1, [0.0, 1.0], dt=float(MAX_SEGMENTS))]
        assert len(fragment(at_cap, window_s=1.0, overlap_s=0.0)) == MAX_SEGMENTS
        past_cap = [traj(1, [0.0, 1.0], dt=float(MAX_SEGMENTS + 1))]
        with pytest.raises(ConfigurationError, match="more than 100,000 segments"):
            fragment(past_cap, window_s=1.0, overlap_s=0.0)

    @settings(max_examples=150)
    @given(st.data())
    def test_bisection_cuts_the_segments_the_scan_cuts(self, data):
        """Times on a coarse grid put samples on window edges, which both
        closed ends of a window keep."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        steps = data.draw(st.sampled_from([(0.1, 0.5), (0.25, 1.0), None]))
        trajs = []
        for track_id in range(data.draw(st.integers(0, 4))):
            n = data.draw(st.integers(1, 40))
            gaps = rng.choice(steps, n) if steps else rng.uniform(1e-3, 1.0, n)
            t0 = float(rng.choice([0.0, 0.5, 3.0]) if steps else rng.uniform(-5.0, 5.0))
            times = tuple((t0 + np.cumsum(gaps) - gaps[0]).tolist())
            assume(all(b > a for a, b in zip(times, times[1:])))
            boxes = Boxes(rng.uniform(0.5, 5.0, (n, 7)), rng.integers(0, 3, n).astype(np.uint8),
                          rng.random(n))
            trajs.append(Trajectory(track_id, times, boxes, Provenance.INFRA_SIDE, (track_id, None)))
        window = data.draw(st.sampled_from([0.5, 1.0, 2.5, 10.0]) | st.floats(0.2, 12.0))
        overlap = data.draw(st.sampled_from([0.0, 0.5 * window, 0.25])
                            | st.floats(0.0, 0.9 * window))
        assume(overlap < window)
        got, want = fragment(trajs, window, overlap), scan_fragment(trajs, window, overlap)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.index, g.start_s, g.end_s, g.full) == (w.index, w.start_s, w.end_s, w.full)
            assert len(g.trajectories) == len(w.trajectories)
            for a, b in zip(g.trajectories, w.trajectories):
                assert (a.track_id, a.times, a.provenance, a.source_ids) == (
                    b.track_id, b.times, b.provenance, b.source_ids)
                for field in ("values", "category", "score"):
                    x, y = getattr(a.boxes, field), getattr(b.boxes, field)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

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

    @pytest.mark.parametrize("window_s, message", [
        (math.nan, "must be finite"), (math.inf, "must be finite"), (1e308, "must be finite"),
        (0.05, "must be at least 1 frame"),
    ])
    def test_window_of_no_frame_or_of_infinitely_many_rejected(self, window_s, message):
        # NaN and infinite windows raised ValueError and OverflowError while
        # counting the window's frames.
        with pytest.raises(ConfigurationError, match=message):
            score_interest(traj(1, [0.0, 1.0, 2.0]), window_s, 10)

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
                ids, boxes = ground_truth_at(scn, t, view)
                for track_id, b in zip(ids.tolist(), rows_of(boxes)):
                    noisy = Box3D(
                        x=b.x + rng.normal(0, sigma), y=b.y + rng.normal(0, sigma),
                        z=b.z, w=b.w, l=b.l, h=b.h, yaw=b.yaw,
                    )
                    sides[prov].setdefault(track_id, []).append((t, noisy))
        out = {}
        for prov, tracks in sides.items():
            out[prov] = [
                trajectory_of(tid, samples, prov) for tid, samples in sorted(tracks.items())
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

    @pytest.mark.parametrize("thresholds, message", [
        ((math.nan, 0.5), "match threshold"), ((math.inf, 0.5), "match threshold"),
        ((-math.inf, 0.5), "match threshold"), ((-2.0, 0.5), "match threshold"),
        ((2.0, math.nan), "similarity threshold"), ((2.0, -0.1), "similarity threshold"),
        ((2.0, 1.5), "similarity threshold"), ((2.0, math.inf), "similarity threshold"),
    ])
    def test_thresholds_out_of_range_rejected(self, thresholds, message):
        # A NaN threshold of either kind paired nothing, silently.
        vehicle = [traj(1, [float(k) for k in range(20)])]
        infra = [traj(2, [k + 0.3 for k in range(20)], prov=Provenance.INFRA_SIDE)]
        with pytest.raises(ConfigurationError, match=message):
            build_cooperative_trajectories(vehicle, infra, *thresholds)

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


class TestTrajectory:
    def test_one_time_per_box(self):
        with pytest.raises(ConfigurationError, match="one time per box"):
            Trajectory(1, (0.0, 0.1), traj(1, [0.0]).boxes)

    def test_times_strictly_increase(self):
        with pytest.raises(OrderingError, match="trajectory 1"):
            Trajectory(1, (0.1, 0.1), traj(1, [0.0, 1.0]).boxes)


class TestFrameRate:
    @pytest.mark.parametrize("dt, hz", [(0.1, 10), (0.01, 100), (3.0, 1), (1e-310, 10**6)])
    def test_one_over_the_median_gap_to_whole_hz(self, dt, hz):
        # Under 1 Hz counts as 1 Hz; a gap under a microsecond as one (no overflow).
        assert frame_rate_hz([traj(1, [0.0] * 20, dt=dt), traj(2, [0.0] * 3, dt=2 * dt)]) == hz

    def test_ten_hz_without_a_gap(self):
        assert frame_rate_hz([traj(1, [0.0]), traj(2, [1.0])]) == 10


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
        assert by_id[2].boxes.values[1, 0] == pytest.approx(6.0)
        assert by_id[1].times == (0.0, 0.1, 0.2)


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
    "huge_track_id": GOOD_LINE.replace('"track_id": 3', '"track_id": ' + str(2**63)),
    "score_out_of_range": GOOD_LINE.replace('"score": 0.9', '"score": 1.5'),
    "zero_dims": GOOD_LINE.replace('"h": 1.5', '"h": 0.0'),
    "negative_dims": GOOD_LINE.replace('"l": 4.5', '"l": -4.5'),
    "zero_width": GOOD_LINE.replace('"w": 1.8', '"w": 0.0'),
    "non_finite_x": GOOD_LINE.replace('"x": 1.0', '"x": NaN'),
    "non_finite_y": GOOD_LINE.replace('"y": 2.0', '"y": Infinity'),
    "non_finite_z": GOOD_LINE.replace('"z": 0.75', '"z": -Infinity'),
    "non_finite_w": GOOD_LINE.replace('"w": 1.8', '"w": Infinity'),
    "non_finite_l": GOOD_LINE.replace('"l": 4.5', '"l": NaN'),
    "non_finite_h": GOOD_LINE.replace('"h": 1.5', '"h": -Infinity'),
    "non_finite_yaw": GOOD_LINE.replace('"yaw": 0.0', '"yaw": Infinity'),
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
        ids, boxes = read_tracks(path)[0.1]
        assert (ids.tolist(), boxes.score.tolist()) == ([3], [0.9])
        assert boxes.values.tolist() == [[1.0, 2.0, 0.75, 1.8, 4.5, 1.5, 0.0]]
        (tr,) = read_trajectories(path)
        assert (tr.provenance, tr.source_ids) == (Provenance.VEHICLE_SIDE, (3, None))

    @pytest.mark.parametrize("reader", [read_tracks, read_trajectories])
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


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
track_rows = st.tuples(st.integers(-2**63, 2**63 - 1),
                       st.tuples(finite, finite, finite, positive, positive, positive, finite),
                       st.integers(0, len(CATEGORY_ORDER) - 1), st.floats(0.0, 1.0),
                       st.sampled_from(list(Provenance)))


class TestTrackFiles:
    """``write_tracks`` and ``read_tracks``: ``(ids, Boxes)`` frames as JSON lines."""

    def test_one_line_per_row(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        boxes = Boxes(np.array([[1.0, 2.0, 0.75, 1.8, 4.5, 1.5, 0.0]]),
                      np.zeros(1, dtype=np.uint8), np.array([0.9]))
        write_tracks(path, [0.1], [(np.array([3]), boxes)], [[Provenance.VEHICLE_SIDE]])
        assert path.read_text() == GOOD_LINE.replace(', "source_ids": [3, null]', "") + "\n"

    @settings(max_examples=100)
    @given(st.data())
    def test_write_then_read_gives_every_field_back(self, data):
        """Ids, centres, dims, categories and scores bit for bit, by time to
        the microsecond; each yaw comes back wrapped into (-pi, pi]."""
        rows = data.draw(st.lists(st.lists(track_rows, max_size=4), min_size=1, max_size=5))
        times = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(rows), max_size=len(rows),
                                   unique_by=lambda t: round(t, 6)))
        frames = [(np.array([r[0] for r in frame], dtype=int),
                   Boxes(np.array([r[1] for r in frame]).reshape(-1, 7),
                         np.array([r[2] for r in frame], dtype=np.uint8),
                         np.array([r[3] for r in frame], dtype=float))) for frame in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tracks.jsonl"
            write_tracks(path, times, frames, [[r[4] for r in frame] for frame in rows])
            back = read_tracks(path)
        kept = [(round(t, 6), frame) for t, frame in zip(times, frames) if len(frame[0])]
        assert list(back) == [t for t, _ in kept]
        for (ids, boxes), (_, (want_ids, want)) in zip(back.values(), kept):
            assert ids.tolist() == want_ids.tolist()
            assert bits(boxes.values[:, :6]) == bits(want.values[:, :6])
            assert bits(boxes.values[:, 6]) == bits(wrap_angle(want.values[:, 6]))
            assert ((-math.pi < boxes.values[:, 6]) & (boxes.values[:, 6] <= math.pi)).all()
            assert boxes.category.tolist() == want.category.tolist()
            assert bits(boxes.score) == bits(want.score)
