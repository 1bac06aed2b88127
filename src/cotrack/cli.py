"""Command-line entry points: run sweeps, mine trajectories, score track files."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .annotate import (
    Provenance,
    build_cooperative_trajectories,
    check_window,
    fragment,
    frame_rate_hz,
    read_tracks,
    read_trajectories,
    score_interest,
    write_trajectories,
)
from .errors import CotrackError
from .experiment import load_experiment_config, run_sweep, write_csv, write_sweep_outputs
from .geometry import Boxes
from .metrics import evaluate_clearmot


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    reports, failures = run_sweep(cfg, workers=args.workers)
    paths = write_sweep_outputs(reports, failures, Path(args.out), fmt=args.format)
    if reports:
        print(f"{len(reports)} runs completed, {len(failures)} failed; wrote {paths['runs']}")
    else:
        print("no runs completed", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure.fusion} latency={failure.latency_ms} seed={failure.seed}: "
              f"{failure.error}", file=sys.stderr)
    return 0 if reports and not failures else 1


def _cmd_annotate(args) -> int:
    trajectories = read_trajectories(args.in_path)
    vehicle = [t for t in trajectories if t.provenance is Provenance.VEHICLE_SIDE]
    infra = [t for t in trajectories if t.provenance is Provenance.INFRA_SIDE]
    coop, candidates = build_cooperative_trajectories(
        vehicle, infra,
        match_threshold_m=args.match_threshold,
        similarity_threshold=args.similarity_threshold,
    )
    rate_hz = frame_rate_hz(trajectories)
    check_window(args.window_s, rate_hz)
    segments = fragment(coop, window_s=args.window_s, overlap_s=args.overlap_s)
    scores = [(seg.index, tr.track_id, score_interest(tr, args.window_s, rate_hz))
              for seg in segments for tr in seg.trajectories if len(tr.times) >= 3]

    # Every output is computed above, so a rejected input leaves no files.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectories(out / "cooperative.jsonl", coop)
    write_csv(out / "matches.csv", ("vehicle_id", "infra_id", "similarity", "kept"),
              ((c.vehicle_id, c.infra_id, c.similarity,
                int(c.similarity >= args.similarity_threshold)) for c in candidates))
    write_csv(out / "segments.csv", ("segment", "start_s", "end_s", "full", "n_trajectories"),
              ((seg.index, seg.start_s, seg.end_s, int(seg.full), len(seg.trajectories))
               for seg in segments))
    write_csv(out / "segment_scores.csv", ("segment", "track_id", "score"), scores)
    print(f"wrote {len(coop)} cooperative trajectories and {len(segments)} segments to {out}")
    return 0


def _cmd_eval(args) -> int:
    gt, hyp = read_tracks(args.gt), read_tracks(args.hyp)
    times = sorted(set(gt) | set(hyp))
    empty = (np.zeros(0, dtype=int), Boxes.empty())
    result = evaluate_clearmot([gt.get(t, empty) for t in times],
                               [hyp.get(t, empty) for t in times], args.gate)
    print(json.dumps({
        "mota": result.mota,
        "motp_m": result.motp,
        "ids": result.ids,
        "fp": result.fp,
        "fn": result.fn,
        "num_gt": result.num_gt,
        "frames": len(times),
        "gate_m": args.gate,
    }, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotrack",
        description="Cooperative vehicle-infrastructure tracking simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a config file")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--workers", type=int, default=1, help="worker processes; each runs whole scenario seeds")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_ann = sub.add_parser("annotate", help="mine cooperative trajectories from a track file")
    p_ann.add_argument("--in", dest="in_path", required=True, help="input trajectory JSONL")
    p_ann.add_argument("--out", required=True, help="output directory")
    p_ann.add_argument("--match-threshold", type=float, default=2.0)
    p_ann.add_argument("--similarity-threshold", type=float, default=0.5)
    p_ann.add_argument("--window-s", type=float, default=10.0)
    p_ann.add_argument("--overlap-s", type=float, default=5.0)
    p_ann.set_defaults(func=_cmd_annotate)

    p_eval = sub.add_parser("eval", help="score a hypothesis track file against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth JSONL")
    p_eval.add_argument("--hyp", required=True, help="hypothesis JSONL")
    p_eval.add_argument("--gate", type=float, default=2.0, help="match gate in meters")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CotrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
