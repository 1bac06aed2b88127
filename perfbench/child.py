"""One benchmark repetition in a fresh interpreter.

Run by run.py, never by hand:

    python3 perfbench/child.py --workload NAME --seed N --t0-ns T [--part P]
                               [--trace | --setup-only]

It imports cotrack from the checkout's ``src/`` (never from an installed
copy), builds the workload's config, calls ``experiment.run_sweep(cfg,
workers=1)`` the way ``cotrack run`` does (over part ``P`` of the
workload's scenario seeds with ``--part``), and prints one JSON object as its
last stdout line. ``--t0-ns`` is the parent's ``time.monotonic_ns()`` taken
just before it started this process; CLOCK_MONOTONIC is system-wide on
Linux, so ``setup_s`` spans interpreter start, imports and config
construction, up to the call of ``run_sweep``. ``--setup-only`` stops there
and reports only ``setup_s``.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def import_cotrack():
    """Import cotrack from the checkout's src/ or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC_DIR, "cotrack", "__init__.py")):
        sys.exit(f"perfbench: no cotrack package under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    import cotrack

    if os.path.dirname(os.path.dirname(os.path.abspath(cotrack.__file__))) != SRC_DIR:
        sys.exit(f"perfbench: imported cotrack from {cotrack.__file__}, not from {SRC_DIR}")


def setup(workload_name: str, seed: int, part=None):
    """Everything ``setup_s`` covers: imports and config construction."""
    import_cotrack()
    from cotrack import experiment
    from workloads import WORKLOADS

    return experiment, WORKLOADS[workload_name].config(seed, part)


def run(workload_name: str, seed: int, part, traced: bool, t0_ns: int) -> dict:
    experiment, cfg = setup(workload_name, seed, part)
    if traced:
        from tracing import Tracer

        context = Tracer()
    else:
        context = contextlib.nullcontext()
    with context as tracer:
        setup_ns = time.monotonic_ns() - t0_ns
        start = time.perf_counter()
        traced_start_ns = tracer.now_ns() if tracer is not None else 0
        reports, failures = experiment.run_sweep(cfg, workers=1)
        traced_wall_ns = tracer.now_ns() - traced_start_ns if tracer is not None else 0
        wall_s = time.perf_counter() - start
    out = {
        "setup_s": setup_ns / 1e9,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reports": [r.to_json_dict() for r in reports],
        "failures": [dict(f.__dict__) for f in failures],
    }
    if tracer is not None:
        from tracing import cell_seconds, per_layer_metrics, self_time_gap

        frames = sum(r["num_frames"] for r in out["reports"])
        out["layers"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in per_layer_metrics(tracer, frames).items()}
        out["absent"] = tracer.absent
        out["observe_errors"] = {n: s["observe_error"] for n, s in tracer.stats.items()
                                 if "observe_error" in s}
        out["self_time_gap"] = self_time_gap(tracer, traced_wall_ns)
        out["nesting_violations"] = tracer.nesting_violations()
        out["cell_seconds"] = cell_seconds(tracer)
        out["spans"] = {name: {"calls": s["calls"], "total_ms": s["total_ns"] / 1e6,
                               "self_ms": s["self_ns"] / 1e6}
                        for name, s in tracer.stats.items()}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--part", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        setup(args.workload, args.seed, args.part)
        print(json.dumps({"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9}))
        return
    print(json.dumps(run(args.workload, args.seed, args.part, args.trace, args.t0_ns)))


if __name__ == "__main__":
    main()
