"""cotrack benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload latency_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Every repetition is a fresh child process
(child.py) that calls ``experiment.run_sweep(cfg, workers=1)``; every
repetition's reports are checked (check.py). One discarded set-up-only child
first fills the bytecode caches.

``--trace 0`` reports the end-to-end metrics. It splits the workload's
scenario seeds into parts (``Workload.seeds_per_part``) and runs rounds, each
one child per part, until the next round would end after ``--seconds``, and
at least ``MIN_ROUNDS`` of them. Around every child it times the calibration
work (calibrate.py) and scales the child's times to the reference host
speed. ``wall_s`` is the sum over parts of each part's median scaled time,
``setup_s`` the median scaled set-up time of all children.
``--trace 1`` alternates untraced and traced whole-sweep repetitions and
reports the per-layer metrics (tracing.py) plus the tracing overhead; it also
writes the traced spans' summary and the seconds per cell to ``.bench_out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the machine
record (with the unscaled times of a ``--trace 0`` run). A human-readable
table goes to stderr. Metrics are described in README.md next to this file.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
from check import check_sweep, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150
# Share of the traced run_sweep wall time that self times may miss: the
# wrappers' own entry and exit cost, a few microseconds per call.
MAX_SELF_TIME_GAP = 1e-3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "mota_mean": "MOTA",
                    "link_kBps_mean": "kB/s"}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, part=None, traced: bool = False,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--part", str(part)] if part is not None else []
    cmd += ["--trace"] if traced else []
    cmd += ["--setup-only"] if setup_only else []
    t0_ns = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0-ns", str(t0_ns)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    src = os.path.join(ROOT, "src", "cotrack")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD's commit, or None where the checkout is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # keep git from reporting an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_rounds(workload, seed: int, seconds: float) -> list:
    """Rounds of one child per part, each child's times with their speed scales."""
    rounds = []
    calibrate.kernel_seconds()  # the first run pays for page faults and caches
    kernel_s, import_s = calibrate.kernel_seconds(), calibrate.import_seconds()
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        reps = []
        for part in range(workload.num_parts()):
            rep = run_child(workload.name, seed, part=part)
            kernel_after, import_after = calibrate.kernel_seconds(), calibrate.import_seconds()
            rep["scale"] = calibrate.REFERENCE_S / ((kernel_s + kernel_after) / 2)
            rep["setup_scale"] = calibrate.IMPORT_REFERENCE_S / ((import_s + import_after) / 2)
            kernel_s, import_s = kernel_after, import_after
            reps.append(rep)
        rounds.append(reps)
        now = time.monotonic()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            return rounds


def whole_sweeps(rounds: list) -> list:
    """Each round's parts joined into one sweep's reports and failures."""
    return [{"reports": [r for rep in reps for r in rep["reports"]],
             "failures": [f for rep in reps for f in rep["failures"]]} for reps in rounds]


def end_to_end(rounds: list) -> tuple:
    """The end-to-end metrics, and the same timings unscaled."""
    by_part = list(zip(*rounds))
    children = [rep for reps in rounds for rep in reps]

    def wall(scaled: bool) -> float:
        return sum(statistics.median(r["wall_s"] * (r["scale"] if scaled else 1.0) for r in reps)
                   for reps in by_part)

    reports = whole_sweeps(rounds)[0]["reports"]
    coop = [r["bps_post"] / 1e3 for r in reports if r["fusion"] != "vehicle_only"]
    values = {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in children),
        "wall_s": wall(scaled=True),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in reps) for reps in by_part),
        "mota_mean": statistics.fmean(r["mota"] for r in reports) if reports else None,
        "link_kBps_mean": statistics.fmean(coop) if coop else None,
    }
    unscaled = {"setup_s": statistics.median(r["setup_s"] for r in children),
                "wall_s": wall(scaled=False),
                "speed_scales": [round(r["scale"], 4) for r in children],
                "setup_scales": [round(r["setup_scale"], 4) for r in children]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, unscaled


def per_layer(untraced: list, traced: list) -> dict:
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [r["layers"][name]["value"] for r in traced]
        if first["value"] is None:
            out[name] = {"value": None, "unit": first["unit"], "absent": True}
        else:
            out[name] = {"value": statistics.median(values), "unit": first["unit"]}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.self_time_gap_share"] = {"value": max(r["self_time_gap"] for r in traced),
                                        "unit": "share"}
    return out


def check_reps(workload, seed: int, reps: list) -> tuple:
    """(attempted, failed, messages) over every repetition's cells."""
    reference, ref_note = load_reference(workload, seed)
    attempted = failed = 0
    messages = [ref_note]
    first = reps[0]["reports"]
    for i, rep in enumerate(reps):
        result = check_sweep(workload, seed, rep["reports"], rep["failures"], reference)
        errors = dict(result.errors)
        if rep["reports"] != first:
            # Without a pinned reference this is what still catches a
            # non-deterministic cell: every repetition must agree with the first.
            for a, b in zip(first, rep["reports"]):
                if a != b:
                    errors.setdefault((b["fusion"], b["latency_ms"], b["seed"]), []).append(
                        "differs from repetition 0")
        attempted += result.cells
        failed += len(errors)
        for cell, reasons in errors.items():
            messages.append(f"rep {i} cell {cell}: {'; '.join(reasons)}")
    return attempted, failed, messages


def print_table(workload: str, seed: int, metrics: dict, attempted: int, failed: int,
                reps: int) -> None:
    err = sys.stderr
    print(f"perfbench {workload} seed {seed}: {reps} checked sweeps", file=err)
    rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    rows.append(("error_rate", failed / attempted if attempted else float("nan"), "share"))
    for name, value, unit in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}", file=err)


def print_cell_table(traced: list) -> None:
    if traced[0]["cell_seconds"] is None:
        print("  traced seconds per cell: absent (run_single is not traced)", file=sys.stderr)
        return
    by_key = {}
    for row in traced[0]["cell_seconds"]:
        by_key.setdefault((row["fusion"], row["latency_ms"]), []).append(row["seconds"])
    print("  traced seconds per cell (mean over scenario seeds):", file=sys.stderr)
    for (fusion, lat), secs in by_key.items():
        print(f"    {fusion:14s} {lat:6.0f} ms {statistics.fmean(secs):8.3f} s", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]

    untraced, traced, unscaled = [], [], None
    try:
        run_child(args.workload, args.seed, setup_only=True)  # compile caches, prove the import
        if args.trace:
            start = time.monotonic()
            while time.monotonic() - start < args.seconds:
                untraced.append(run_child(args.workload, args.seed))
                traced.append(run_child(args.workload, args.seed, traced=True))
        else:
            rounds = measure_rounds(workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced if args.trace else whole_sweeps(rounds)
    attempted, failed, messages = check_reps(workload, args.seed, reps)
    correct = failed == 0
    if traced:
        metrics = per_layer(untraced, traced)
        bad_spans = sum(r["nesting_violations"] for r in traced)
        gap = metrics["trace.self_time_gap_share"]["value"]
        if bad_spans or gap > MAX_SELF_TIME_GAP:
            correct = False
            messages.append(f"trace inconsistent: {bad_spans} misnested spans, self-time gap {gap}")
        for name, reason in {**traced[0]["absent"], **traced[0]["observe_errors"]}.items():
            messages.append(f"absent: {name}: {reason}")
    else:
        metrics, unscaled = end_to_end(rounds)

    machine = machine_record()
    for message in messages:
        print(f"perfbench: {message}", file=sys.stderr)
    print_table(args.workload, args.seed, metrics, attempted, failed, len(reps))
    if traced:
        print_cell_table(traced)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "workload": workload.spec(), "seed": args.seed,
                       "metrics": metrics, "untraced_wall_s": [r["wall_s"] for r in untraced],
                       "traced": [{k: r[k] for k in ("wall_s", "cell_seconds", "spans")}
                                  for r in traced]}, fh, indent=1)
    if unscaled is not None:
        print(f"  unscaled: wall_s {unscaled['wall_s']:.6g} s, setup_s {unscaled['setup_s']:.6g} s",
              file=sys.stderr)
    print(json.dumps({"machine": machine, "unscaled": unscaled}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
