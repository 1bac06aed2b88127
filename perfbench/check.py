"""Correctness check of one sweep's reports.

Two independent parts:

* reference: each cell's ``RunReport.to_json_dict()`` must equal, field for
  field and bit for bit, the report pinned in ``reference/<workload>.json``
  (generated once by make_reference.py from the seed commit). Fields a later
  report adds are not compared; a pinned field that is missing or differs is
  a mismatch. A workload seed with no pinned reference skips this part and
  says so.
* invariants that need no reference: ``bps_post <= bps_pre``;
  ``vehicle_only`` sends 0 bytes; ``middle_flow`` scores exactly like
  ``middle_static`` at 0 ms (acceptance criterion 6's comparison).

A cell that raised, is missing, or fails either part counts once as an error.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple, Optional, Tuple

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
CRITERION_6_FIELDS = ("mota", "motp_m", "ids", "fp", "fn", "num_gt", "fallback_frames", "num_frames")

Cell = Tuple[str, float, int]  # fusion, latency_ms, scenario seed


class CheckResult(NamedTuple):
    cells: int
    errors: Dict[Cell, List[str]]  # failing cell -> reasons


def reference_path(workload_name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload_name}.json")


def load_reference(workload, seed: int) -> Tuple[Optional[List[dict]], str]:
    """Pinned reports for this workload seed, or None with the reason."""
    path = reference_path(workload.name)
    try:
        with open(path, encoding="utf-8") as fh:
            pinned = json.load(fh)
    except FileNotFoundError:
        return None, f"no reference file {os.path.basename(path)}"
    if pinned["workload"] != workload.spec():
        raise ValueError(f"{path} was pinned for another definition of {workload.name}; "
                         "regenerate it from the seed commit with make_reference.py")
    reports = pinned["seeds"].get(str(seed))
    if reports is None:
        return None, f"no pinned reference for seed {seed}; reference check skipped"
    return reports, "reference checked"


def expected_cells(workload, seed: int) -> List[Cell]:
    """Cells in run_sweep's order: fusion, then latency, then scenario seed."""
    return [(f, float(lat), s) for f in workload.fusions for lat in workload.latencies_ms
            for s in workload.scenario_seeds(seed)]


def _key(report: dict) -> Cell:
    return (report["fusion"], float(report["latency_ms"]), int(report["seed"]))


def check_sweep(workload, seed: int, reports: List[dict], failures: List[dict],
                reference: Optional[List[dict]]) -> CheckResult:
    cells = expected_cells(workload, seed)
    errors: Dict[Cell, List[str]] = {}

    def fail(cell: Cell, reason: str) -> None:
        errors.setdefault(cell, []).append(reason)

    for f in failures:
        fail((f["fusion"], float(f["latency_ms"]), int(f["seed"])), f"raised {f['error']}")
    by_cell = {_key(r): r for r in reports}
    for cell in cells:
        if cell not in by_cell and cell not in errors:
            fail(cell, "no report")
    for cell in by_cell:
        if cell not in cells:
            fail(cell, "report for a cell outside the workload")

    for cell, r in by_cell.items():
        if not r["bps_post"] <= r["bps_pre"]:
            fail(cell, f"bps_post {r['bps_post']} > bps_pre {r['bps_pre']}")
        if r["fusion"] == "vehicle_only" and (r["bps_post"] != 0 or r["bps_pre"] != 0):
            fail(cell, "vehicle_only sent bytes")
        if r["fusion"] == "middle_flow" and r["latency_ms"] == 0.0:
            static = by_cell.get(("middle_static", 0.0, cell[2]))
            if static is not None:
                diff = [k for k in CRITERION_6_FIELDS if r[k] != static[k]]
                if diff:
                    fail(cell, f"middle_flow differs from middle_static at 0 ms in {diff}")

    if reference is not None:
        pinned = {_key(r): r for r in reference}
        for cell in cells:
            want, got = pinned.get(cell), by_cell.get(cell)
            if want is None:
                fail(cell, "cell missing from the pinned reference")
            elif got is not None:
                diff = [k for k in want if k not in got or got[k] != want[k]]
                if diff:
                    fail(cell, "differs from the pinned reference in "
                         + ", ".join(f"{k}: {got.get(k)!r} != {want[k]!r}" for k in diff))
    return CheckResult(len(cells), errors)
