"""Batch experiment runner: scenario -> sensing -> channel -> fusion ->
detection -> tracking -> metrics, swept over fusion method, latency and seed.

Every run is deterministic in (config, fusion, latency, seed); sweep output
files are byte-reproducible. A scenario seed is the unit of shared work and
of parallelism: the world, sensing and encoded messages of a seed's frames are
made once, and each (fusion, latency) cell of the seed replays them through its
own channel, fusion, detection, tracking and scoring.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
                    get_args, get_origin, get_type_hints)

import numpy as np

from .channel import (
    Channel,
    ChannelMessage,
    LatencyModel,
    MessageKind,
    encode_message,
)
from .detector import DetectParams, detect
from .errors import ConfigurationError, CotrackError, check_finite
from .fusion import STRATEGIES, EgoInputs, FusionKind, FusionMethod, cooperative_feature
from .geometry import Boxes, Pose, compose, inverse
from .metrics import RunReport, aggregate_run, check_gate, evaluate_clearmot
from .scenario import (
    Provenance,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    ground_truth_at,
)
from .sensing import FeatureGrid, View, rasterize_bev, sample_point_cloud
from .tracker import Tracker, TrackerParams


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = ScenarioConfig()
    fusions: Tuple[FusionMethod, ...] = tuple(map(FusionMethod, FusionKind))
    latencies_ms: Tuple[float, ...] = (0.0, 100.0, 200.0, 300.0, 400.0, 500.0)
    seeds: Tuple[int, ...] = tuple(range(1, 21))
    compression: bool = True
    jitter_ms: float = 0.0
    eval_gate_m: float = 2.0
    detect: DetectParams = DetectParams()
    tracker: TrackerParams = TrackerParams()

    def __post_init__(self):
        check_finite(self, *self.latencies_ms, self.jitter_ms, self.eval_gate_m)
        if not self.fusions or not self.latencies_ms or not self.seeds:
            raise ConfigurationError("sweep lists must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigurationError("seeds must be non-negative")
        if min(self.latencies_ms) < 0 or self.jitter_ms < 0:
            raise ConfigurationError("latencies must be non-negative")
        check_gate(self.eval_gate_m)


@dataclass(frozen=True)
class RunFailure:
    fusion: str
    latency_ms: float
    seed: int
    error: str


@dataclass
class RunArtifacts:
    """Optional per-frame products of one run, for tests and file export: the
    scored ``(ids, Boxes)`` frames at ``times``, and each row's ``Provenance``."""

    times: np.ndarray
    gt_frames: List[Tuple[np.ndarray, Boxes]]
    hyp_frames: List[Tuple[np.ndarray, Boxes]]
    gt_sides: List[np.ndarray]
    hyp_sides: List[np.ndarray]
    channel: Channel


class _Frame(NamedTuple):
    """One frame's products that no cell's fusion or latency changes."""

    t: float
    ego_pose: Pose
    world_to_ego: Pose
    infra_to_ego: Pose
    ego: EgoInputs
    messages: Dict[MessageKind, ChannelMessage]  # wire bytes, encoded once, sent into every channel


def _seed_frames(cfg: ExperimentConfig, scn,
                 fusions: Sequence[FusionMethod]) -> Iterator[_Frame]:
    """The frames of one scenario seed as every cell using ``fusions`` reads them.

    Per frame: the ego cloud, grid and (if a fusion needs them) detections,
    and the infra payload of each MessageKind the fusions send, encoded once.
    The infra grid is rasterized only when a payload is made from it. Frames
    are made one at a time, as they are read.
    """
    sc = cfg.scenario
    strategies = [STRATEGIES[f.kind] for f in fusions]
    senders = {s.message: s for s in strategies if s.message is not None}
    needs_grid = any(s.infra_grid for s in senders.values())
    needs_dets = any(s.ego_detections for s in strategies)
    inf_grid = None
    for t in scn.frame_times():
        messages = {}
        if senders:
            pc_inf = sample_point_cloud(scn, t, View.INFRA)
            prev_inf_grid = inf_grid
            if needs_grid:
                inf_grid = rasterize_bev(pc_inf, sc.infra_grid, sc.density_cap)
            messages = {kind: encode_message(kind, s.payload(pc_inf, inf_grid, prev_inf_grid,
                                                             cfg.detect), cfg.compression, t)
                        for kind, s in senders.items()}
            del pc_inf, prev_inf_grid  # not held while the cells read the frame
        pc_ego = sample_point_cloud(scn, t, View.VEHICLE)
        ego_grid = rasterize_bev(pc_ego, sc.vehicle_grid, sc.density_cap)
        ego = EgoInputs(cloud=pc_ego, grid=ego_grid,
                        detections=detect(ego_grid, cfg.detect) if needs_dets else None,
                        density_cap=sc.density_cap)
        ego_pose = scn.ego_pose(t)
        world_to_ego = inverse(ego_pose)
        yield _Frame(t, ego_pose, world_to_ego, compose(world_to_ego, scn.infra_pose), ego, messages)


class _Sparse(NamedTuple):
    """An ego grid held as its occupied cells."""

    other_fields: dict  # every field but ``values``
    cells: np.ndarray  # int32 flat index of each cell with a nonzero bit in any channel
    values: np.ndarray  # (cells, channels): their values, -0.0 included


def _packed(frame: _Frame) -> _Frame:
    """A frame to hold while other cells of its seed wait, at the size of what
    the frame adds. The ego grid keeps its occupied cells (about 3% of them).
    The ego cloud is held as the sampler made it: one that carries its
    scenario's clutter holds only its agent rows and the clutter rows'
    intensities. Messages are wire bytes already."""
    ego = frame.ego
    grid = ego.grid
    by_cell = grid.values.reshape(-1, grid.spec.channels)
    # The cell of each value with a nonzero bit (-0.0 included), ascending.
    cells = np.flatnonzero(by_cell.view(np.uint64).ravel() != 0) // grid.spec.channels
    cells = cells[np.diff(cells, prepend=-1) != 0].astype(np.int32)
    other_fields = {f.name: getattr(grid, f.name) for f in fields(grid) if f.name != "values"}
    return frame._replace(ego=replace(ego, grid=_Sparse(other_fields, cells, by_cell[cells])))


def _unpacked(frame: _Frame) -> _Frame:
    """A held frame as a cell reads it, bit for bit the frame ``_packed`` took,
    with a fresh ego grid."""
    sparse = frame.ego.grid
    values = np.zeros(sparse.other_fields["spec"].shape)
    values.reshape(-1, values.shape[-1])[sparse.cells] = sparse.values
    return frame._replace(ego=replace(frame.ego,
                                      grid=FeatureGrid(values=values, **sparse.other_fields)))


def run_single(
    cfg: ExperimentConfig,
    fusion: FusionMethod,
    latency_ms: float,
    seed: int,
    keep_artifacts: bool = False,
    shared: Optional[Tuple[Scenario, Iterable[_Frame]]] = None,
):
    """Execute one full run and return its RunReport.

    With keep_artifacts=True returns (report, RunArtifacts) instead.
    Every run has a channel; a fusion that sends no message
    (``vehicle_only``) leaves it empty, so its report reads no bytes.
    ``shared`` is the seed's scenario and its frames (``_seed_frames``) when
    a sweep runs several cells of the seed; a lone run makes its own, one
    frame at a time. The run itself receives, fuses, detects, tracks and
    scores.
    """
    if shared is None:
        scn = generate_scenario(cfg.scenario, seed)
        shared = (scn, _seed_frames(cfg, scn, [fusion]))
    scn, frames = shared
    msg_kind = STRATEGIES[fusion.kind].message
    channel = Channel(LatencyModel(latency_ms, cfg.jitter_ms, seed))
    provenance = Provenance.VEHICLE_SIDE if msg_kind is None else Provenance.FUSED
    tracker = Tracker(cfg.tracker)
    region = scn.region

    gt_frames, hyp_frames = [], []  # (ids, Boxes) per frame, ego frame, in the region
    gt_sides = []  # per frame, the provenance of each ground-truth row, for the artifacts
    fallback = 0

    for frame in frames:
        t = frame.t
        # The union of the views by id, sorted; a vehicle-side row wins.
        ids_v, gt_v = ground_truth_at(scn, t, View.VEHICLE)
        ids_i, gt_i = ground_truth_at(scn, t, View.INFRA)
        ids, first = np.unique(np.concatenate([ids_v, ids_i]), return_index=True)
        gt = Boxes.concat([gt_v, gt_i]).take(first).transformed(frame.world_to_ego)
        inside = region.contains(gt.values[:, 0], gt.values[:, 1])
        gt_frames.append((ids[inside], gt.take(inside)))
        gt_sides.append(np.where(first[inside] < len(ids_v), Provenance.VEHICLE_SIDE,
                                 Provenance.INFRA_SIDE))

        if msg_kind is not None:
            channel.send(frame.messages[msg_kind])

        fused = cooperative_feature(fusion, channel, t, frame.ego, frame.infra_to_ego,
                                    cfg.scenario.infra_grid, cfg.compression)
        fallback += fused.used_fallback
        dets = fused.detections if fused.detections is not None else detect(fused.grid, cfg.detect)

        boxes, ids = tracker.step(dets.transformed(frame.ego_pose), t)
        boxes = boxes.transformed(frame.world_to_ego)
        inside = region.contains(boxes.values[:, 0], boxes.values[:, 1])
        hyp_frames.append((ids[inside], boxes.take(inside)))

    mot = evaluate_clearmot(gt_frames, hyp_frames, cfg.eval_gate_m)
    report = aggregate_run(
        mot, channel, cfg.scenario.duration_s, fusion.kind.value, latency_ms, seed,
        fallback_frames=fallback, match_gate_m=cfg.eval_gate_m, num_frames=len(gt_frames),
    )
    if keep_artifacts:
        hyp_sides = [np.full(len(ids), provenance) for ids, _ in hyp_frames]
        return report, RunArtifacts(scn.frame_times(), gt_frames, hyp_frames, gt_sides,
                                    hyp_sides, channel)
    return report


def _run_seed(cfg: ExperimentConfig, seed: int,
              cells: Sequence[Tuple[FusionMethod, float]]) -> list:
    """Run the (fusion, latency) ``cells`` of one scenario seed.

    Returns one entry per cell, in order: its RunReport or the exception
    that failed it. The scenario and the frames (``_seed_frames``) are made
    once. With more than one distinct run the frames are held packed
    (``_packed``) while one ``run_single`` per distinct run reads them in
    turn: each frame keeps what it adds to its scenario, the ego cloud as
    sampled (agent rows and clutter intensities when it carries the clutter),
    the ego grid's occupied cells and the messages' wire bytes, so memory
    still grows with the scenario's duration. A lone run reads the frames as
    they are made. A fusion that sends no message (``vehicle_only``) ignores
    latency, so one of its runs serves all latencies. A failure in the shared
    work fails every cell; a failure in one run fails only the cells it serves.
    """
    keys = [(f, lat if STRATEGIES[f.kind].message is not None else None) for f, lat in cells]
    runs: Dict[tuple, float] = {}  # distinct run -> the latency it runs at
    for key, (_, latency_ms) in zip(keys, cells):
        runs.setdefault(key, latency_ms)
    try:
        scn = generate_scenario(cfg.scenario, seed)
        frames = _seed_frames(cfg, scn, [fusion for fusion, _ in runs])
        held = [_packed(frame) for frame in frames] if len(runs) > 1 else None
    except Exception as exc:  # noqa: BLE001 - shared work failed: every cell fails
        return [exc] * len(cells)
    results = {}
    for key, latency_ms in runs.items():
        fusion = key[0]
        if held is not None:
            frames = map(_unpacked, held)
        try:
            results[key] = run_single(cfg, fusion, latency_ms, seed, shared=(scn, frames))
        except Exception as exc:  # noqa: BLE001 - one cell's failure spares the rest
            results[key] = exc
    return [r if isinstance(r, Exception) else replace(r, latency_ms=latency_ms)
            for r, (_, latency_ms) in zip(map(results.get, keys), cells)]


def run_sweep(
    cfg: ExperimentConfig, workers: int = 1
) -> Tuple[List[RunReport], List[RunFailure]]:
    """Run every (fusion x latency x seed) cell; failures do not stop the sweep.

    Each seed's cells run together in one ``_run_seed`` call, which is also
    the unit handed to a worker process. Reports come back in deterministic
    cell order (fusion, latency, seed) regardless of worker count.
    """
    cells = [(fusion, lat) for fusion in cfg.fusions for lat in cfg.latencies_ms]
    by_seed = {}
    pool_context = nullcontext()
    if workers > 1:
        # Imported here: loading the process pool and multiprocessing is a
        # cost at start-up that single-process runs should not pay.
        from concurrent.futures import ProcessPoolExecutor
        pool_context = ProcessPoolExecutor(max_workers=workers)
    with pool_context as pool:
        pending = {seed: pool.submit(_run_seed, cfg, seed, cells) if pool else None
                   for seed in cfg.seeds}
        for seed, future in pending.items():
            try:
                by_seed[seed] = future.result() if future else _run_seed(cfg, seed, cells)
            except Exception as exc:  # noqa: BLE001 - sweep must survive cell failures
                by_seed[seed] = [exc] * len(cells)
    reports: List[RunReport] = []
    failures: List[RunFailure] = []
    for idx, (fusion, lat) in enumerate(cells):
        for seed in cfg.seeds:
            out = by_seed[seed][idx]
            if isinstance(out, Exception):
                failures.append(RunFailure(fusion.kind.value, lat, seed, repr(out)))
            else:
                reports.append(out)
    failures.sort(key=lambda f: (f.fusion, f.latency_ms, f.seed))
    return reports, failures


# The RunReport fields summary.csv averages over seeds, in column order.
SUMMARY_FIELDS = ("mota", "motp_m", "ids", "fp", "fn", "bps_pre", "bps_post", "fallback_frames")


def summarize(reports: Sequence[RunReport]) -> List[dict]:
    """Per (fusion, latency) cell, in first-seen order: its seed count and,
    for each of ``SUMMARY_FIELDS``, the mean over seeds as ``mean_<field>``."""
    groups: Dict[Tuple[str, float], List[RunReport]] = {}
    for r in reports:
        groups.setdefault((r.fusion, r.latency_ms), []).append(r)
    rows = []
    for (fusion, latency_ms), rs in groups.items():
        row = {"fusion": fusion, "latency_ms": latency_ms, "n_seeds": len(rs)}
        for name in SUMMARY_FIELDS:
            row[f"mean_{name}"] = float(np.mean([getattr(r, name) for r in rs]))
        rows.append(row)
    return rows


def _format_cell(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def write_csv(path: Path, columns: Sequence[str], rows: Iterable[Iterable]) -> Path:
    """A header line of ``columns``, then one line per row; floats at 4 decimals."""
    lines = [",".join(columns)] + [",".join(map(_format_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_report(reports: Sequence[RunReport], fmt: str, out_dir) -> Path:
    """Write the per-run report table as runs.csv or runs.json.

    CSV floats print at 4 decimals with a stable column order; JSON is
    lossless. An empty report list is an error and writes nothing.
    """
    if not reports:
        raise ConfigurationError("cannot emit an empty report list")
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = write_csv(out / "runs.csv", RunReport.csv_columns(),
                         (r.to_json_dict().values() for r in reports))
    else:
        path = out / "runs.json"
        path.write_text(
            json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return path


def write_sweep_outputs(
    reports: Sequence[RunReport],
    failures: Sequence[RunFailure],
    out_dir,
    fmt: str = "csv",
) -> Dict[str, Path]:
    """Emit failures, runs table, per-cell summary and per-fusion latency
    curves; with no reports, only the failures."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    if failures:
        paths["failures"] = out / "failures.json"
        paths["failures"].write_text(json.dumps([f.__dict__ for f in failures], indent=2,
                                                sort_keys=True) + "\n", encoding="utf-8")
    if not reports:
        return paths
    paths["runs"] = emit_report(reports, fmt, out)

    rows = summarize(reports)
    paths["summary"] = write_csv(out / "summary.csv", list(rows[0]),
                                 (row.values() for row in rows))

    by_fusion: Dict[str, List[dict]] = {}
    for row in rows:
        by_fusion.setdefault(row["fusion"], []).append(row)
    curve = ("latency_ms", "mean_mota", "mean_motp_m", "mean_ids")
    for fusion, frows in by_fusion.items():
        frows = sorted(frows, key=lambda r: r["latency_ms"])
        paths[f"curve_{fusion}"] = write_csv(out / f"latency_curve_{fusion}.csv", curve,
                                             ([r[c] for c in curve] for r in frows))
    return paths


# ---------------------------------------------------------------------------
# Config file parsing, driven by the config dataclasses: a JSON object sets a
# dataclass's fields by name, each value must have a JSON type that its
# annotated field type takes (``_coerce``), and defaults live only in the
# dataclasses. The schema is documented in the README; unknown keys are
# rejected so typos fail loudly.

# Scenario keys grouped in JSON that set flat ScenarioConfig fields.
_SCENARIO_GROUPS = {
    "ego": {"start": "ego_start", "yaw": "ego_yaw", "speed_mps": "ego_speed"},
    "infra": {"position": "infra_position", "yaw": "infra_yaw", "range_m": "infra_range_m"},
}
# Error messages name a grouped field by its JSON path, e.g. ``ego.start``.
_JSON_NAMES = {flat: f"{group}.{key}" for group, names in _SCENARIO_GROUPS.items()
               for key, flat in names.items()}
# Top-level keys that parametrize every FusionMethod named in "fusions".
_FUSION_KEYS = ("late_threshold_m",)
# The JSON values each leaf type takes. JSON true and false are not numbers,
# and json reads NaN and Infinity, which no field takes.
_JSON_LEAVES = {
    bool: ("a JSON bool", lambda v: isinstance(v, bool)),
    int: ("a JSON integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite JSON number", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
}


def _check_keys(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where}")


def _from_dict(cls, d: dict, where: str):
    """Build the dataclass ``cls`` from a JSON object of its field values."""
    _check_keys(d, {f.name for f in fields(cls) if f.init}, where)
    hints = get_type_hints(cls)
    kwargs = {k: _coerce(hints[k], v, f"{where}.{_JSON_NAMES.get(k, k)}") for k, v in d.items()}
    try:
        return cls(**kwargs)
    except CotrackError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {where}: {exc}") from exc


def _coerce(tp, value, where: str):
    """A JSON value checked against the annotated type ``tp``, never converted
    from another JSON type: a bool only from a JSON bool, an int only from a
    JSON integer, a float from any finite JSON number, an Enum from a string
    naming a member, a tuple only from an array, and a dataclass from an
    object or, positionally, an array (e.g. a region's four bounds)."""
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"invalid {where}: expected a JSON array, got {value!r}")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) != len(value):
            raise ConfigurationError(f"invalid {where}: expected {len(args)} values, got {len(value)}")
        return tuple(_coerce(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if is_dataclass(tp):
        if isinstance(value, list):
            names = [f.name for f in fields(tp)]
            if len(value) > len(names):
                raise ConfigurationError(f"invalid {where}: expected at most {len(names)} values")
            value = dict(zip(names, value))
        return _from_dict(tp, value, where)
    if issubclass(tp, Enum):
        names = [m.value for m in tp]
        expected, ok = f"one of {names}", isinstance(value, str) and value in names
    else:
        expected, accepts = _JSON_LEAVES[tp]
        ok = accepts(value)
    if not ok:
        raise ConfigurationError(f"invalid {where}: expected {expected}, got {value!r}")
    return tp(value)


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    fields_ = {f.name for f in fields(ExperimentConfig)}
    _check_keys(d, fields_ | set(_FUSION_KEYS), "config")
    d = dict(d)
    hints = get_type_hints(FusionMethod)
    method = {k: _coerce(hints[k], d.pop(k), f"config.{k}") for k in _FUSION_KEYS if k in d}
    d.setdefault("fusions", [f.kind.value for f in ExperimentConfig.fusions])
    if isinstance(d["fusions"], list):
        # Check each name under its own path before it becomes a "kind" key.
        for i, name in enumerate(d["fusions"]):
            _coerce(FusionKind, name, f"config.fusions[{i}]")
        d["fusions"] = [dict(method, kind=name) for name in d["fusions"]]
    if "scenario" in d:
        d["scenario"] = _flat_scenario(d["scenario"])
    return _from_dict(ExperimentConfig, d, "config")


def _flat_scenario(d: dict) -> dict:
    """Scenario JSON with its grouped keys spread into ScenarioConfig field names."""
    if not isinstance(d, dict):
        raise ConfigurationError("config.scenario must be a JSON object")
    flat = {k: v for k, v in d.items() if k not in _SCENARIO_GROUPS}
    for group, names in _SCENARIO_GROUPS.items():
        _check_keys(d.get(group, {}), set(names), f"config.scenario.{group}")
        flat.update((names[k], v) for k, v in d.get(group, {}).items())
    return flat


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    return experiment_config_from_dict(data)
