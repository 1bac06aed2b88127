"""Span tracing of cotrack's layers from outside the library.

``Tracer`` rebinds the public functions of each layer (``TARGETS``) on every
loaded ``cotrack.*`` module that references them, so a call site that a
refactor moves to another module stays traced. Methods are rebound on their
class. Every call records a span (name, start, end, parent); a span's self
time is its duration minus the time its child spans cover. ``run_sweep`` is
the root of a benchmark run; work a refactor moves out of the per-cell
``run_single`` (say, once per scenario seed) stays inside it. Leaving the
``with`` block restores every binding it changed.

Bookkeeping that inspects arguments and results (repeat fingerprints, byte
and cell counts) runs on a paused clock: its cost is left out of every span,
so self times stay comparable with the untraced run. The real cost shows as
the difference between traced and untraced ``wall_s`` (``trace.overhead_s``).

A target that no longer exists, or whose arguments no longer have the names
an observer reads, is reported as absent (value ``None``), never as zero.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

MB = float(1 << 20)


class Target(NamedTuple):
    layer: str
    module: str
    qualname: str
    repeat: bool = False  # count calls whose inputs were already seen
    observe: Optional[Callable] = None  # (stats, args, result, dur_ns) -> None


def _observe_cell(stats, args, result, dur_ns):
    stats["cells"].append((args["fusion"].kind.value, float(args["latency_ms"]),
                           int(args["seed"]), dur_ns))


def _observe_points(stats, args, result, dur_ns):
    stats["points"] += len(result)


def _observe_message(stats, args, result, dur_ns):
    stats["payload_bytes"] += result.payload_bytes
    stats["raw_bytes"] += result.raw_bytes


def _arrays(obj, depth=0):
    """Numpy arrays reachable through dataclass fields, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth < 4 and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, depth + 1)
    elif depth < 4 and dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), depth + 1)


def _observe_codec_input(stats, args, result, dur_ns):
    for arr in _arrays(list(args.values())):
        if arr.ndim == 3:
            stats["grid_cells"] += arr.shape[0] * arr.shape[1]
            stats["nonzero_cells"] += int(np.count_nonzero(np.any(arr != 0.0, axis=2)))


def _observe_retained(stats, args, result, dur_ns):
    channel = args["channel"]
    if channel is None:
        return
    held = sum(arr.nbytes for m in channel.messages for arr in _arrays(m.content))
    stats["retained_bytes"].append(held)


def _observe_fusion(stats, args, result, dur_ns):
    if args["fusion"].kind.value == "vehicle_only":
        return
    stats["coop_calls"] += 1
    if result.used_fallback:
        stats["fallbacks"] += 1
    else:
        stats["tau_s"] += result.tau_s


def _observe_dets(stats, args, result, dur_ns):
    stats["dets"] += len(result)


def _observe_tracks(stats, args, result, dur_ns):
    stats["tracks"] += len(args["self"].tracks)


def _observe_assignment(stats, args, result, dur_ns):
    shape = np.shape(args["cost"])
    stats["size"] += max(shape) if len(shape) == 2 else 0


TARGETS: Tuple[Target, ...] = (
    Target("experiment", "cotrack.experiment", "run_sweep"),
    Target("experiment", "cotrack.experiment", "run_single", observe=_observe_cell),
    Target("scenario", "cotrack.scenario", "generate_scenario"),
    Target("scenario", "cotrack.scenario", "ground_truth_at", repeat=True),
    Target("sensing", "cotrack.sensing", "sample_point_cloud", repeat=True, observe=_observe_points),
    Target("sensing", "cotrack.sensing", "rasterize_bev", repeat=True),
    Target("sensing", "cotrack.sensing", "extract_feature_flow"),
    Target("sensing", "cotrack.sensing", "predict_feature"),
    Target("channel", "cotrack.channel", "Channel.send", observe=_observe_message),
    Target("channel", "cotrack.channel", "encode_message", repeat=True),
    Target("channel", "cotrack.channel", "compress_grid", observe=_observe_codec_input),
    Target("channel", "cotrack.channel", "compress_grid_pair", observe=_observe_codec_input),
    Target("channel", "cotrack.channel", "decompress_grid"),
    Target("fusion", "cotrack.fusion", "cooperative_feature", observe=_observe_fusion),
    Target("fusion", "cotrack.fusion", "align_grid"),
    Target("detector", "cotrack.detector", "detect", repeat=True, observe=_observe_dets),
    Target("tracker", "cotrack.tracker", "Tracker.step", observe=_observe_tracks),
    Target("assignment", "cotrack.assignment", "solve_assignment", observe=_observe_assignment),
    Target("metrics", "cotrack.metrics", "evaluate_clearmot"),
    Target("metrics", "cotrack.metrics", "aggregate_run", observe=_observe_retained),
)

LAYERS = ("experiment", "scenario", "sensing", "channel", "fusion", "detector", "tracker",
          "assignment", "metrics")
CELL_TARGET = "run_single"


def fingerprint(obj) -> bytes:
    """Digest of a value by content: arrays by bytes, dataclasses by fields.

    Objects of other types digest by identity, so they never count as a repeat.
    """
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).data)
    elif isinstance(obj, (bool, int, float, str, bytes, type(None), np.generic, Enum)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"dict[{len(obj)}".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"{type(obj).__qualname__}(".encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
        h.update(b")")
    else:
        h.update(f"id:{type(obj).__qualname__}:{id(obj)};".encode())


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    start_ns: int
    end_ns: int


def _new_stats() -> dict:
    stats = defaultdict(int)
    stats["cells"] = []
    stats["retained_bytes"] = []
    return stats


class Tracer:
    """Context manager that traces ``TARGETS`` while it is active."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: List[Span] = []
        self.stats: Dict[str, dict] = {self.name_of(t): _new_stats() for t in targets}
        self.absent: Dict[str, str] = {}  # target name -> reason
        self._seen: Dict[str, set] = defaultdict(set)
        self._stack: List[list] = []  # [span_id, parent_id, name, start_ns, child_ns]
        self._paused_ns = 0
        self._undo: List[Tuple[object, str, object]] = []

    @staticmethod
    def name_of(target: Target) -> str:
        return target.qualname.split(".")[-1]

    def now_ns(self) -> int:
        """Clock that excludes the tracer's own bookkeeping."""
        return time.perf_counter_ns() - self._paused_ns

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, target: Target) -> None:
        name = self.name_of(target)
        try:
            module = importlib.import_module(target.module)
        except ImportError as exc:
            self.absent[name] = f"module {target.module} not importable: {exc}"
            return
        *owner_path, attr = target.qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.absent[name] = f"{target.module}.{part} does not exist"
                return
        original = (owner.__dict__.get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if not callable(original):
            self.absent[name] = f"{target.module}.{target.qualname} does not exist"
            return
        wrapper = self._wrap(target, original)
        if isinstance(owner, type):
            self._rebind(owner, attr, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cotrack" or mod_name.startswith("cotrack.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn):
        name = self.name_of(target)
        signature = inspect.signature(fn)
        stats = self.stats[name]
        seen = self._seen[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur_ns = tracer._pop()
            paused_at = time.perf_counter_ns()
            try:
                stats["calls"] += 1
                if target.repeat or target.observe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if target.repeat:
                        key = fingerprint(dict(bound.arguments))
                        stats["repeats"] += key in seen
                        seen.add(key)
                    if target.observe is not None and "observe_error" not in stats:
                        try:
                            target.observe(stats, bound.arguments, result, dur_ns)
                        except (AttributeError, KeyError, TypeError) as exc:
                            stats["observe_error"] = repr(exc)
            finally:
                tracer._paused_ns += time.perf_counter_ns() - paused_at
            return result

        return traced

    def _push(self, name: str) -> None:
        parent_id = self._stack[-1][0] if self._stack else -1
        span_id = len(self.spans) + len(self._stack)
        self._stack.append([span_id, parent_id, name, self.now_ns(), 0])

    def _pop(self) -> int:
        end = self.now_ns()
        span_id, parent_id, name, start, child_ns = self._stack.pop()
        dur = end - start
        stats = self.stats[name]
        stats["total_ns"] += dur
        stats["self_ns"] += dur - child_ns
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append(Span(span_id, parent_id, name, start, end))
        return dur

    def nesting_violations(self) -> int:
        """Spans whose parent is unknown or does not cover their interval."""
        by_id = {s.span_id: s for s in self.spans}
        bad = 0
        for s in self.spans:
            if s.parent_id < 0:
                continue
            p = by_id.get(s.parent_id)
            bad += p is None or not (p.start_ns <= s.start_ns <= s.end_ns <= p.end_ns)
        return bad


# ---------------------------------------------------------------------------
# Per-layer metrics. Each entry: name, unit, the targets it reads, whether it
# reads observer output, and a function of (stats by target, frames). Cells
# are counted as ``run_single`` calls, so per-cell figures read that target
# and are absent when it is gone.

def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_self(layer: str):
    names = [Tracer.name_of(t) for t in TARGETS if t.layer == layer]
    return (names, False, lambda S, f: _ms(_ratio(sum(S[n]["self_ns"] for n in names), f)))


def _per_call(name: str, key: str = "total_ns", scale=_ms):
    return ([name], False, lambda S, f: scale(_ratio(S[name][key], S[name]["calls"])))


def _repeat(name: str):
    return ([name], False, lambda S, f: _ratio(S[name]["repeats"], S[name]["calls"]))


_CODEC_IN = ("compress_grid", "compress_grid_pair")
_CODEC = ("compress_grid", "compress_grid_pair", "decompress_grid")

PER_LAYER = {
    "experiment.self_ms_per_frame": ("ms", *_layer_self("experiment")),
    "scenario.generate_ms_per_cell": ("ms", ["generate_scenario", CELL_TARGET], False,
                                      lambda S, f: _ms(_ratio(S["generate_scenario"]["total_ns"],
                                                              S[CELL_TARGET]["calls"]))),
    "scenario.gt_ms_per_frame": ("ms", ["ground_truth_at"], False,
                                 lambda S, f: _ms(_ratio(S["ground_truth_at"]["total_ns"], f))),
    "scenario.gt_repeat_share": ("share", *_repeat("ground_truth_at")),
    "sensing.sample_ms_per_call": ("ms", *_per_call("sample_point_cloud")),
    "sensing.points_per_call": ("count", ["sample_point_cloud"], True,
                                lambda S, f: _ratio(S["sample_point_cloud"]["points"],
                                                       S["sample_point_cloud"]["calls"])),
    "sensing.sample_repeat_share": ("share", *_repeat("sample_point_cloud")),
    "sensing.rasterize_ms_per_call": ("ms", *_per_call("rasterize_bev")),
    "sensing.rasterize_repeat_share": ("share", *_repeat("rasterize_bev")),
    "sensing.flow_ms_per_call": ("ms", *_per_call("extract_feature_flow")),
    "sensing.predict_ms_per_call": ("ms", *_per_call("predict_feature")),
    "channel.send_ms_per_msg": ("ms", *_per_call("send")),
    "channel.compress_ms_per_msg": ("ms", ["send", *_CODEC_IN], False,
                                    lambda S, f: _ms(_ratio(sum(S[n]["total_ns"] for n in _CODEC_IN),
                                                               S["send"]["calls"]))),
    "channel.decompress_ms_per_msg": ("ms", ["send", "decompress_grid"], False,
                                      lambda S, f: _ms(_ratio(S["decompress_grid"]["total_ns"],
                                                                 S["send"]["calls"]))),
    "channel.payload_bytes_per_msg": ("bytes", ["send"], True,
                                      lambda S, f: _ratio(S["send"]["payload_bytes"], S["send"]["calls"])),
    "channel.raw_bytes_per_msg": ("bytes", ["send"], True,
                                  lambda S, f: _ratio(S["send"]["raw_bytes"], S["send"]["calls"])),
    "channel.nonzero_cell_share": ("share", list(_CODEC_IN), True,
                                   lambda S, f: _ratio(sum(S[n]["nonzero_cells"] for n in _CODEC_IN),
                                                          sum(S[n]["grid_cells"] for n in _CODEC_IN))),
    "channel.encode_repeat_share": ("share", *_repeat("encode_message")),
    "channel.retained_mb": ("MB", ["aggregate_run"], True,
                            lambda S, f: max(S["aggregate_run"]["retained_bytes"], default=0) / MB),
    "fusion.coop_ms_per_frame": ("ms", ["cooperative_feature"], False,
                                 lambda S, f: _ms(_ratio(S["cooperative_feature"]["total_ns"], f))),
    "fusion.align_ms_per_call": ("ms", *_per_call("align_grid")),
    "fusion.fallback_share": ("share", ["cooperative_feature"], True,
                              lambda S, f: _ratio(S["cooperative_feature"]["fallbacks"],
                                                     S["cooperative_feature"]["coop_calls"])),
    "fusion.tau_ms_mean": ("ms", ["cooperative_feature"], True,
                           lambda S, f: 1e3 * _ratio(S["cooperative_feature"]["tau_s"],
                                                        S["cooperative_feature"]["coop_calls"]
                                                        - S["cooperative_feature"]["fallbacks"])),
    "detector.detect_ms_per_call": ("ms", *_per_call("detect")),
    "detector.dets_per_call": ("count", ["detect"], True,
                               lambda S, f: _ratio(S["detect"]["dets"], S["detect"]["calls"])),
    "detector.repeat_share": ("share", *_repeat("detect")),
    "tracker.step_ms_per_frame": ("ms", ["step"], False,
                                  lambda S, f: _ms(_ratio(S["step"]["total_ns"], f))),
    "tracker.tracks_per_frame": ("count", ["step"], True,
                                 lambda S, f: _ratio(S["step"]["tracks"], S["step"]["calls"])),
    "assignment.solve_ms_per_call": ("ms", *_per_call("solve_assignment")),
    "assignment.calls_per_frame": ("count", ["solve_assignment"], False,
                                   lambda S, f: _ratio(S["solve_assignment"]["calls"], f)),
    "assignment.mean_size": ("count", ["solve_assignment"], True,
                             lambda S, f: _ratio(S["solve_assignment"]["size"],
                                                    S["solve_assignment"]["calls"])),
    "metrics.clearmot_ms_per_cell": ("ms", ["evaluate_clearmot", CELL_TARGET], False,
                                     lambda S, f: _ms(_ratio(S["evaluate_clearmot"]["total_ns"],
                                                             S[CELL_TARGET]["calls"]))),
}
PER_LAYER.update({
    f"{layer}.self_ms_per_frame": ("ms", *_layer_self(layer)) for layer in LAYERS[1:]
})


def per_layer_metrics(tracer: Tracer, frames: int) -> Dict[str, Tuple[Optional[float], str]]:
    """Every PER_LAYER metric as (value, unit); value is None when absent."""
    out = {}
    for name, (unit, needs, observed, fn) in PER_LAYER.items():
        missing = [n for n in needs if n in tracer.absent or n not in tracer.stats
                   or (observed and "observe_error" in tracer.stats[n])]
        out[name] = (None if missing else float(fn(tracer.stats, frames)), unit)
    return out


def self_time_gap(tracer: Tracer, wall_ns: int) -> float:
    """|sum of all self times - wall_ns| as a share of ``wall_ns``.

    ``wall_ns`` is taken by the caller on ``Tracer.now_ns`` around the traced
    call, outside every span. Time that no span covers (untraced work in a
    target that is gone, or outside the traced calls) makes the gap grow;
    the wrappers' own entry and exit cost keeps it slightly above 0.
    """
    self_ns = sum(s["self_ns"] for s in tracer.stats.values())
    return abs(self_ns - wall_ns) / wall_ns if wall_ns else 0.0


def cell_seconds(tracer: Tracer) -> Optional[List[dict]]:
    """Traced seconds per cell, one row per (fusion, latency, seed); None when
    ``run_single`` is not traced."""
    stats = tracer.stats.get(CELL_TARGET)
    if stats is None or CELL_TARGET in tracer.absent or "observe_error" in stats:
        return None
    return [{"fusion": f, "latency_ms": lat, "seed": seed, "seconds": ns / 1e9}
            for f, lat, seed, ns in stats["cells"]]
