"""Infrastructure-to-vehicle link: byte-exact encoding, compression, latency.

Wire formats (little-endian throughout):

* box record: 7 x float32 (x, y, z, w, l, h, yaw) + uint8 category code +
  float32 score = 33 bytes
* point record: 4 x float32 (x, y, z, intensity) = 16 bytes
* raw grid: C-order float32 values only (the spec travels in the run
  config), so a rows x cols x channels grid costs exactly rows*cols*channels*4
* compressed grid: 28-byte spec header (5 x int32: cols, rows, channels,
  x0 in millimeters, y0 in millimeters; 2 x float32: cell size, timestamp),
  1 payload-kind byte (0: one grid; 2: a grid and its flow), then per block:
  per-channel (min, max) float32 pairs, a uint32 run count, alternating
  zero/nonzero run lengths (uint32, starting with a zero run), and the
  nonzero cells' channel values quantized to 8 bits between the channel
  min and max; last, a length-prefixed UTF-8 frame tag

Compression is per-channel linear 8-bit quantization plus run-length coding
of all-zero cells; zero cells decode to exactly 0 and constant channels
decode exactly. A message's ``content`` is its wire bytes; the receiver
rebuilds the payload from them with ``decode_message``, quantization and
float32 rounding included.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigurationError, DecodeError, EncodeError, NumericError, OrderingError,
                     ShapeMismatchError)
from .geometry import CATEGORY_ORDER, Boxes, wrap_angle
from .sensing import FeatureGrid, GridSpec, PointCloud, View

GRID_HEADER = struct.Struct("<5i2f")
CHANNEL_RANGE = struct.Struct("<2f")
# One packed "<7fBf" record per box: the whole payload is one array of these.
BOX_RECORD = np.dtype([("box", "<f4", (7,)), ("category", "u1"), ("score", "<f4")])

_KIND_GRID = 0
_KIND_GRID_WITH_FLOW = 2


class MessageKind(Enum):
    RAW_POINTS = "raw_points"
    DETECTIONS = "detections"
    FEATURE = "feature"
    FEATURE_WITH_FLOW = "feature_with_flow"


@dataclass(frozen=True)
class ChannelMessage:
    """A timestamped payload's wire bytes with exact byte accounting.

    ``payload_bytes`` is the size actually sent; ``raw_bytes`` is what the
    same content would cost uncompressed (equal when compression is off).
    ``t_arrive`` is None until the message passes through a latency model.
    ``content`` is None once a channel has released the bytes.
    """

    kind: MessageKind
    payload_bytes: int
    t_send: float
    t_arrive: Optional[float]
    content: Optional[bytes]
    raw_bytes: int

    def arrived_by(self, t_now: float) -> bool:
        return self.t_arrive is not None and self.t_arrive <= t_now


@dataclass(frozen=True)
class LatencyModel:
    """Transport delay: constant, plus uniform jitter when ``jitter_ms > 0``."""

    base_ms: float = 0.0
    jitter_ms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.base_ms < 0 or self.jitter_ms < 0:
            raise ConfigurationError("latency parameters must be non-negative")

    def delay_s(self, message_index: int) -> float:
        if self.jitter_ms == 0.0:
            return self.base_ms / 1000.0
        rng = np.random.default_rng([self.seed, message_index])
        return (self.base_ms + rng.uniform(0.0, self.jitter_ms)) / 1000.0


def _spec_header_bytes(spec: GridSpec, timestamp: float) -> bytes:
    try:
        x0_mm = int(round(spec.x0 * 1000.0))
        y0_mm = int(round(spec.y0 * 1000.0))
        return GRID_HEADER.pack(spec.cols, spec.rows, spec.channels, x0_mm, y0_mm,
                                spec.cell_size, timestamp)
    except (struct.error, OverflowError, ValueError) as exc:
        raise EncodeError(f"{spec} at t={timestamp} does not fit the grid header: {exc}") from None


def _parse_spec_header(data: bytes, expected: GridSpec):
    if len(data) < GRID_HEADER.size:
        raise DecodeError("truncated grid header")
    cols, rows, channels, x0_mm, y0_mm, cell, timestamp = GRID_HEADER.unpack_from(data, 0)
    # The receiver knows the sender's grid from the run config; checking the
    # header against it bounds every allocation below by that grid's size.
    try:
        want = GRID_HEADER.unpack(_spec_header_bytes(expected, 0.0))[:6]
    except EncodeError as exc:
        raise DecodeError(f"no grid header can match the expected grid: {exc}") from None
    if (cols, rows, channels, x0_mm, y0_mm, cell) != want:
        raise DecodeError(
            f"grid header (cols, rows, channels, x0_mm, y0_mm, cell) = "
            f"{(cols, rows, channels, x0_mm, y0_mm, cell)} does not match the expected {want}"
        )
    spec = GridSpec(x0=x0_mm / 1000.0, y0=y0_mm / 1000.0, cell_size=float(cell),
                    cols=cols, rows=rows, channels=channels)
    return spec, float(timestamp), GRID_HEADER.size


def _nonzero_cells(runs: np.ndarray) -> np.ndarray:
    """Flat indices of the cells in the nonzero (odd) runs of an int64 run table."""
    lengths = runs[1::2]
    # The k-th nonzero cell, in run j, is k plus the zero cells up to run j's end.
    zeros_before = np.cumsum(runs)[1::2] - np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(zeros_before, lengths)


def _compress_values(values: np.ndarray) -> bytes:
    """One block: channel ranges, zero-cell runs, quantized nonzero cells.

    One pass over every cell finds the nonzero ones; the ranges and codes
    are then taken over those cells alone.
    """
    channels = values.shape[2]
    flat = values.reshape(-1, channels)
    n = len(flat)
    unequal = flat != 0.0
    nonzero = unequal[:, 0].copy()
    for ch in range(1, channels):
        nonzero |= unequal[:, ch]

    # Alternating run lengths over flattened cells, starting with a zero run.
    edges = np.flatnonzero(nonzero[1:] != nonzero[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [n])))
    if nonzero[0]:
        runs = np.concatenate(([0], runs))
    index = _nonzero_cells(runs)
    cells = flat.take(index, axis=0)

    # Zero cells add 0.0 to every channel's range. Of equal values the row-wise
    # min/max keeps the later one, so a zero bound takes the sign of the last
    # zero in its column: the last zero cell joins the reduction in place.
    bounded = cells
    if len(index) < n:
        last = edges[-1] - 1 if nonzero[-1] else n - 1
        i = np.searchsorted(index, last)
        bounded = np.concatenate((cells[:i], flat[last:last + 1], cells[i:]))
    mins = bounded.min(axis=0)
    maxs = bounded.max(axis=0)
    with np.errstate(over="ignore"):
        table = np.stack([mins, maxs], axis=1).astype("<f4")
    if not np.all(np.isfinite(table)):
        raise EncodeError("grid values lie beyond the float32 range")

    spans = maxs - mins
    live = spans > 0
    codes = np.zeros(cells.shape, dtype=np.uint8)
    codes[:, live] = np.round((cells[:, live] - mins[live]) / spans[live] * 255.0)
    return b"".join([table.tobytes(), struct.pack("<I", len(runs)),
                     runs.astype("<u4").tobytes(), codes.tobytes()])


def _decompress_values(data: bytes, offset: int, spec: GridSpec):
    channels = spec.channels
    need = channels * CHANNEL_RANGE.size + 4
    if len(data) < offset + need:
        raise DecodeError("truncated channel table")
    table = np.frombuffer(data, dtype="<f4", count=2 * channels, offset=offset).astype(float)
    offset += channels * CHANNEL_RANGE.size
    if not np.all(np.isfinite(table)):
        raise DecodeError("non-finite channel range")
    mins, maxs = table[0::2], table[1::2]
    (n_runs,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if len(data) < offset + 4 * n_runs:
        raise DecodeError("truncated run table")
    runs = np.frombuffer(data, dtype="<u4", count=n_runs, offset=offset).astype(np.int64)
    offset += 4 * n_runs

    n_cells = spec.rows * spec.cols
    if runs.sum() != n_cells:
        raise DecodeError(f"run lengths cover {runs.sum()} cells, expected {n_cells}")
    n_nz = int(runs[1::2].sum())
    if len(data) < offset + n_nz * channels:
        raise DecodeError("truncated value stream")
    codes = np.frombuffer(data, dtype=np.uint8, count=n_nz * channels, offset=offset)
    codes = codes.reshape(n_nz, channels).astype(float)
    offset += n_nz * channels

    flat = np.zeros((n_cells, channels))
    spans = maxs - mins
    flat[_nonzero_cells(runs)] = np.where(spans > 0, mins + codes / 255.0 * spans, mins)
    return flat.reshape(spec.rows, spec.cols, channels), offset


def compress_grid(g: FeatureGrid) -> bytes:
    """Serialize one grid (a flow is a grid too) with quantization and zero-cell RLE."""
    header = _spec_header_bytes(g.spec, g.timestamp)
    return header + bytes([_KIND_GRID]) + _compress_values(g.values) + _frame_tag(g.frame)


def compress_grid_pair(f0: FeatureGrid, f1: FeatureGrid) -> bytes:
    """Serialize a grid and its flow sharing one spec header."""
    if f0.spec != f1.spec:
        raise ShapeMismatchError("grid and flow must share a spec")
    header = _spec_header_bytes(f0.spec, f0.timestamp)
    return (header + bytes([_KIND_GRID_WITH_FLOW]) + _compress_values(f0.values)
            + _compress_values(f1.values) + _frame_tag(f0.frame))


def _frame_tag(frame: str) -> bytes:
    raw = frame.encode("utf-8")
    if len(raw) > 255:
        raise EncodeError(f"frame tag of {len(raw)} UTF-8 bytes exceeds the 255 the wire holds")
    return bytes([len(raw)]) + raw


def _parse_frame_tag(data: bytes, offset: int) -> Tuple[str, int]:
    if len(data) < offset + 1:
        raise DecodeError("missing frame tag")
    n = data[offset]
    if len(data) < offset + 1 + n:
        raise DecodeError("truncated frame tag")
    try:
        frame = data[offset + 1 : offset + 1 + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"frame tag is not UTF-8: {exc}") from None
    return frame, offset + 1 + n


def decompress_grid(data: bytes, expected: GridSpec):
    """Inverse of compress_grid / compress_grid_pair for a receiver of ``expected`` grids.

    Returns a FeatureGrid, or a (grid, flow) pair of FeatureGrids sharing
    the header's timestamp and the frame tag, depending on what was encoded.
    Raises DecodeError on any malformed stream, including a header whose
    shape, origin or cell size is not ``expected``'s; that check comes
    before anything is allocated.
    """
    spec, timestamp, offset = _parse_spec_header(data, expected)
    if len(data) < offset + 1:
        raise DecodeError("missing payload kind byte")
    kind = data[offset]
    offset += 1
    if kind not in (_KIND_GRID, _KIND_GRID_WITH_FLOW):
        raise DecodeError(f"unknown payload kind byte {kind}")
    blocks = []
    for _ in range(1 if kind == _KIND_GRID else 2):
        values, offset = _decompress_values(data, offset, spec)
        blocks.append(values)
    frame, _ = _parse_frame_tag(data, offset)
    grids = tuple(FeatureGrid(spec=spec, values=v, timestamp=timestamp, frame=frame)
                  for v in blocks)
    return grids if kind == _KIND_GRID_WITH_FLOW else grids[0]


def _float32(values: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        values = values.astype("<f4")
    if not np.all(np.isfinite(values)):
        raise EncodeError("values lie beyond the float32 range")
    return values


def encode_message(
    kind: MessageKind,
    content,
    compress: bool,
    t_send: float,
) -> ChannelMessage:
    """Serialize content for transmission and account bytes exactly.

    ``compress`` selects the compressed grid format over raw float32 for
    grid payloads. The message's ``content`` is the wire bytes, which only
    ``decode_message`` turns back into a payload. Raises EncodeError if a
    value, a grid's origin or the frame tag does not fit the wire format.
    """
    if kind is MessageKind.RAW_POINTS:
        if not isinstance(content, PointCloud):
            raise EncodeError("raw_points content must be a PointCloud")
        data = _float32(content.points).tobytes()
        raw = len(data)
    elif kind is MessageKind.DETECTIONS:
        if not isinstance(content, Boxes):
            raise EncodeError("detections content must be Boxes")
        records = np.empty(len(content), dtype=BOX_RECORD)
        records["box"], records["category"], records["score"] = (
            _float32(content.values), content.category, _float32(content.score))
        data = records.tobytes()
        raw = len(data)
    elif kind is MessageKind.FEATURE:
        if not isinstance(content, FeatureGrid):
            raise EncodeError("feature content must be a FeatureGrid")
        raw = 4 * content.values.size
        data = compress_grid(content) if compress else _float32(content.values).tobytes()
    elif kind is MessageKind.FEATURE_WITH_FLOW:
        f0, f1 = content
        if f0.spec != f1.spec:
            raise ShapeMismatchError("feature and flow must share a spec")
        raw = 4 * (f0.values.size + f1.values.size)
        data = (compress_grid_pair(f0, f1) if compress
                else _float32(f0.values).tobytes() + _float32(f1.values).tobytes())
    else:
        raise EncodeError(f"unknown message kind {kind}")

    return ChannelMessage(kind=kind, payload_bytes=len(data), t_send=t_send,
                          t_arrive=None, content=data, raw_bytes=raw)


def _decode_boxes(data: bytes) -> Boxes:
    if len(data) % BOX_RECORD.itemsize:
        raise DecodeError(f"{len(data)} bytes are not a whole number of box records")
    records = np.frombuffer(data, dtype=BOX_RECORD)
    codes = records["category"]
    if (codes >= len(CATEGORY_ORDER)).any():
        raise DecodeError(f"unknown category code {codes.max()}")
    values = records["box"].astype(float)
    with np.errstate(invalid="ignore"):  # a non-finite yaw fails the record's check
        values[:, 6] = wrap_angle(values[:, 6])
    return Boxes(values, codes.copy(), records["score"].astype(float))


def decode_message(msg: ChannelMessage, expected: GridSpec, compression: bool):
    """The payload a receiver rebuilds from a message's wire bytes.

    ``expected`` is the infra grid and ``compression`` the grid format, both
    known to the receiver from the run config. Returns a PointCloud, the
    detected Boxes, a FeatureGrid or a (grid, flow) pair, by the message's
    kind. Points and raw grids carry no time or frame on the wire: they
    take the message's send time and the infra frame. Raises DecodeError on
    any malformed payload, including non-finite values, an unknown category
    code and a grid payload of the other kind.
    """
    kind, data = msg.kind, msg.content
    try:
        if kind is MessageKind.RAW_POINTS:
            if len(data) % 16:
                raise DecodeError(f"{len(data)} bytes are not a whole number of point records")
            return PointCloud(np.frombuffer(data, dtype="<f4").reshape(-1, 4),
                              View.INFRA.value, msg.t_send)
        if kind is MessageKind.DETECTIONS:
            return _decode_boxes(data)
        if kind not in (MessageKind.FEATURE, MessageKind.FEATURE_WITH_FLOW):
            raise DecodeError(f"unknown message kind {kind}")
        pair = kind is MessageKind.FEATURE_WITH_FLOW
        if compression:
            grids = decompress_grid(data, expected)
            if isinstance(grids, tuple) != pair:
                raise DecodeError(f"a {kind.value} message carries the other grid payload kind")
            return grids
        shape = (1 + pair, *expected.shape)
        if len(data) != 4 * math.prod(shape):
            raise DecodeError(f"{len(data)} bytes do not hold {shape[0]} raw grids of {expected}")
        grids = tuple(FeatureGrid(spec=expected, values=v, timestamp=msg.t_send,
                                  frame=View.INFRA.value)
                      for v in np.frombuffer(data, dtype="<f4").reshape(shape))
        return grids if pair else grids[0]
    except (ConfigurationError, NumericError) as exc:  # a field the payload types reject
        raise DecodeError(f"{kind.value} payload: {exc}") from None


def transmit(m: ChannelMessage, lm: LatencyModel, message_index: int = 0) -> ChannelMessage:
    """Stamp the arrival time from the latency model."""
    return replace(m, t_arrive=m.t_send + lm.delay_s(message_index))


def bps(messages: Sequence[ChannelMessage], duration_s: float) -> Tuple[float, float]:
    """(Pre-compression, transmitted) bytes per second over a window starting at time zero."""
    if duration_s <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration_s}")
    raw = sent = 0
    for m in messages:
        if m.t_send <= duration_s:
            raw += m.raw_bytes
            sent += m.payload_bytes
    return raw / duration_s, sent / duration_s


@dataclass
class Channel:
    """Single-writer event log of transmitted messages for one run.

    Queries through ``latest`` must come at non-decreasing times. A message
    sent before one that has already arrived can never be the latest again,
    so ``latest`` drops its wire bytes (``content`` becomes None) and keeps
    its byte and time fields: memory stays bounded by the messages still in
    flight, while ``bps`` and ``export_jsonl`` see every message.
    """

    latency: LatencyModel
    messages: List[ChannelMessage] = field(default_factory=list)
    _released: int = field(default=0, init=False, repr=False)  # no content before this
    _t_last: float = field(default=-np.inf, init=False, repr=False)

    def send(self, msg: ChannelMessage) -> ChannelMessage:
        """Transmit a message made by ``encode_message``; one encoding can feed many channels."""
        msg = transmit(msg, self.latency, message_index=len(self.messages))
        self.messages.append(msg)
        return msg

    def latest(self, t_now: float) -> Optional[ChannelMessage]:
        if t_now < self._t_last:
            raise OrderingError(f"channel queried at {t_now} after {self._t_last}")
        self._t_last = t_now
        for i in range(len(self.messages) - 1, self._released - 1, -1):
            if self.messages[i].arrived_by(t_now):
                for j in range(self._released, i):
                    self.messages[j] = replace(self.messages[j], content=None)
                self._released = i
                return self.messages[i]
        return None

    def export_jsonl(self, path) -> None:
        """Audit log: one line per message with times, kind and sizes."""
        with open(path, "w", encoding="utf-8") as fh:
            for m in self.messages:
                fh.write(json.dumps({
                    "t_send": m.t_send,
                    "t_arrive": m.t_arrive,
                    "kind": m.kind.value,
                    "payload_bytes": m.payload_bytes,
                    "raw_bytes": m.raw_bytes,
                }) + "\n")
