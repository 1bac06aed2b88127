"""Property tests of the codec and decoder, the raster, prediction and assignment."""

import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cotrack.assignment import solve_assignment
from cotrack.channel import (BOX_RECORD, ChannelMessage, MessageKind, compress_grid,
                             compress_grid_pair, decode_message, decompress_grid)
from cotrack.detector import Detection
from cotrack.errors import DecodeError
from cotrack.sensing import (
    FeatureGrid,
    GridSpec,
    PointCloud,
    predict_feature,
    rasterize_bev,
)
from oracle_utils import brute_force_assignment

SPEC = GridSpec(x0=-2.0, y0=-1.5, cell_size=0.5, cols=8, rows=6)
finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
grid_values = hnp.arrays(np.float64, SPEC.shape, elements=finite)


@st.composite
def sparse_values(draw):
    """Grid values with a random share of all-zero cells, as real grids have."""
    values = draw(grid_values)
    zero = draw(hnp.arrays(np.bool_, SPEC.shape[:2]))
    values[zero] = 0.0
    return values


def bounded_shape(data: bytes) -> bytes:
    """Clamp a header's cols and rows to at most 64 each.

    A decoder that trusted the header would allocate cols * rows cells; the
    clamp keeps this test from ever asking for more, even against such a
    decoder.
    """
    if len(data) < 8:
        return data
    shape = [n if 1 <= n <= 64 else 1 + n % 64 for n in struct.unpack_from("<2i", data)]
    return struct.pack("<2i", *shape) + data[8:]


@st.composite
def real_payload(draw):
    """A compressed grid, flow or grid+flow pair of ``SPEC``."""
    grid = FeatureGrid(SPEC, draw(sparse_values()), 0.5, "infra")
    flow = FeatureGrid(SPEC, draw(sparse_values()), 0.5, "infra")
    return draw(st.sampled_from([compress_grid(grid), compress_grid(flow),
                                 compress_grid_pair(grid, flow)]))


@st.composite
def mutated_payload(draw):
    data = bytearray(draw(real_payload()))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "truncate", "insert"]))
        pos = draw(st.integers(0, len(data)))
        if op == "flip" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif op == "truncate":
            del data[pos:]
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bounded_shape(bytes(data))


class TestDecoderFuzz:
    @given(data=st.one_of(st.binary(max_size=200).map(bounded_shape), mutated_payload()))
    def test_value_or_decode_error(self, data):
        try:
            out = decompress_grid(data, SPEC)
        except DecodeError:
            return
        parts = out if isinstance(out, tuple) else (out,)
        for part in parts:
            assert isinstance(part, FeatureGrid)
            assert part.values.shape == SPEC.shape

    @given(cols=st.integers(1, 64), rows=st.integers(1, 64))
    def test_header_for_another_grid_is_rejected(self, cols, rows):
        other = GridSpec(x0=SPEC.x0, y0=SPEC.y0, cell_size=SPEC.cell_size, cols=cols, rows=rows)
        data = compress_grid(FeatureGrid(other, np.zeros(other.shape), 0.0, "infra"))
        if (cols, rows) == (SPEC.cols, SPEC.rows):
            assert not decompress_grid(data, SPEC).values.any()
        else:
            try:
                decompress_grid(data, SPEC)
            except DecodeError:
                return
            raise AssertionError("a header for another grid must raise DecodeError")


float32s = st.floats(width=32)  # NaN and both infinities included
RAW = False


@st.composite
def record_payload(draw):
    """Wire bytes of points, boxes or raw grids of ``SPEC`` with their message
    kind: whole records of any float32 and any category code, maybe cut or
    lengthened so they are no whole number of records, or arbitrary bytes."""
    kind = draw(st.sampled_from(list(MessageKind)))
    if draw(st.integers(0, 4)) == 0:
        return kind, draw(st.binary(max_size=200))
    if kind is MessageKind.RAW_POINTS:
        values = draw(st.lists(float32s, max_size=32).map(lambda v: v[: len(v) // 4 * 4]))
        data = struct.pack(f"<{len(values)}f", *values)
    elif kind is MessageKind.DETECTIONS:
        field = st.one_of(st.floats(0.25, 8.0, width=32), float32s)
        record = st.tuples(st.lists(field, min_size=7, max_size=7),
                           st.one_of(st.integers(0, 3), st.integers(4, 255)),
                           st.one_of(st.floats(0.0, 1.0, width=32), float32s))
        data = b"".join(BOX_RECORD.pack(*box, code, score)
                        for box, code, score in draw(st.lists(record, max_size=4)))
    else:
        blocks = draw(st.integers(0, 3))
        cells = hnp.arrays(np.float32, (blocks, *SPEC.shape), elements=st.one_of(
            st.just(0.0), st.floats(-1e3, 1e3, width=32), float32s))
        data = draw(cells).astype("<f4").tobytes()
    op = draw(st.sampled_from(["keep", "truncate", "extend"]))
    if op == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif op == "extend":
        data += draw(st.binary(min_size=1, max_size=7))
    return kind, data


class TestRecordDecoderFuzz:
    @given(payload=record_payload())
    def test_value_or_decode_error(self, payload):
        kind, data = payload
        msg = ChannelMessage(kind=kind, payload_bytes=len(data), t_send=0.5, t_arrive=0.5,
                             content=data, raw_bytes=len(data))
        floats = np.frombuffer(data[: len(data) // 4 * 4], dtype="<f4")
        grids = 1 + (kind is MessageKind.FEATURE_WITH_FLOW)
        well_formed = np.all(np.isfinite(floats)) and {
            MessageKind.RAW_POINTS: len(data) % 16 == 0,
            MessageKind.DETECTIONS: False,  # validity depends on dims, codes and scores
        }.get(kind, len(data) == 4 * grids * SPEC.rows * SPEC.cols * SPEC.channels)
        try:
            out = decode_message(msg, SPEC, RAW)
        except DecodeError:
            assert not well_formed
            return
        if kind is MessageKind.RAW_POINTS:
            assert isinstance(out, PointCloud)
            assert out.points.astype("<f4").tobytes() == data
        elif kind is MessageKind.DETECTIONS:
            assert len(out) == len(data) // BOX_RECORD.size
            assert all(isinstance(d, Detection) for d in out)
        else:
            parts = out if isinstance(out, tuple) else (out,)
            assert len(parts) == grids
            assert all(isinstance(p, FeatureGrid) and p.spec == SPEC for p in parts)
            assert b"".join(p.values.astype("<f4").tobytes() for p in parts) == data


class TestCompressionBound:
    @given(values=sparse_values())
    def test_error_within_span_over_255(self, values):
        out = decompress_grid(compress_grid(FeatureGrid(SPEC, values, 0.0, "infra")), SPEC)
        for ch in range(SPEC.channels):
            v = values[:, :, ch]
            lo, hi = v.min(), v.max()
            # The channel range travels as float32, so its rounding adds to
            # the quantization bound; it is zero when lo and hi are float32.
            wire = max(abs(float(np.float32(lo)) - lo), abs(float(np.float32(hi)) - hi))
            slack = 8 * np.finfo(float).eps * max(abs(lo), abs(hi))
            err = np.abs(out.values[:, :, ch] - v)
            assert err.max() <= (hi - lo) / 255.0 + wire + slack
            assert np.all(out.values[:, :, ch][~values.any(axis=2)] == 0.0)


@st.composite
def points(draw):
    """(N, 4) points: x, y on a coarse lattice, so many share a cell; z and
    intensity free floats (accumulation order would show in their sums) or
    a few repeated values (ties in the sort)."""
    n = draw(st.integers(0, 60))
    xy = draw(hnp.arrays(np.float64, (n, 2), elements=st.integers(-6, 6).map(lambda v: v / 2.0)))
    zi = draw(hnp.arrays(np.float64, (n, 2), elements=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0]), st.floats(-3.0, 3.0, allow_nan=False))))
    return np.hstack([xy, zi])



class TestRaster:
    @given(pts=points(), data=st.data())
    def test_permutation_invariant(self, pts, data):
        order = data.draw(st.permutations(range(len(pts))))
        a = rasterize_bev(PointCloud(pts, "infra", 0.0), SPEC)
        b = rasterize_bev(PointCloud(pts[list(order)], "infra", 0.0), SPEC)
        assert a.values.tobytes() == b.values.tobytes()

    @given(pts=points(), flow=grid_values)
    def test_predict_at_zero_horizon_is_the_input_bit_for_bit(self, pts, flow):
        f0 = rasterize_bev(PointCloud(pts, "infra", 1.0), SPEC)
        out = predict_feature(f0, FeatureGrid(SPEC, flow, 1.0, "infra"), 0.0)
        assert out.values.tobytes() == f0.values.tobytes()
        assert out.timestamp == f0.timestamp and out.spec == f0.spec


class TestAssignment:
    @given(data=st.data())
    def test_equals_brute_force_with_tie_break(self, data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        # Small integers (and halves) make ties common and sums exact.
        cost = data.draw(hnp.arrays(np.float64, (n, m),
                                    elements=st.integers(-6, 6).map(lambda v: v / 2.0)))
        _, expected = brute_force_assignment(cost)
        assert solve_assignment(cost) == expected
