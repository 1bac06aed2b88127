import math
import struct
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from cotrack import channel
from cotrack.channel import (
    GRID_HEADER,
    Channel,
    ChannelMessage,
    LatencyModel,
    MessageKind,
    bps,
    compress_grid,
    compress_grid_pair,
    decode_message,
    decompress_grid,
    encode_message,
    transmit,
)
from cotrack.errors import ConfigurationError, DecodeError, EncodeError, ShapeMismatchError
from cotrack.geometry import Category
from cotrack.sensing import (MAX_CELL_SIZE_M, MAX_GRID_ORIGIN_M, MIN_CELL_SIZE_M, FeatureGrid,
                             GridSpec, PointCloud)
from oracle_utils import (Box3D, Detection, _encode_detections, _encode_points, _raw_grid,
                          boxes_of, detections_of, latest_available, record_of, rows_of)

SPEC = GridSpec(x0=0.0, y0=-40.0, cell_size=0.5, cols=200, rows=160)
SMALL = GridSpec(x0=-4.0, y0=-4.0, cell_size=0.5, cols=16, rows=16)
RAW = False
COMPRESSED = True


def grid(values, spec=SPEC, t=0.0):
    return FeatureGrid(spec=spec, values=values, timestamp=t, frame="infra")


def detections(n):
    return record_of([Box3D(x=float(i), y=0.0, z=0.75, w=1.8, l=4.5, h=1.5, category=Category.VAN)
                      for i in range(n)], [0.5] * n)


class TestEncode:
    def test_detections_are_33_bytes_each(self):
        msg = encode_message(MessageKind.DETECTIONS, detections(10), RAW, 0.0)
        assert msg.payload_bytes == 330
        assert msg.raw_bytes == 330
        # round-tripped boxes are float32-quantized but structurally equal
        decoded = rows_of(decode_message(msg, SPEC, RAW))
        assert len(decoded) == 10
        assert decoded[3].category is Category.VAN
        assert decoded[3].x == pytest.approx(3.0)

    @pytest.mark.parametrize("column", range(7))
    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_a_box_field_beyond_float32_is_an_encode_error(self, column, value):
        boxes = detections(3)
        boxes.values[1, column] = value
        with pytest.raises(EncodeError, match="float32 range"):
            encode_message(MessageKind.DETECTIONS, boxes, RAW, 0.0)

    def test_the_largest_float32_box_field_encodes(self):
        boxes = detections(1)
        boxes.values[0, 0] = float(np.finfo(np.float32).max)
        msg = encode_message(MessageKind.DETECTIONS, boxes, RAW, 0.0)
        assert decode_message(msg, SPEC, RAW).values[0, 0] == boxes.values[0, 0]

    def test_detections_content_must_be_boxes(self):
        with pytest.raises(EncodeError, match="Boxes"):
            encode_message(MessageKind.DETECTIONS, [Detection(Box3D(0, 0, 0, 1, 1, 1), 0.5)],
                           RAW, 0.0)

    def test_detection_bps_at_ten_hertz(self):
        msgs = [
            transmit(encode_message(MessageKind.DETECTIONS, detections(10), RAW, 0.1 * k),
                     LatencyModel())
            for k in range(10)
        ]
        assert bps(msgs, 1.0) == pytest.approx((3.3e3, 3.3e3))

    def test_uncompressed_feature_is_exactly_raw_float32(self):
        g = grid(np.random.default_rng(0).random(SPEC.shape))
        msg = encode_message(MessageKind.FEATURE, g, RAW, 0.0)
        assert msg.payload_bytes == 200 * 160 * 3 * 4 == 384000

    def test_uncompressed_pair_is_exactly_double(self):
        g = grid(np.random.default_rng(0).random(SPEC.shape))
        flow = grid(np.random.default_rng(1).standard_normal(SPEC.shape))
        single = encode_message(MessageKind.FEATURE, g, RAW, 0.0)
        pair = encode_message(MessageKind.FEATURE_WITH_FLOW, (g, flow), RAW, 0.0)
        assert pair.payload_bytes == 2 * single.payload_bytes

    def test_compressed_pair_within_one_header_of_double(self):
        vals = np.random.default_rng(2).random(SPEC.shape)
        g = grid(vals)
        flow = grid(vals.copy())
        single = encode_message(MessageKind.FEATURE, g, COMPRESSED, 0.0)
        pair = encode_message(MessageKind.FEATURE_WITH_FLOW, (g, flow), COMPRESSED, 0.0)
        header_allowance = 28 + 1 + 3 * 8 + 16
        assert abs(pair.payload_bytes - 2 * single.payload_bytes) <= header_allowance

    def test_raw_points_sixteen_bytes_each(self):
        pts = np.random.default_rng(3).random((25, 4))
        msg = encode_message(MessageKind.RAW_POINTS, PointCloud(pts, "infra", 0.0), RAW, 0.0)
        assert msg.payload_bytes == 400

    def test_compressed_content_is_what_receiver_decodes(self):
        vals = np.random.default_rng(5).random(SPEC.shape)
        msg = encode_message(MessageKind.FEATURE, grid(vals), COMPRESSED, 0.0)
        assert msg.content == compress_grid(grid(vals))
        direct = decompress_grid(compress_grid(grid(vals)), SPEC)
        assert np.array_equal(decode_message(msg, SPEC, COMPRESSED).values, direct.values)


class TestCompression:
    def test_all_zero_grid_tiny_and_exact(self):
        g = grid(np.zeros(SPEC.shape))
        data = compress_grid(g)
        assert len(data) < 100
        out = decompress_grid(data, SPEC)
        assert not out.values.any()
        assert out.spec == SPEC

    def test_constant_grid_exact(self):
        g = grid(np.full(SPEC.shape, 1.0))
        out = decompress_grid(compress_grid(g), SPEC)
        assert np.array_equal(out.values, np.full(SPEC.shape, 1.0))

    def test_random_grid_quantization_bound(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-3.0, 9.0, SMALL.shape)
        vals[rng.random(SMALL.shape[:2]) < 0.3] = 0.0
        g = grid(vals, spec=SMALL)
        out = decompress_grid(compress_grid(g), SMALL)
        for ch in range(SMALL.channels):
            span = vals[:, :, ch].max() - vals[:, :, ch].min()
            err = np.abs(out.values[:, :, ch] - vals[:, :, ch]).max()
            assert err <= span / 255.0 + 1e-12

    def test_zero_cells_restore_exactly(self):
        vals = np.random.default_rng(8).uniform(1.0, 2.0, SMALL.shape)
        vals[3:6, 3:6, :] = 0.0
        out = decompress_grid(compress_grid(grid(vals, spec=SMALL)), SMALL)
        assert (out.values[3:6, 3:6, :] == 0.0).all()

    def test_flow_roundtrip_and_kind(self):
        # A flow is a grid of per-second rates: it travels and decodes as a grid.
        flow = grid(np.random.default_rng(9).standard_normal(SMALL.shape), spec=SMALL, t=1.5)
        data = compress_grid(flow)
        assert data[GRID_HEADER.size] == 0  # the one-grid payload kind
        out = decompress_grid(data, SMALL)
        assert isinstance(out, FeatureGrid)
        assert out.timestamp == pytest.approx(1.5, abs=1e-6)
        assert out.frame == "infra"

    def test_lone_flow_kind_byte_rejected(self):
        data = bytearray(compress_grid(grid(np.ones(SMALL.shape), spec=SMALL)))
        data[GRID_HEADER.size] = 1  # an older format's lone flow must not decode
        with pytest.raises(DecodeError, match="unknown payload kind byte 1"):
            decompress_grid(bytes(data), SMALL)

    def test_pair_roundtrip(self):
        g = grid(np.random.default_rng(10).random(SMALL.shape), spec=SMALL)
        flow = grid(np.random.default_rng(11).standard_normal(SMALL.shape), spec=SMALL)
        f0, f1 = decompress_grid(compress_grid_pair(g, flow), SMALL)
        assert isinstance(f0, FeatureGrid) and isinstance(f1, FeatureGrid)
        assert f0.spec == f1.spec == SMALL
        assert f0.timestamp == f1.timestamp and f0.frame == f1.frame == "infra"

    def test_malformed_streams_rejected(self):
        g = grid(np.random.default_rng(12).random(SMALL.shape), spec=SMALL)
        data = compress_grid(g)
        with pytest.raises(DecodeError):
            decompress_grid(data[:10], SMALL)
        with pytest.raises(DecodeError):
            decompress_grid(data[:-20], SMALL)
        with pytest.raises(DecodeError):
            decompress_grid(b"\x00" * 40, SMALL)

    def test_non_finite_range_and_bad_frame_tag_rejected(self):
        data = bytearray(compress_grid(grid(np.ones(SMALL.shape), spec=SMALL)))
        bad_tag = bytes(data[:-6]) + bytes([1, 0xFF])  # "infra" tag -> one invalid UTF-8 byte
        with pytest.raises(DecodeError, match="UTF-8"):
            decompress_grid(bad_tag, SMALL)
        data[29:33] = struct.pack("<f", float("nan"))  # channel 0 minimum
        with pytest.raises(DecodeError, match="non-finite"):
            decompress_grid(bytes(data), SMALL)

    def test_header_of_another_grid_rejected_before_allocating(self):
        # A well-formed 1500 x 1500 all-zero grid: one zero run covers it.
        # Decoding it would allocate 54 MB; the receiver expects SMALL.
        data = (struct.pack("<5i2f", 1500, 1500, 3, 0, 0, 0.5, 0.0) + bytes([0])
                + struct.pack("<6f", *([0.0] * 6)) + struct.pack("<2I", 1, 1500 * 1500)
                + bytes([0]))
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="does not match"):
                decompress_grid(data, SMALL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_expected_grid_beyond_the_header_rejected(self):
        # No header can describe a grid of 2**31 channels (a spec's origin and
        # cell size are capped to fit); the receiver's own spec is not an
        # encoding error.
        wide = GridSpec(x0=0.0, y0=0.0, cell_size=1.0, cols=1, rows=1, channels=2**31)
        with pytest.raises(DecodeError, match="expected grid"):
            decompress_grid(b"\0" * 40, wide)


# A grid at every cap: the farthest origin on both axes and the largest cell.
AT_CAPS = dict(x0=-MAX_GRID_ORIGIN_M, y0=MAX_GRID_ORIGIN_M, cell_size=MAX_CELL_SIZE_M, cols=3,
               rows=2)


class TestGridHeaderCaps:
    """A grid origin past int32 millimetres (3e6 m) or a cell size past
    float32 (1e39 m) was once a valid spec, and every cell of a seed then
    failed with EncodeError, ``vehicle_only`` and ``late`` included."""

    @pytest.mark.parametrize("caps", [AT_CAPS, {**AT_CAPS, "x0": MAX_GRID_ORIGIN_M,
                                                "y0": -MAX_GRID_ORIGIN_M,
                                                "cell_size": MIN_CELL_SIZE_M}],
                             ids=["max_cell", "min_cell"])
    def test_a_spec_at_the_caps_packs_its_header(self, caps):
        spec = GridSpec(**caps)
        values = np.arange(np.prod(spec.shape), dtype=float).reshape(spec.shape)
        out = decompress_grid(compress_grid(grid(values, spec=spec, t=1.5)), spec)
        assert (out.spec.x0, out.spec.y0, out.spec.cols, out.spec.rows) == (
            spec.x0, spec.y0, spec.cols, spec.rows)
        assert out.spec.cell_size == float(np.float32(spec.cell_size))
        assert out.timestamp == 1.5 and out.values.shape == spec.shape

    @pytest.mark.parametrize("field,cap,outward", [
        ("x0", -MAX_GRID_ORIGIN_M, -math.inf), ("x0", MAX_GRID_ORIGIN_M, math.inf),
        ("y0", -MAX_GRID_ORIGIN_M, -math.inf), ("y0", MAX_GRID_ORIGIN_M, math.inf),
        ("cell_size", MIN_CELL_SIZE_M, 0.0), ("cell_size", MAX_CELL_SIZE_M, math.inf),
    ])
    def test_a_spec_one_step_past_a_cap_is_rejected(self, field, cap, outward):
        with pytest.raises(ConfigurationError, match="grid origin|cell_size"):
            GridSpec(**{**AT_CAPS, field: math.nextafter(cap, outward)})


def message(kind, data, t_send=0.5):
    return ChannelMessage(kind=kind, payload_bytes=len(data), t_send=t_send, t_arrive=t_send,
                          content=data, raw_bytes=len(data))


def box_bits(dets):
    """Every float of a detection list, as bytes, and the categories."""
    floats = [(d.box.x, d.box.y, d.box.z, d.box.w, d.box.l, d.box.h, d.box.yaw, d.score)
              for d in dets]
    return np.array(floats).tobytes(), [d.box.category for d in dets]


class TestDecode:
    """The receiver rebuilds exactly what the float32 mirrors in oracle_utils built."""

    def test_points_equal_the_float32_mirror(self):
        pts = np.random.default_rng(20).normal(0.0, 30.0, (50, 4))
        pts[0] = [-0.0, 0.0, 1e-40, -1e-40]  # signed zeros and float32 subnormals
        cloud = PointCloud(pts, "infra", 0.7)
        data, ref = _encode_points(cloud)
        msg = encode_message(MessageKind.RAW_POINTS, cloud, RAW, 0.7)
        assert msg.content == data
        out = decode_message(msg, SPEC, RAW)
        assert out.points.tobytes() == ref.points.tobytes()
        assert (out.frame, out.timestamp) == (ref.frame, ref.timestamp)

    def test_boxes_equal_the_float32_mirror(self):
        rng = np.random.default_rng(21)
        dets = [Detection(box=Box3D(*rng.normal(0.0, 20.0, 3), *rng.uniform(0.3, 12.0, 3),
                                    yaw=rng.uniform(-3.0, 3.0), category=category),
                          score=rng.uniform(0.0, 1.0))
                for category in list(Category) * 3]
        # Signed zeros, a float32 subnormal, yaws at +-pi and a float32 rounding tie.
        dets.append(Detection(Box3D(-0.0, 1e-40, 0.0, 1.0 + 2.0 ** -24, 1.0, 1.0, yaw=-math.pi),
                              0.0))
        dets.append(Detection(Box3D(0.0, -0.0, -1e-45, 1.0, 1.0, 1.0, yaw=math.pi), 1.0))
        data, ref = _encode_detections(dets)
        msg = encode_message(MessageKind.DETECTIONS, boxes_of(dets), RAW, 0.0)
        assert msg.content == data
        assert box_bits(detections_of(decode_message(msg, SPEC, RAW))) == box_bits(ref)

    def test_raw_grids_equal_the_float32_mirror(self):
        rng = np.random.default_rng(22)
        g = grid(rng.normal(0.0, 5.0, SMALL.shape), spec=SMALL, t=0.3)
        flow = grid(rng.normal(0.0, 5.0, SMALL.shape), spec=SMALL, t=0.3)
        (d0, r0), (d1, r1) = _raw_grid(g), _raw_grid(flow)
        single = decode_message(encode_message(MessageKind.FEATURE, g, RAW, 0.3), SMALL, RAW)
        msg = encode_message(MessageKind.FEATURE_WITH_FLOW, (g, flow), RAW, 0.3)
        assert msg.content == d0 + d1
        pair = decode_message(msg, SMALL, RAW)
        for out, ref in ((single, r0), (pair[0], r0), (pair[1], r1)):
            assert out.values.tobytes() == ref.values.tobytes()
            assert (out.spec, out.timestamp, out.frame) == (ref.spec, ref.timestamp, ref.frame)

    def test_compressed_grids_decode_as_decompress_grid(self):
        g = grid(np.random.default_rng(23).random(SMALL.shape), spec=SMALL)
        flow = grid(np.random.default_rng(24).standard_normal(SMALL.shape), spec=SMALL)
        msg = encode_message(MessageKind.FEATURE_WITH_FLOW, (g, flow), COMPRESSED, 0.0)
        out, ref = decode_message(msg, SMALL, COMPRESSED), decompress_grid(msg.content, SMALL)
        assert [x.values.tobytes() for x in out] == [x.values.tobytes() for x in ref]

    def test_encoding_decodes_nothing(self):
        g = grid(np.ones(SMALL.shape), spec=SMALL)
        with mock.patch.object(channel, "decompress_grid", side_effect=AssertionError):
            encode_message(MessageKind.FEATURE, g, COMPRESSED, 0.0)
            encode_message(MessageKind.FEATURE_WITH_FLOW, (g, g), COMPRESSED, 0.0)

    def test_grid_payload_of_the_other_kind(self):
        g = grid(np.ones(SMALL.shape), spec=SMALL)
        for compression in (COMPRESSED, RAW):
            one = encode_message(MessageKind.FEATURE, g, compression, 0.0).content
            two = encode_message(MessageKind.FEATURE_WITH_FLOW, (g, g), compression, 0.0).content
            with pytest.raises(DecodeError):
                decode_message(message(MessageKind.FEATURE, two), SMALL, compression)
            with pytest.raises(DecodeError):
                decode_message(message(MessageKind.FEATURE_WITH_FLOW, one), SMALL, compression)

    def test_the_other_grid_format(self):
        g = grid(np.ones(SMALL.shape), spec=SMALL)
        for compression in (COMPRESSED, RAW):
            msg = encode_message(MessageKind.FEATURE, g, compression, 0.0)
            with pytest.raises(DecodeError):
                decode_message(msg, SMALL, not compression)

    def test_malformed_records(self):
        point = struct.pack("<4f", 1.0, 2.0, 3.0, 0.5)
        box = struct.pack("<7fBf", 1.0, 2.0, 0.75, 1.8, 4.5, 1.5, 0.0, 1, 0.5)
        nan = struct.pack("<f", float("nan"))
        bad = {
            MessageKind.RAW_POINTS: [point + b"\0", point[:12] + nan],
            MessageKind.DETECTIONS: [box[:-1], box[:28] + bytes([4]) + box[29:],
                                     nan + box[4:], box[:29] + nan,
                                     box[:12] + struct.pack("<f", -1.0) + box[16:]],
        }
        for kind, payloads in bad.items():
            assert decode_message(message(kind, point if kind is MessageKind.RAW_POINTS else box),
                                  SPEC, RAW)
            for data in payloads:
                with pytest.raises(DecodeError):
                    decode_message(message(kind, data), SPEC, RAW)
        with pytest.raises(DecodeError, match="unknown message kind"):
            decode_message(message("feature", b""), SPEC, RAW)

    def test_raw_grid_with_a_nan_cell(self):
        data = bytearray(encode_message(MessageKind.FEATURE, grid(np.ones(SMALL.shape), spec=SMALL),
                                        RAW, 0.0).content)
        data[8:12] = struct.pack("<f", float("nan"))
        with pytest.raises(DecodeError):
            decode_message(message(MessageKind.FEATURE, bytes(data)), SMALL, RAW)


class TestFrameTag:
    @pytest.mark.parametrize("frame", ["\u00e9" * 200, "a" * 300], ids=["utf8_400", "ascii_300"])
    def test_longer_than_255_bytes_is_an_encode_error(self, frame):
        g = FeatureGrid(SMALL, np.ones(SMALL.shape), 0.0, frame)
        with pytest.raises(EncodeError, match="frame tag"):
            compress_grid(g)
        with pytest.raises(EncodeError, match="frame tag"):
            encode_message(MessageKind.FEATURE_WITH_FLOW, (g, g), COMPRESSED, 0.0)

    @pytest.mark.parametrize("frame", ["a" * 255, "\u00e9" * 127 + "a"], ids=["ascii", "utf8"])
    def test_255_bytes_round_trip(self, frame):
        g = FeatureGrid(SMALL, np.ones(SMALL.shape), 0.0, frame)
        assert decompress_grid(compress_grid(g), SMALL).frame == frame


class TestEncodeErrors:
    def test_timestamp_beyond_the_float32_header(self):
        # A spec's origin and cell size always fit the header; a grid's
        # timestamp need not.
        late = grid(np.ones(SMALL.shape), spec=SMALL, t=1e39)
        with pytest.raises(EncodeError, match="grid header"):
            compress_grid(late)
        with pytest.raises(EncodeError, match="grid header"):
            encode_message(MessageKind.FEATURE, late, COMPRESSED, 0.0)

    @pytest.mark.parametrize("compression", [COMPRESSED, RAW], ids=["compressed", "raw"])
    def test_value_beyond_float32(self, compression):
        spec = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=4, rows=4)
        values = np.zeros(spec.shape)
        values[1, 2, 0] = 1e39
        pair = (grid(np.zeros(spec.shape), spec=spec), grid(-values, spec=spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(EncodeError, match="float32"):
                encode_message(MessageKind.FEATURE, grid(values, spec=spec), compression, 0.0)
            with pytest.raises(EncodeError, match="float32"):
                encode_message(MessageKind.FEATURE_WITH_FLOW, pair, compression, 0.0)
            far = PointCloud([[1e39, 0.0, 0.0, 1.0]], "infra", 0.0)
            with pytest.raises(EncodeError, match="float32"):
                encode_message(MessageKind.RAW_POINTS, far, compression, 0.0)

    def test_largest_float32_values_still_encode(self):
        spec = GridSpec(x0=0.0, y0=0.0, cell_size=0.5, cols=4, rows=4)
        values = np.zeros(spec.shape)
        values[0, 0] = (float(np.finfo(np.float32).max), -float(np.finfo(np.float32).max), 1.0)
        for compression in (COMPRESSED, RAW):
            msg = encode_message(MessageKind.FEATURE, grid(values, spec=spec), compression, 0.0)
            assert decode_message(msg, spec, compression).values[0, 0, 0] == values[0, 0, 0]

    def test_grid_and_flow_of_different_specs(self):
        other = replace(SMALL, rows=12)
        pair = (grid(np.zeros(SMALL.shape), spec=SMALL), grid(np.zeros(other.shape), spec=other))
        with pytest.raises(ShapeMismatchError):
            compress_grid_pair(*pair)
        for compression in (COMPRESSED, RAW):
            with pytest.raises(ShapeMismatchError):
                encode_message(MessageKind.FEATURE_WITH_FLOW, pair, compression, 0.0)

    def test_a_kind_that_is_not_a_message_kind(self):
        with pytest.raises(EncodeError, match="unknown message kind feature"):
            encode_message("feature", None, COMPRESSED, 0.0)

    def test_content_of_the_wrong_type(self):
        with pytest.raises(EncodeError, match="FeatureGrid"):
            encode_message(MessageKind.FEATURE, [1], COMPRESSED, 0.0)
        with pytest.raises(EncodeError, match="PointCloud"):
            encode_message(MessageKind.RAW_POINTS, [1], RAW, 0.0)


class TestTransmit:
    def test_zero_latency(self):
        msg = encode_message(MessageKind.DETECTIONS, detections(1), RAW, 1.5)
        out = transmit(msg, LatencyModel(0.0))
        assert out.t_arrive == out.t_send == 1.5

    def test_constant_200ms(self):
        msg = encode_message(MessageKind.DETECTIONS, detections(1), RAW, 1.0)
        out = transmit(msg, LatencyModel(200.0))
        assert out.t_arrive == pytest.approx(1.2)

    def test_jitter_deterministic_per_seed_and_index(self):
        lm = LatencyModel(100.0, 100.0, seed=5)
        msg = encode_message(MessageKind.DETECTIONS, detections(1), RAW, 0.0)
        a = transmit(msg, lm, message_index=3).t_arrive
        b = transmit(msg, lm, message_index=3).t_arrive
        c = transmit(msg, lm, message_index=4).t_arrive
        assert a == b
        assert a != c
        assert 0.1 <= a <= 0.2

    def test_arrival_never_before_send(self):
        lm = LatencyModel(0.0, 50.0, seed=1)
        for k in range(20):
            msg = encode_message(MessageKind.DETECTIONS, detections(1), RAW, 0.1 * k)
            assert transmit(msg, lm, k).t_arrive >= msg.t_send

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(-1.0)


def fake_message(t_send, t_arrive, payload=100):
    return ChannelMessage(kind=MessageKind.DETECTIONS, payload_bytes=payload,
                          t_send=t_send, t_arrive=t_arrive, content=[], raw_bytes=payload)


class TestLatestAvailable:
    def test_none_when_nothing_arrived(self):
        assert latest_available([], 10.0) is None
        assert latest_available([fake_message(0.0, 5.0)], 1.0) is None

    def test_picks_latest_arrived(self):
        msgs = [fake_message(0.0, 0.9), fake_message(0.5, 1.1)]
        assert latest_available(msgs, 1.0) is msgs[0]
        assert latest_available(msgs, 1.1) is msgs[1]

    def test_equal_arrival_highest_send_wins(self):
        msgs = [fake_message(0.0, 1.0), fake_message(0.5, 1.0)]
        assert latest_available(msgs, 1.0) is msgs[1]


class TestBps:
    def test_empty(self):
        assert bps([], 10.0) == (0.0, 0.0)

    def test_det_rate(self):
        msgs = [fake_message(0.1 * k, 0.1 * k, payload=330) for k in range(10)]
        assert bps(msgs, 1.0) == pytest.approx((3.3e3, 3.3e3))

    def test_feature_rate(self):
        msgs = [fake_message(0.1 * k, 0.1 * k, payload=62000) for k in range(10)]
        assert bps(msgs, 1.0) == pytest.approx((6.2e5, 6.2e5))

    def test_raw_and_sent_rates_apart(self):
        msgs = [replace(fake_message(0.1 * k, 0.1 * k, payload=100), raw_bytes=400)
                for k in range(10)]
        assert bps(msgs, 2.0) == pytest.approx((2000.0, 500.0))

    def test_window_excludes_later_sends(self):
        msgs = [fake_message(0.5, 0.5, payload=100), fake_message(2.0, 2.0, payload=100)]
        assert bps(msgs, 1.0) == pytest.approx((100.0, 100.0))

    def test_window_includes_a_send_at_its_end(self):
        msgs = [fake_message(1.0, 1.0, payload=100)]
        assert bps(msgs, 1.0) == (100.0, 100.0)

    def test_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            bps([], 0.0)


class TestChannelLog:
    def test_send_latest_and_export(self, tmp_path):
        ch = Channel(latency=LatencyModel(100.0))
        for k in range(3):
            ch.send(encode_message(MessageKind.DETECTIONS, detections(2), RAW, 0.1 * k))
        assert ch.latest(0.05) is None
        got = ch.latest(0.35)
        assert got is not None and got.t_send == pytest.approx(0.2)
        path = tmp_path / "log.jsonl"
        ch.export_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        import json

        rec = json.loads(lines[0])
        assert rec["kind"] == "detections"
        assert rec["payload_bytes"] == 66
        assert rec["t_arrive"] == pytest.approx(0.1)
        raw, sent = bps(ch.messages, 1.0)
        assert raw == sent
