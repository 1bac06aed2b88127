"""The channel's memory bound: content is dropped once a message can no longer be latest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotrack.channel import (
    Channel,
    ChannelMessage,
    LatencyModel,
    MessageKind,
    bps,
    encode_message,
    transmit,
)
from cotrack.errors import OrderingError
from cotrack.experiment import ExperimentConfig, run_single
from cotrack.fusion import FusionKind, FusionMethod
from cotrack.geometry import Box3D, Boxes, Category
from cotrack.presets import hidden_lane_scenario
from oracle_utils import latest_available

RAW = False


def one_detection():
    return Boxes.of([Box3D(x=0.0, y=0.0, z=0.75, w=1.8, l=4.5, h=1.5, category=Category.VAN)],
                    [0.5])


class TestChannelMemoryBound:
    """The channel drops the content of messages that can no longer be latest."""

    @staticmethod
    def message(k, payload, raw):
        return ChannelMessage(kind=MessageKind.DETECTIONS, payload_bytes=payload,
                              t_send=0.1 * k, t_arrive=None, content=[k], raw_bytes=raw)

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.tuples(st.integers(1, 5000), st.integers(1, 5000)),
                       min_size=1, max_size=40),
        base_ms=st.floats(0.0, 600.0),
        jitter_ms=st.one_of(st.just(0.0), st.floats(0.0, 400.0)),
        seed=st.integers(0, 2**16),
        query_steps=st.lists(st.floats(0.0, 0.35), min_size=1, max_size=60),
    )
    def test_pruned_channel_matches_unpruned_reference(self, sizes, base_ms, jitter_ms, seed,
                                                       query_steps):
        lm = LatencyModel(base_ms, jitter_ms, seed)
        ch = Channel(latency=lm)
        sent = [self.message(k, p, r) for k, (p, r) in enumerate(sizes)]
        reference = [transmit(m, lm, message_index=k) for k, m in enumerate(sent)]
        t_now = 0.0
        for step in query_steps:
            t_now += step
            while len(ch.messages) < len(sent) and sent[len(ch.messages)].t_send <= t_now:
                ch.send(sent[len(ch.messages)])  # send before query, as a run does
            sent_so_far = reference[: len(ch.messages)]
            got = ch.latest(t_now)
            want = latest_available(sent_so_far, t_now)
            assert got == want  # same message, content included
            newest = sent_so_far.index(want) if want is not None else 0
            retained = [m for m in ch.messages if m.content is not None]
            assert len(retained) <= len(sent_so_far) - newest
            assert all(m.content is not None for m in ch.messages[newest:])
        for window in (0.5, 1.0, 10.0):
            assert bps(ch.messages, window) == bps(reference[: len(ch.messages)], window)
        assert [(m.t_send, m.t_arrive, m.payload_bytes, m.raw_bytes) for m in ch.messages] == \
               [(m.t_send, m.t_arrive, m.payload_bytes, m.raw_bytes)
                for m in reference[: len(ch.messages)]]

    def test_queries_must_not_go_back_in_time(self):
        ch = Channel(latency=LatencyModel(100.0))
        ch.send(encode_message(MessageKind.DETECTIONS, one_detection(), RAW, 0.0))
        ch.latest(0.5)
        with pytest.raises(OrderingError):
            ch.latest(0.4)

    def test_run_keeps_only_messages_in_flight(self):
        cfg = ExperimentConfig(scenario=hidden_lane_scenario(duration_s=2.0))
        _, art = run_single(cfg, FusionMethod(FusionKind.MIDDLE_FLOW), 200.0, 1,
                            keep_artifacts=True)
        held = [m for m in art.channel.messages if m.content is not None]
        assert len(art.channel.messages) == 21
        assert len(held) <= 3  # the latest arrival plus the two still in flight
