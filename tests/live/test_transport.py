"""Unit tests for the live plane's framing, payloads, clock and mirror."""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.loop import LiveClock
from repro.live.transport import (
    MAX_FRAME_BYTES,
    MirrorReceiver,
    StreamDecoder,
    done_frame,
    encode_live_packet,
    fragment_seed,
    hello_frame,
    live_ctrl_kind,
    payload_bytes,
    wrap_frame,
)
from repro.madeleine.message import Flow, Message
from repro.network.wire import (
    PacketKind,
    WirePacket,
    WireSegment,
    decode_frame,
    encode_frame,
)
from repro.util.errors import ProtocolError, ReproError, SimulationError, WireError


def _ctrl_frame(meta=None):
    return encode_frame(PacketKind.CTRL, "n0", "n1", 0, meta or {})


class TestStreamFraming:
    def test_roundtrip_one_frame(self):
        decoder = StreamDecoder()
        frames = decoder.feed(wrap_frame(_ctrl_frame({"k": 1})))
        assert len(frames) == 1
        assert frames[0].meta == {"k": 1}
        assert decoder.buffered == 0

    def test_partial_reads_any_boundary(self):
        wire = wrap_frame(_ctrl_frame({"a": 1})) + wrap_frame(_ctrl_frame({"a": 2}))
        # Feed one byte at a time: no boundary assumption may survive this.
        decoder = StreamDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i : i + 1]))
        assert [f.meta["a"] for f in out] == [1, 2]
        assert decoder.buffered == 0

    def test_split_inside_length_prefix(self):
        wire = wrap_frame(_ctrl_frame())
        decoder = StreamDecoder()
        assert decoder.feed(wire[:2]) == []
        assert decoder.buffered == 2
        frames = decoder.feed(wire[2:])
        assert len(frames) == 1

    def test_many_frames_one_chunk(self):
        wire = b"".join(wrap_frame(_ctrl_frame({"i": i})) for i in range(5))
        frames = StreamDecoder().feed(wire)
        assert [f.meta["i"] for f in frames] == [0, 1, 2, 3, 4]

    def test_oversized_declared_length_rejected(self):
        import struct

        decoder = StreamDecoder()
        with pytest.raises(WireError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_oversized_frame_rejected_on_wrap(self):
        with pytest.raises(WireError):
            wrap_frame(b"\0" * (MAX_FRAME_BYTES + 1))

    def test_corrupt_payload_raises_from_codec(self):
        wire = bytearray(wrap_frame(_ctrl_frame({"k": 1})))
        wire[-1] ^= 0xFF  # flip a bit inside the codec frame
        with pytest.raises(WireError):
            StreamDecoder().feed(bytes(wire))


class TestPayloadPattern:
    def test_deterministic(self):
        seed = fragment_seed("n0", 7, 0)
        assert payload_bytes(seed, 0, 64) == payload_bytes(seed, 0, 64)

    def test_distinct_fragments_distinct_bytes(self):
        a = payload_bytes(fragment_seed("n0", 7, 0), 0, 64)
        b = payload_bytes(fragment_seed("n0", 8, 0), 0, 64)
        assert a != b

    def test_slices_are_absolute(self):
        seed = fragment_seed("n0", 1, 2)
        whole = payload_bytes(seed, 0, 1000)
        assert payload_bytes(seed, 300, 200) == whole[300:500]
        assert payload_bytes(seed, 999, 1) == whole[999:]

    def test_zero_length(self):
        assert payload_bytes(123, 10, 0) == b""

    def test_negative_slice_rejected(self):
        with pytest.raises(WireError):
            payload_bytes(123, -1, 4)
        with pytest.raises(WireError):
            payload_bytes(123, 0, -4)

    def test_seed_zero_still_patterns(self):
        data = payload_bytes(0, 0, 256)
        assert len(set(data)) > 1  # not a constant fill


class TestControlFrames:
    def test_hello_identifies_peer(self):
        frames = StreamDecoder().feed(hello_frame("n2", 2))
        assert live_ctrl_kind(frames[0]) == "hello"
        assert frames[0].meta["node"] == "n2"
        assert frames[0].meta["rank"] == 2

    def test_done_carries_items(self):
        frames = StreamDecoder().feed(done_frame("n1", "n0", [(5, 1.25)]))
        assert live_ctrl_kind(frames[0]) == "done"
        assert frames[0].meta["items"] == [[5, 1.25]]

    def test_engine_traffic_is_not_ctrl(self):
        frames = StreamDecoder().feed(wrap_frame(_ctrl_frame({"other": 1})))
        assert live_ctrl_kind(frames[0]) is None


def _sent_packet(flow, size=128):
    """One eager packet exactly as the engine would dispatch it."""
    message = Message(flow)
    fragment = message.add_fragment(size)
    message.mark_flushed(0.5)
    packet = WirePacket(
        kind=PacketKind.EAGER,
        src=flow.src,
        dst=flow.dst,
        channel_id=0,
        segments=(WireSegment(fragment, 0, size),),
    )
    return message, packet


def _reframed(packet, field, value):
    """The packet's frame, CRC-valid, with one descriptor field replaced."""
    frame = StreamDecoder().feed(encode_live_packet(packet))[0]
    seg = frame.segments[0]
    descriptor = dict(seg.descriptor, **{field: value})
    return decode_frame(
        encode_frame(
            frame.kind,
            frame.src,
            frame.dst,
            frame.channel_id,
            frame.meta,
            [(descriptor, seg.offset, seg.length, seg.data)],
        )
    )


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


class TestMirrorReceiver:
    def _pair(self, flow):
        """A receiver wired to resolve exactly ``flow``."""
        return MirrorReceiver(flow.dst, lambda fid: flow if fid == flow.flow_id else None)

    def test_roundtrip_rebuilds_packet(self):
        flow = Flow("t-mirror", "n0", "n1")
        message, packet = _sent_packet(flow)
        frames = StreamDecoder().feed(encode_live_packet(packet))
        mirror = self._pair(flow)
        rebuilt = mirror.packet_from_frame(frames[0])
        assert rebuilt.kind is PacketKind.EAGER
        assert rebuilt.src == "n0" and rebuilt.dst == "n1"
        seg = rebuilt.segments[0]
        assert seg.length == 128 and seg.offset == 0
        assert seg.payload.message.flow is flow
        assert seg.payload.message.submit_time == 0.5
        assert mirror.bytes_verified == 128
        assert mirror.corrupt_slices == 0

    def test_mirror_ids_negative_and_tracked(self):
        flow = Flow("t-ids", "n0", "n1")
        message, packet = _sent_packet(flow)
        mirror = self._pair(flow)
        rebuilt = mirror.packet_from_frame(
            StreamDecoder().feed(encode_live_packet(packet))[0]
        )
        mirrored = rebuilt.segments[0].payload.message
        assert mirrored.message_id < 0
        assert mirror.origin_of(mirrored) == ("n0", message.message_id)
        assert mirror.open_mirrors == 1
        mirror.forget(mirrored)
        assert mirror.open_mirrors == 0
        assert mirror.origin_of(mirrored) is None

    def test_same_message_reuses_mirror(self):
        flow = Flow("t-reuse", "n0", "n1")
        message = Message(flow)
        f0 = message.add_fragment(100)
        f1 = message.add_fragment(50)
        message.mark_flushed(0.0)
        packets = [
            WirePacket(
                kind=PacketKind.EAGER,
                src="n0",
                dst="n1",
                channel_id=0,
                segments=(WireSegment(f, 0, f.size),),
            )
            for f in (f0, f1)
        ]
        mirror = self._pair(flow)
        rebuilt = [
            mirror.packet_from_frame(
                StreamDecoder().feed(encode_live_packet(p))[0]
            )
            for p in packets
        ]
        m0 = rebuilt[0].segments[0].payload.message
        m1 = rebuilt[1].segments[0].payload.message
        assert m0 is m1
        assert [f.size for f in m0.fragments] == [100, 50]
        assert mirror.open_mirrors == 1

    def test_corrupted_bytes_detected(self):
        flow = Flow("t-corrupt", "n0", "n1")
        _, packet = _sent_packet(flow)
        # The codec CRC catches wire flips, so model corruption *past*
        # the codec: same frame, segment data replaced by zeros.
        frame = StreamDecoder().feed(encode_live_packet(packet))[0]

        class _Seg:
            descriptor = frame.segments[0].descriptor
            offset = frame.segments[0].offset
            length = frame.segments[0].length
            data = bytes(frame.segments[0].length)  # zeros != pattern

        class _Frame:
            kind = frame.kind
            src = frame.src
            dst = frame.dst
            channel_id = frame.channel_id
            meta = frame.meta
            segments = [_Seg]

        mirror = self._pair(flow)
        with pytest.raises(WireError):
            mirror.packet_from_frame(_Frame)
        assert mirror.corrupt_slices == 1

    def test_unknown_flow_rejected(self):
        flow = Flow("t-unknown", "n0", "n1")
        _, packet = _sent_packet(flow)
        frame = StreamDecoder().feed(encode_live_packet(packet))[0]
        mirror = MirrorReceiver("n1", lambda fid: None)
        with pytest.raises(ProtocolError):
            mirror.packet_from_frame(frame)

    def test_wrong_destination_rejected(self):
        flow = Flow("t-wrongdst", "n0", "n1")
        _, packet = _sent_packet(flow)
        frame = StreamDecoder().feed(encode_live_packet(packet))[0]
        mirror = MirrorReceiver("n2", lambda fid: flow)
        with pytest.raises(ProtocolError):
            mirror.packet_from_frame(frame)

    @pytest.mark.parametrize(
        "field, value",
        [("msg", {}), ("idx", "0"), ("layout", 7)],
    )
    def test_ill_typed_descriptor_field_rejected(self, field, value):
        flow = Flow(f"t-ill-{field}", "n0", "n1")
        _, packet = _sent_packet(flow)
        mirror = self._pair(flow)
        with pytest.raises(WireError):
            mirror.packet_from_frame(_reframed(packet, field, value))

    @settings(max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(
            ["flow", "msg", "idx", "layout", "submit", "seq", "ctx"]
        ),
        value=_json_values,
    )
    def test_any_descriptor_field_swap_verifies_or_raises(self, field, value):
        """Whatever JSON a CRC-valid frame carries in one descriptor
        field, the receiver returns a verified packet or raises a typed
        error — never a raw TypeError/ValueError."""
        flow = Flow("t-swap", "n0", "n1")
        _, packet = _sent_packet(flow)
        mirror = self._pair(flow)
        try:
            rebuilt = mirror.packet_from_frame(_reframed(packet, field, value))
        except ReproError:
            return
        assert len(rebuilt.segments) == 1
        assert mirror.bytes_verified == rebuilt.segments[0].length == 128
        assert mirror.corrupt_slices == 0

    def test_non_fragment_payload_rejected(self):
        packet = WirePacket(
            kind=PacketKind.EAGER,
            src="n0",
            dst="n1",
            channel_id=0,
            segments=(WireSegment("not a fragment", 0, 4),),
        )
        with pytest.raises(ProtocolError):
            encode_live_packet(packet)


class TestLiveClock:
    def _clock(self, loop, **kw):
        return LiveClock(loop, epoch=time.time(), **kw)

    def test_now_is_sticky_until_refresh(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            before = clock.now
            time.sleep(0.01)
            assert clock.now == before  # frozen within the callback chain
            assert clock.refresh() > before
        finally:
            loop.close()

    def test_refresh_never_rewinds(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            clock._now = clock.now + 1e6  # simulate a wall-clock step back
            assert clock.refresh() >= 1e6
        finally:
            loop.close()

    def test_negative_delay_rejected(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            with pytest.raises(SimulationError):
                clock.schedule(-1.0, lambda: None)
            with pytest.raises(SimulationError):
                clock.at(clock.now - 1.0, lambda: None)
        finally:
            loop.close()

    def test_invalid_time_scale_rejected(self):
        loop = asyncio.new_event_loop()
        try:
            with pytest.raises(SimulationError):
                LiveClock(loop, epoch=time.time(), time_scale=0.0)
        finally:
            loop.close()

    def test_timer_fires_and_clamps_now(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            fired = []
            event = clock.schedule(0.005, lambda: fired.append(clock.now))
            assert clock.pending_timers == 1
            loop.run_until_complete(asyncio.sleep(0.05))
            assert fired and fired[0] >= event.time
            assert clock.pending_timers == 0
        finally:
            loop.close()

    def test_cancel_releases_pending(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop)
            event = clock.schedule(10.0, lambda: None)
            assert clock.pending_timers == 1
            clock.cancel(event)
            assert clock.pending_timers == 0
            clock.cancel(event)  # idempotent
            assert clock.pending_timers == 0
        finally:
            loop.close()

    def test_time_scale_stretches_now(self):
        loop = asyncio.new_event_loop()
        try:
            clock = self._clock(loop, time_scale=100.0)
            assert clock.time_scale == 100.0
            time.sleep(0.02)
            # 20ms of wall time is only ~0.2ms of run time at 100x.
            assert clock.refresh() < 0.01
        finally:
            loop.close()
