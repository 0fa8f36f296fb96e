"""Socket-level framing and the fragment ↔ wire-bytes mapping.

Three layers live here, all shared by the peer processes and the tests:

* **Stream framing** — every socket carries a sequence of
  ``u32 length || wire-codec frame`` records.  The wire-codec frame is
  exactly what :func:`repro.network.wire.encode_frame` produces (magic,
  version, CRC-32), so the stream layer only needs to split; a
  :class:`StreamDecoder` is tolerant of arbitrary partial reads and
  rejects oversized or corrupt frames with a typed
  :class:`~repro.util.errors.WireError`.

  When the chaos/reliability plane is active the record body grows a
  one-byte **envelope tag** (:func:`wrap_envelope`):
  ``u32 length || u8 tag || [u64 seq] || frame``.  ``TAG_SEQ`` records
  carry the per-connection reliability sequence number the receiving
  hub deduplicates and reorders on; ``TAG_RAW`` records (HELLO,
  heartbeats, ACKs) bypass the sequence space.  A decoder in
  ``tolerant`` mode counts and skips records whose frame fails CRC or
  envelope validation instead of raising — the reliability layer's
  retransmit path, not the decoder, is then responsible for recovery.
* **Deterministic payload bytes** — the simulator moves *sizes*, not
  bytes; the live plane must put real bytes on the wire and prove they
  arrive intact.  Every fragment's content is a deterministic function
  of ``(sender node, message id, fragment index)``
  (:func:`fragment_seed` + :func:`payload_bytes`), addressable at any
  offset, so the receiver can verify byte-identical delivery of any
  slice without shipping expected values out of band.
* **Mirror reassembly** — on receive, :class:`MirrorReceiver` rebuilds a
  local :class:`~repro.madeleine.message.Message`/``Fragment`` skeleton
  from the segment descriptors and hands a normal
  :class:`~repro.network.wire.WirePacket` to the node's receiver, so the
  existing reassembler, inboxes, subscriptions, and metrics all run
  unmodified.  Mirror messages use a *negative* id space — the sender's
  ids live in another process and must not collide with locally created
  messages — and are keyed back to ``(src node, sender message id)`` so
  completions can be acknowledged to the sender.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from typing import Any, Callable, Iterable

from repro.madeleine.message import Flow, Fragment, Message, PackMode
from repro.network.wire import (
    FRAME_PREFIX_BYTES,
    DecodedFrame,
    PacketKind,
    WirePacket,
    WireSegment,
    decode_frame,
    encode_frame,
)
from repro.sim.process import Future
from repro.util.errors import ProtocolError, WireError

__all__ = [
    "MAX_FRAME_BYTES",
    "TAG_RAW",
    "TAG_SEQ",
    "ENVELOPE_DATA_OFFSET",
    "ENVELOPE_CRC_OFFSET",
    "StreamDecoder",
    "wrap_frame",
    "wrap_envelope",
    "fragment_seed",
    "payload_bytes",
    "encode_live_packet",
    "hello_frame",
    "done_frame",
    "heartbeat_frame",
    "ack_frame",
    "live_ctrl_kind",
    "MirrorReceiver",
]

#: Upper bound on one framed record; a length prefix beyond this is
#: treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH_PREFIX = struct.Struct("!I")
_SEQ = struct.Struct("!Q")

#: Envelope tags (first body byte of an enveloped record).
TAG_RAW = 0  #: unsequenced transport control (HELLO, heartbeat, ACK)
TAG_SEQ = 1  #: sequenced traffic (engine data, DONE acknowledgements)

#: First byte of the wrapped frame inside a sequenced enveloped record:
#: length prefix (4) + tag (1) + sequence number (8).
ENVELOPE_DATA_OFFSET = _LENGTH_PREFIX.size + 1 + _SEQ.size

#: First record byte that is covered by the frame CRC: the envelope
#: header plus the frame's own prefix (whose flags/reserved bytes the
#: decoder ignores, and whose CRC/length fields corrupt the frame in
#: detectable but different ways).  Chaos corruption targets offsets at
#: or beyond this, so an injected flip is always *detected* (CRC
#: mismatch → tolerant decoder skips → retransmit) without ever
#: desynchronizing the stream or forging a sequence number.
ENVELOPE_CRC_OFFSET = ENVELOPE_DATA_OFFSET + FRAME_PREFIX_BYTES


def wrap_frame(frame: bytes) -> bytes:
    """Prefix one wire-codec frame with its length for the stream."""
    if len(frame) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(frame)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH_PREFIX.pack(len(frame)) + frame


def wrap_envelope(frame: bytes, seq: int | None = None) -> bytes:
    """Wrap one frame in the reliability envelope.

    ``seq=None`` produces a ``TAG_RAW`` record; otherwise the record is
    ``TAG_SEQ`` and carries the 64-bit per-connection sequence number
    the receiving hub deduplicates and reorders on.
    """
    if seq is None:
        body = bytes([TAG_RAW]) + frame
    else:
        if seq < 0:
            raise WireError(f"negative reliability sequence number {seq}")
        body = bytes([TAG_SEQ]) + _SEQ.pack(seq) + frame
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"record of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH_PREFIX.pack(len(body)) + body


class StreamDecoder:
    """Incremental splitter: arbitrary byte chunks in, decoded frames out.

    ``feed`` never assumes a read boundary lines up with a frame — a
    TCP segment may end mid-prefix, mid-header, or mid-payload; the
    remainder is buffered until the next chunk.

    Two orthogonal modes:

    * ``envelope`` — records carry the reliability envelope
      (:func:`wrap_envelope`) and ``feed`` returns ``(seq, frame)``
      pairs, ``seq`` being ``None`` for ``TAG_RAW`` records;
    * ``tolerant`` — a record whose body fails envelope or CRC
      validation is *counted* (:attr:`corrupt_frames`) and skipped
      instead of raising, leaving recovery to the retransmit layer.
      The length prefix itself stays load-bearing either way: an
      implausible length is unrecoverable stream corruption.
    """

    __slots__ = ("_buffer", "_envelope", "_tolerant", "corrupt_frames")

    def __init__(self, *, envelope: bool = False, tolerant: bool = False) -> None:
        self._buffer = bytearray()
        self._envelope = envelope
        self._tolerant = tolerant
        #: Records dropped by tolerant mode (CRC / envelope failures).
        self.corrupt_frames = 0

    @property
    def buffered(self) -> int:
        """Bytes received but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list:
        """Absorb one chunk; return every record it completes.

        Plain mode returns ``list[DecodedFrame]``; envelope mode returns
        ``list[tuple[int | None, DecodedFrame]]``.
        """
        self._buffer.extend(data)
        out: list = []
        while True:
            if len(self._buffer) < _LENGTH_PREFIX.size:
                return out
            (length,) = _LENGTH_PREFIX.unpack(self._buffer[: _LENGTH_PREFIX.size])
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"stream declares a {length}-byte frame (max {MAX_FRAME_BYTES}); "
                    "treating as corruption"
                )
            end = _LENGTH_PREFIX.size + length
            if len(self._buffer) < end:
                return out
            body = bytes(self._buffer[_LENGTH_PREFIX.size : end])
            del self._buffer[:end]
            try:
                out.append(self._decode_body(body))
            except WireError:
                if not self._tolerant:
                    raise
                self.corrupt_frames += 1

    def _decode_body(self, body: bytes):
        if not self._envelope:
            return decode_frame(body)
        if not body:
            raise WireError("empty enveloped record")
        tag = body[0]
        if tag == TAG_RAW:
            return None, decode_frame(body[1:])
        if tag == TAG_SEQ:
            if len(body) < 1 + _SEQ.size:
                raise WireError("sequenced record too short for its header")
            (seq,) = _SEQ.unpack_from(body, 1)
            return seq, decode_frame(body[1 + _SEQ.size :])
        raise WireError(f"unknown envelope tag {tag}")


# --------------------------------------------------------------------------
# deterministic payload bytes
# --------------------------------------------------------------------------

_TILE_BYTES = 256
_tile_cache: dict[int, bytes] = {}


def fragment_seed(src: str, message_id: int, fragment_index: int) -> int:
    """Stable 32-bit seed identifying one fragment's byte pattern."""
    return zlib.crc32(f"{src}/{message_id}/{fragment_index}".encode("utf-8"))


def _tile(seed: int) -> bytes:
    cached = _tile_cache.get(seed)
    if cached is not None:
        return cached
    out = bytearray(_TILE_BYTES)
    x = (seed or 0x9E3779B9) & 0xFFFFFFFF
    for i in range(_TILE_BYTES):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        out[i] = (x >> 16) & 0xFF
    tile = bytes(out)
    if len(_tile_cache) > 4096:  # sender registries bound this; belt and braces
        _tile_cache.clear()
    _tile_cache[seed] = tile
    return tile


def payload_bytes(seed: int, offset: int, length: int) -> bytes:
    """The fragment's bytes over ``[offset, offset + length)``.

    Absolute-offset addressable: the optimizer may split one fragment
    across packets (striping, rendezvous chunking) and each slice must
    be independently generable and verifiable.
    """
    if offset < 0 or length < 0:
        raise WireError(f"negative payload slice ({offset}, {length})")
    if length == 0:
        return b""
    tile = _tile(seed)
    start = offset % _TILE_BYTES
    reps = (start + length + _TILE_BYTES - 1) // _TILE_BYTES
    return (tile * reps)[start : start + length]


# --------------------------------------------------------------------------
# outbound: WirePacket → frame bytes
# --------------------------------------------------------------------------


def _segment_descriptor(fragment: Fragment) -> dict[str, Any]:
    message = fragment.message
    return {
        "flow": message.flow.flow_id,
        "msg": message.message_id,
        "idx": fragment.index,
        "layout": [[f.size, 1 if f.express else 0] for f in message.fragments],
        "submit": message.submit_time,
        "seq": message.seq,
        "ctx": message.context,
    }


def encode_live_packet(packet: WirePacket, *, wrap: bool = True) -> bytes:
    """Serialize one engine-produced packet into a stream record.

    Data segments reference in-process ``Fragment`` objects; each
    becomes a JSON descriptor (enough for the receiver to rebuild the
    message skeleton) plus deterministic pattern bytes for the slice.
    Control packets (rendezvous handshake) carry their ``meta`` only.

    ``wrap=False`` returns the bare wire-codec frame so the hub can
    apply its own record framing (the reliability envelope).
    """
    segments = []
    for seg in packet.segments:
        fragment = seg.payload
        if not isinstance(fragment, Fragment):
            raise ProtocolError(
                f"live transport cannot serialize non-fragment payload {seg.payload!r}"
            )
        seed = fragment_seed(packet.src, fragment.message.message_id, fragment.index)
        segments.append(
            (_segment_descriptor(fragment), seg.offset, seg.length, payload_bytes(seed, seg.offset, seg.length))
        )
    frame = encode_frame(
        packet.kind, packet.src, packet.dst, packet.channel_id, packet.meta, segments
    )
    return wrap_frame(frame) if wrap else frame


# --------------------------------------------------------------------------
# transport-level control frames (never reach the node receiver)
# --------------------------------------------------------------------------


def live_ctrl_kind(frame: DecodedFrame) -> str | None:
    """The transport-control tag of a frame, or None for engine traffic."""
    tag = frame.meta.get("live_ctrl")
    return tag if isinstance(tag, str) else None


def hello_frame(src: str, rank: int, *, wrap: bool = True) -> bytes:
    """Mesh handshake: identifies the sending peer on a fresh connection."""
    frame = encode_frame(
        PacketKind.CTRL, src, "*", -1, {"live_ctrl": "hello", "rank": rank, "node": src}
    )
    return wrap_frame(frame) if wrap else frame


def done_frame(src: str, dst: str, items: Iterable[tuple[int, float]], *, wrap: bool = True) -> bytes:
    """Delivery acknowledgement: ``items`` are (sender message id, time).

    Sent receiver → sender when a mirrored message completes, so the
    sender can resolve the original ``Message.completion`` future (the
    live analogue of the simulator resolving it at arrival time).
    """
    frame = encode_frame(
        PacketKind.CTRL,
        src,
        dst,
        -1,
        {"live_ctrl": "done", "items": [[mid, t] for mid, t in items]},
    )
    return wrap_frame(frame) if wrap else frame


def heartbeat_frame(src: str, t: float, *, wrap: bool = True) -> bytes:
    """Peer-to-peer liveness beacon (TAG_RAW; never retransmitted)."""
    frame = encode_frame(PacketKind.CTRL, src, "*", -1, {"live_ctrl": "hb", "t": t})
    return wrap_frame(frame) if wrap else frame


def ack_frame(src: str, dst: str, seqs: Iterable[int], *, wrap: bool = True) -> bytes:
    """Reliability acknowledgement for a batch of received sequence numbers."""
    frame = encode_frame(
        PacketKind.CTRL, src, dst, -1, {"live_ctrl": "ack", "seqs": [int(s) for s in seqs]}
    )
    return wrap_frame(frame) if wrap else frame


# --------------------------------------------------------------------------
# inbound: frame → WirePacket with mirror fragments
# --------------------------------------------------------------------------


def _optional_field(descriptor: dict[str, Any], key: str, types: tuple, default: Any) -> Any:
    """``descriptor[key]``, ``default`` when absent or null; WireError if ill-typed."""
    value = descriptor.get(key)
    if value is None:
        return default
    if type(value) not in types:
        raise WireError(f"segment descriptor {key} has ill-typed value {value!r}")
    return value


class MirrorReceiver:
    """Rebuilds message/fragment skeletons for packets arriving by socket.

    One per peer.  The first slice of an unseen ``(src, message id)``
    creates a *mirror* message — negative id, the local ``Flow`` object
    looked up by the flow id the symmetric scenario construction
    guarantees both sides share — and every slice is verified against
    the deterministic payload pattern before being handed to the node's
    ordinary receiver.
    """

    def __init__(self, node_name: str, flow_lookup: Callable[[int], Flow | None]) -> None:
        self.node_name = node_name
        self._flow_lookup = flow_lookup
        self._mirrors: dict[tuple[str, int], Message] = {}
        self._origins: dict[int, tuple[str, int]] = {}
        self._mirror_ids = itertools.count(-1, -1)
        self.bytes_verified = 0
        self.corrupt_slices = 0

    def packet_from_frame(self, frame: DecodedFrame) -> WirePacket:
        """Reconstruct the data packet the sending engine dispatched."""
        segments: list[WireSegment] = []
        for seg in frame.segments:
            fragment = self._mirror_fragment(frame.src, seg.descriptor)
            seed = fragment_seed(frame.src, seg.descriptor["msg"], fragment.index)
            expected = payload_bytes(seed, seg.offset, seg.length)
            if seg.data != expected:
                self.corrupt_slices += 1
                raise WireError(
                    f"payload mismatch on {frame.src}->{self.node_name} "
                    f"msg {seg.descriptor['msg']} fragment {fragment.index} "
                    f"[{seg.offset}, {seg.offset + seg.length})"
                )
            self.bytes_verified += seg.length
            segments.append(WireSegment(fragment, seg.offset, seg.length))
        return WirePacket(
            kind=frame.kind,
            src=frame.src,
            dst=frame.dst,
            channel_id=frame.channel_id,
            segments=tuple(segments),
            meta=frame.meta,
        )

    def _mirror_fragment(self, src: str, descriptor: dict[str, Any]) -> Fragment:
        try:
            sender_mid = descriptor["msg"]
            flow_id = descriptor["flow"]
            index = descriptor["idx"]
            layout = descriptor["layout"]
        except KeyError as missing:
            raise WireError(f"segment descriptor missing {missing}") from None
        if type(sender_mid) is not int or type(index) is not int:
            raise WireError(f"segment descriptor msg/idx not integers: {sender_mid!r}/{index!r}")
        message = self._mirrors.get((src, sender_mid))
        if message is None:
            message = self._make_mirror(src, sender_mid, flow_id, layout, descriptor)
        if not 0 <= index < len(message.fragments):
            raise WireError(
                f"fragment index {index} outside mirror layout of "
                f"{len(message.fragments)} fragment(s)"
            )
        return message.fragments[index]

    def _make_mirror(
        self,
        src: str,
        sender_mid: int,
        flow_id: int,
        layout: list,
        descriptor: dict[str, Any],
    ) -> Message:
        # Checked once per mirrored message; later slices of the same
        # message only need their own msg/idx (see _mirror_fragment).
        if type(flow_id) is not int:
            raise WireError(f"segment descriptor flow must be an integer, got {flow_id!r}")
        submit = _optional_field(descriptor, "submit", (int, float), 0.0)
        if not math.isfinite(submit):
            raise WireError(f"segment descriptor submit must be finite, got {submit!r}")
        seq = _optional_field(descriptor, "seq", (int,), 0)
        context = _optional_field(descriptor, "ctx", (dict,), {})
        if type(layout) is not list:
            raise WireError(f"segment descriptor layout must be a list, got {layout!r}")
        flow = self._flow_lookup(flow_id)
        if flow is None:
            raise ProtocolError(
                f"packet from {src!r} references unknown flow id {flow_id} "
                f"on node {self.node_name!r} (scenario construction out of sync?)"
            )
        if flow.dst != self.node_name:
            raise ProtocolError(
                f"flow {flow.name!r} terminates at {flow.dst!r}, but its data "
                f"arrived at {self.node_name!r}"
            )
        # Bypass Message.__init__: it would bump the shared id counter and
        # the flow's messages_sent, desynchronizing this peer's locally
        # created messages from the sender's.
        message = object.__new__(Message)
        message.message_id = next(self._mirror_ids)
        message.flow = flow
        message.fragments = []
        message.submit_time = float(submit)
        message.completion = Future()
        message.seq = seq
        message.context = context
        for i, entry in enumerate(layout):
            if (
                type(entry) is not list
                or len(entry) != 2
                or type(entry[0]) is not int
                or entry[0] <= 0
                or type(entry[1]) is not int
                or entry[1] not in (0, 1)
            ):
                raise WireError(f"malformed layout entry {entry!r}")
            # Fragment.__init__ does not append; preserve the Message
            # invariant that fragments[i].index == i.
            message.fragments.append(
                Fragment(message, i, entry[0], PackMode.CHEAPER, entry[1] == 1)
            )
        self._mirrors[(src, sender_mid)] = message
        self._origins[message.message_id] = (src, sender_mid)
        return message

    def origin_of(self, message: Message) -> tuple[str, int] | None:
        """(src node, sender message id) of a mirror, or None if local."""
        return self._origins.get(message.message_id)

    def forget(self, message: Message) -> None:
        """Drop bookkeeping for a completed mirror message."""
        origin = self._origins.pop(message.message_id, None)
        if origin is not None:
            self._mirrors.pop(origin, None)

    def forget_from(self, src: str) -> int:
        """Drop every open mirror created for packets from ``src``.

        Called when the coordinator declares ``src`` dead: its half-sent
        messages will never complete and their mirrors would otherwise
        leak for the rest of the run.  Returns the number forgotten.
        """
        doomed = [key for key in self._mirrors if key[0] == src]
        for key in doomed:
            message = self._mirrors.pop(key)
            self._origins.pop(message.message_id, None)
        return len(doomed)

    @property
    def open_mirrors(self) -> int:
        """Mirror messages created but not yet forgotten."""
        return len(self._mirrors)
