"""Byte-level framing of the network service (`RN` frames).

This is the lowest layer of :mod:`repro.service.net`: a length-prefixed
binary frame format carrying either canonical-JSON control payloads
(handshake, errors, metrics) or `RENV` columnar envelopes from
:mod:`repro.service.transport` (requests and summaries — the data plane
never pickles per request on the wire).  The *normative* byte-level
specification lives in ``docs/PROTOCOL.md``; this module is its reference
implementation, and ``tests/test_net_protocol_doc.py`` round-trips the
spec's worked hex example through these functions so the document cannot
drift from the code.

Frame layout (little-endian)::

    offset  size  field
    0       2     magic  b"RN"
    2       1     type   (FRAME_* constant)
    3       1     flags  bit 0 on SUMMARY: cached (protocol.FLAG_CACHED);
                         other bits reserved: senders write 0,
                         receivers ignore
    4       4     length u32 — payload byte count
    8       len   payload

Every malformed-input path raises a *typed* error (:class:`BadMagic`,
:class:`OversizedFrame`, :class:`TruncatedFrame`, ...) rather than a bare
``ValueError`` — the ISSUE-9 contract is "typed errors, never hangs", and
both the server and the clients map these onto `ERROR`/`GOODBYE` frames.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "MAGIC",
    "HEADER",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "FRAME_HELLO",
    "FRAME_NEGOTIATE",
    "FRAME_ACCEPT",
    "FRAME_RESUME",
    "FRAME_RESUMED",
    "FRAME_SUBMIT",
    "FRAME_SUMMARY",
    "FRAME_METRICS_REQ",
    "FRAME_METRICS",
    "FRAME_DRAIN",
    "FRAME_DRAINED",
    "FRAME_ERROR",
    "FRAME_GOODBYE",
    "FRAME_NAMES",
    "Frame",
    "FrameDecoder",
    "NetError",
    "BadMagic",
    "OversizedFrame",
    "TruncatedFrame",
    "CorruptFrame",
    "HandshakeError",
    "UnsupportedFrame",
    "ServerError",
    "SessionClosed",
    "NetTimeout",
    "control_payload",
    "parse_control",
    "encode_frame",
    "pack_channel",
    "unpack_channel",
]

#: Per-frame magic: every frame on the stream starts with these two bytes,
#: so a desynchronized or foreign peer is detected on the very next frame
#: boundary instead of being misparsed.
MAGIC = b"RN"

#: ``magic(2) | type(u8) | flags(u8) | length(u32 LE)``.
HEADER = struct.Struct("<2sBBI")
HEADER_BYTES = HEADER.size

#: Default ceiling on a single frame's payload.  The server advertises its
#: own limit in the HELLO handshake; both sides enforce theirs on receive,
#: so a corrupt length prefix can never trigger an 4 GiB allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

# -- frame types (u8) --------------------------------------------------------
# 0x0x: handshake, 0x1x: data plane, 0x2x: metrics, 0x3x: drain,
# 0x7x: terminal.  Unassigned values are reserved for future versions.
FRAME_HELLO = 0x01
FRAME_NEGOTIATE = 0x02
FRAME_ACCEPT = 0x03
FRAME_RESUME = 0x04
FRAME_RESUMED = 0x05
FRAME_SUBMIT = 0x10
FRAME_SUMMARY = 0x11
FRAME_METRICS_REQ = 0x20
FRAME_METRICS = 0x21
FRAME_DRAIN = 0x30
FRAME_DRAINED = 0x31
FRAME_ERROR = 0x7E
FRAME_GOODBYE = 0x7F

#: Human-readable names for error messages and the CLI's ``--verbose``.
FRAME_NAMES: Dict[int, str] = {
    FRAME_HELLO: "HELLO",
    FRAME_NEGOTIATE: "NEGOTIATE",
    FRAME_ACCEPT: "ACCEPT",
    FRAME_RESUME: "RESUME",
    FRAME_RESUMED: "RESUMED",
    FRAME_SUBMIT: "SUBMIT",
    FRAME_SUMMARY: "SUMMARY",
    FRAME_METRICS_REQ: "METRICS_REQ",
    FRAME_METRICS: "METRICS",
    FRAME_DRAIN: "DRAIN",
    FRAME_DRAINED: "DRAINED",
    FRAME_ERROR: "ERROR",
    FRAME_GOODBYE: "GOODBYE",
}


# -- typed errors ------------------------------------------------------------


class NetError(Exception):
    """Base of every network-service error.

    ``code`` is the machine-readable identifier that travels in ERROR
    frames (``{"code": ..., "message": ...}``), so a client can match on
    the same vocabulary whether the failure was detected locally or
    reported by the peer.
    """

    code = "net-error"


class BadMagic(NetError):
    """The stream's next two bytes are not ``b"RN"`` — a foreign or
    desynchronized peer."""

    code = "bad-magic"


class OversizedFrame(NetError):
    """A frame's length prefix exceeds the enforced maximum."""

    code = "oversized-frame"


class TruncatedFrame(NetError):
    """The connection ended mid-frame (header or payload cut short)."""

    code = "truncated-frame"


class CorruptFrame(NetError):
    """A data payload failed its CRC32 check — bytes were damaged in
    transit (or by a fault proxy).  Connection-fatal: the stream can no
    longer be trusted, so the client reconnects and resubmits under the
    same idempotency keys."""

    code = "corrupt-frame"


class HandshakeError(NetError):
    """Version negotiation failed (no mutual version, or a data frame
    arrived before the handshake completed)."""

    code = "handshake"


class UnsupportedFrame(NetError):
    """A frame type the receiver does not accept: an unassigned value, or
    a frame sent in the wrong direction (e.g. a SUMMARY from a client)."""

    code = "unsupported-frame"


class ServerError(NetError):
    """The peer reported a failure in an ERROR frame.

    Attributes mirror the frame payload: ``code`` (machine-readable),
    ``message`` (human-readable), ``channel`` (the submit envelope the
    error refers to, or ``None`` for connection-level errors), and
    ``retry_after_ms`` (the server's backoff hint on ``retry-after``
    admission-control refusals, else ``None``).
    """

    def __init__(
        self,
        code: str,
        message: str,
        channel: Optional[int] = None,
        retry_after_ms: Optional[float] = None,
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.channel = channel
        self.retry_after_ms = retry_after_ms


class SessionClosed(NetError):
    """The peer said GOODBYE (or closed cleanly) while frames were still
    expected."""

    code = "session-closed"


class NetTimeout(NetError):
    """A blocking client operation exceeded its timeout."""

    code = "timeout"


# -- frame codec -------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """One decoded frame: ``type`` (FRAME_* constant) plus raw payload."""

    type: int
    payload: bytes = b""
    flags: int = 0

    @property
    def name(self) -> str:
        """Human-readable frame-type name (``"SUBMIT"``, ...)."""
        return FRAME_NAMES.get(self.type, f"0x{self.type:02x}")


def encode_frame(frame: Frame, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame; raises :class:`OversizedFrame` beyond the cap."""
    if len(frame.payload) > max_frame:
        raise OversizedFrame(
            f"refusing to send a {len(frame.payload)}-byte {frame.name} "
            f"payload (cap {max_frame})"
        )
    return HEADER.pack(
        MAGIC, frame.type, frame.flags, len(frame.payload)
    ) + frame.payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    Both the asyncio server and the blocking client feed whatever the
    socket yields into :meth:`feed` and pull complete frames out of
    :meth:`next_frame`; TCP's chunking never aligns with frame
    boundaries, so the decoder owns the reassembly buffer.  Call
    :meth:`eof` when the peer closes: a non-empty buffer at EOF is a
    mid-frame disconnect and raises :class:`TruncatedFrame`.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        """Append received bytes to the reassembly buffer."""
        self._buf.extend(data)

    def next_frame(self) -> Optional[Frame]:
        """The next complete frame, or ``None`` if more bytes are needed.

        Raises :class:`BadMagic` / :class:`OversizedFrame` as soon as the
        header is readable — malformed input is rejected before the
        payload is buffered, so a garbage peer cannot make the decoder
        hold gigabytes.
        """
        if len(self._buf) < HEADER_BYTES:
            return None
        magic, ftype, flags, length = HEADER.unpack_from(self._buf)
        if magic != MAGIC:
            raise BadMagic(
                f"expected frame magic {MAGIC!r}, got {bytes(magic)!r}"
            )
        if length > self.max_frame:
            raise OversizedFrame(
                f"frame announces a {length}-byte payload "
                f"(cap {self.max_frame})"
            )
        if len(self._buf) < HEADER_BYTES + length:
            return None
        payload = bytes(self._buf[HEADER_BYTES:HEADER_BYTES + length])
        del self._buf[:HEADER_BYTES + length]
        return Frame(ftype, payload, flags)

    def eof(self) -> None:
        """Signal peer close; raises :class:`TruncatedFrame` mid-frame."""
        if self._buf:
            raise TruncatedFrame(
                f"connection closed with {len(self._buf)} buffered bytes "
                f"of an incomplete frame"
            )

    @property
    def buffered(self) -> int:
        """Bytes currently held in the reassembly buffer."""
        return len(self._buf)


# -- payload helpers ---------------------------------------------------------


def control_payload(doc: Dict[str, object]) -> bytes:
    """Canonical-JSON control payload (sorted keys, minimal separators).

    Canonical form matters: the PROTOCOL.md hex example is byte-exact,
    and error-frame CRCs in captures hash the same bytes everywhere.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def parse_control(payload: bytes) -> Dict[str, object]:
    """Parse a control payload; raises :class:`NetError` on non-JSON."""
    try:
        doc = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetError(f"malformed control payload: {exc}") from None
    if not isinstance(doc, dict):
        raise NetError(
            f"control payload must be a JSON object, got {type(doc).__name__}"
        )
    return doc


_CHANNEL = struct.Struct("<I")


def pack_channel(channel: int, envelope: bytes) -> bytes:
    """Prefix a data payload with its u32 channel (submit-envelope id)."""
    return _CHANNEL.pack(channel) + envelope


def unpack_channel(payload: bytes) -> Tuple[int, bytes]:
    """Split a data payload into ``(channel, envelope_bytes)``."""
    if len(payload) < _CHANNEL.size:
        raise TruncatedFrame(
            f"data payload of {len(payload)} bytes is shorter than its "
            f"channel prefix"
        )
    return _CHANNEL.unpack_from(payload)[0], payload[_CHANNEL.size:]
