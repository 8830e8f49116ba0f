"""The wire dialect: protocol version 2's data-frame codec.

The server speaks exactly one dialect.  The HELLO → NEGOTIATE → ACCEPT
handshake still carries a version number — HELLO advertises
``[VERSION]``, ACCEPT echoes it, anything else is a typed ``handshake``
error — so a future version can be added beside this one.  What the
version fixes on the wire:

* **idempotency keys** — every SUBMIT carries a client-generated key
  (≤ 255 ASCII bytes) ahead of the request envelope.  The server keeps
  a bounded per-lineage result cache keyed on it, so a reconnecting
  client can resubmit an envelope it never saw answered without the
  requests executing twice.  A cached answer comes back as a SUMMARY
  frame with the :data:`FLAG_CACHED` flag bit set.
* **RESUME/RESUMED** — after reconnecting, a client re-attaches to its
  *lineage* (a client-chosen identity that survives connections) before
  submitting; RESUMED reports which idempotency keys the server still
  holds results for.  Control frames are canonical JSON.
* **payload CRCs** — SUBMIT and SUMMARY payloads embed a CRC32 of the
  `RENV` envelope.  A flipped bit surfaces as a typed
  :class:`~repro.service.net.framing.CorruptFrame` instead of a decoder
  crash or — worse — a silently wrong digest.  Corruption is
  connection-fatal; recovery is the reconnect + keyed-resubmit path.

Wire layouts (little-endian)::

    SUBMIT   u32 channel | u8 keylen | keylen bytes key | u32 crc32 | envelope
    SUMMARY  u32 channel | u32 crc32 | envelope

where ``crc32`` is ``zlib.crc32(envelope)``.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence, Tuple

from ...core.engine import RunRequest, RunSummary
from ..transport import decode_requests, decode_summaries, encode_requests
from .framing import (
    FRAME_SUBMIT,
    FRAME_SUMMARY,
    CorruptFrame,
    Frame,
    TruncatedFrame,
)

__all__ = [
    "VERSION",
    "FLAG_CACHED",
    "MAX_KEY_BYTES",
    "encode_submit",
    "decode_submit",
    "wrap_summary",
    "summary_channel",
    "summary_cached",
    "decode_summary",
]

#: the one protocol version this build speaks (HELLO, NEGOTIATE, ACCEPT).
VERSION = 2

#: SUMMARY flag bit: this answer was served from the server's
#: idempotency cache, not a fresh execution.  The reconnect differential
#: counts these to assert zero duplicate executions.
FLAG_CACHED = 0x01

#: idempotency keys are length-prefixed with a u8.
MAX_KEY_BYTES = 255

_CHANNEL = struct.Struct("<I")
_KEYLEN = struct.Struct("<B")
_CRC = struct.Struct("<I")


def _crc(envelope: bytes) -> bytes:
    return _CRC.pack(zlib.crc32(envelope) & 0xFFFFFFFF)


def _check_crc(payload: bytes, at: int, frame_name: str) -> bytes:
    """The envelope after the CRC at offset ``at``; typed error on mismatch."""
    expected = _CRC.unpack_from(payload, at)[0]
    envelope = payload[at + _CRC.size:]
    actual = zlib.crc32(envelope) & 0xFFFFFFFF
    if actual != expected:
        raise CorruptFrame(
            f"{frame_name} envelope CRC mismatch: header says "
            f"0x{expected:08x}, payload hashes to 0x{actual:08x}"
        )
    return envelope


def encode_submit(
    channel: int, requests: Sequence[RunRequest], key: str
) -> Frame:
    """A keyed SUBMIT frame with an envelope CRC."""
    key_bytes = key.encode("ascii")
    if len(key_bytes) > MAX_KEY_BYTES:
        raise ValueError(
            f"idempotency key of {len(key_bytes)} bytes exceeds the "
            f"u8 length prefix (max {MAX_KEY_BYTES})"
        )
    envelope = encode_requests(requests)
    return Frame(
        FRAME_SUBMIT,
        _CHANNEL.pack(channel)
        + _KEYLEN.pack(len(key_bytes))
        + key_bytes
        + _crc(envelope)
        + envelope,
    )


def decode_submit(frame: Frame) -> Tuple[int, str, List[RunRequest]]:
    """Split a SUBMIT frame into ``(channel, idempotency_key, requests)``."""
    payload = frame.payload
    fixed = _CHANNEL.size + _KEYLEN.size
    if len(payload) < fixed:
        raise TruncatedFrame(
            f"SUBMIT payload of {len(payload)} bytes is shorter than its "
            f"channel + key-length prefix"
        )
    channel = _CHANNEL.unpack_from(payload)[0]
    keylen = _KEYLEN.unpack_from(payload, _CHANNEL.size)[0]
    if len(payload) < fixed + keylen + _CRC.size:
        raise TruncatedFrame(
            f"SUBMIT payload of {len(payload)} bytes is shorter than its "
            f"{keylen}-byte key + CRC"
        )
    try:
        key = payload[fixed:fixed + keylen].decode("ascii")
    except UnicodeDecodeError:
        raise CorruptFrame("SUBMIT idempotency key is not ASCII") from None
    envelope = _check_crc(payload, fixed + keylen, "SUBMIT")
    return channel, key, decode_requests(envelope)


def wrap_summary(channel: int, envelope: bytes, cached: bool = False) -> Frame:
    """A SUMMARY frame around pre-encoded summary-envelope bytes.

    The server's idempotency cache stores *encoded* envelopes, so a
    cache hit re-frames the original bytes — the resubmitted request is
    answered with exactly what the first execution produced.
    """
    return Frame(
        FRAME_SUMMARY,
        _CHANNEL.pack(channel) + _crc(envelope) + envelope,
        flags=FLAG_CACHED if cached else 0,
    )


def summary_channel(frame: Frame) -> int:
    """The channel a SUMMARY frame answers.

    The channel sits ahead of the CRC, so reading it never needs the CRC
    to pass — :func:`decode_summary` checks it.
    """
    if len(frame.payload) < _CHANNEL.size:
        raise TruncatedFrame(
            f"SUMMARY payload of {len(frame.payload)} bytes is shorter "
            f"than its channel prefix"
        )
    return int(_CHANNEL.unpack_from(frame.payload)[0])


def summary_cached(frame: Frame) -> bool:
    """Whether a SUMMARY was served from the idempotency cache."""
    return bool(frame.flags & FLAG_CACHED)


def decode_summary(
    frame: Frame, requests: Sequence[RunRequest]
) -> List[RunSummary]:
    """Decode a SUMMARY frame, rejoining the submitter-held requests.

    Summaries never re-ship requests on the wire (the RENV rule).
    """
    payload = frame.payload
    if len(payload) < _CHANNEL.size + _CRC.size:
        raise TruncatedFrame(
            f"SUMMARY payload of {len(payload)} bytes is shorter than its "
            f"channel + CRC prefix"
        )
    envelope = _check_crc(payload, _CHANNEL.size, "SUMMARY")
    return decode_summaries(envelope, requests)
