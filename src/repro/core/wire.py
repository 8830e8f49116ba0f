"""The columnar wire data plane: flat per-round traffic buffers.

:class:`~repro.core.message.Packet` stays the *user-facing* unit of
communication — protocols yield and receive ``{dst: Packet}`` mappings — but
internally the engines exchange each round's traffic in *columnar* form:
three parallel flat buffers ``(srcs, dsts, payloads)`` plus the packet
references themselves.  The flat representation enables

* **batched validation** — the polynomial word bound is computed once per
  round and the audit runs as one tight loop over the payload column instead
  of one :func:`~repro.core.message.validate_packet` call per packet (the
  canonical per-packet function is still delegated to on failure so error
  types and messages are byte-identical);
* **bucketed delivery** — inboxes are assembled by bucketing the columns by
  destination, preserving the exact source order the reference semantics
  prescribe;
* **forwarding by reference** — a relay that moves a whole packet unchanged
  (the dominant operation in the Lenzen router: intermediates simply pass
  segments along) re-uses the sender's ``Packet`` object and its words tuple
  instead of re-tupling the payload on every hop
  (:func:`regroup_segments`);
* **lazy packet materialization** — when a new ``Packet`` must exist at the
  protocol boundary, :func:`fast_packet` builds it without the dataclass
  ``__init__``/``__post_init__`` machinery (the words are already tuples on
  the wire, so the defensive re-tupling is skipped).

The module also owns :class:`HeaderCodec`, the memoized pack/unpack table
for ``(source, dest, seq)`` message headers; codecs are structural plans and
live in the process-wide :class:`~repro.core.context.PlanCache`.

Since PR 7 the same columnar idea crosses the *IPC* boundary: the envelope
column primitives at the bottom of this module (string table, constant /
interned / raw string columns, i64 / f64 / byte / optional-f64 columns) are
the building blocks :mod:`repro.service.transport` assembles into flat
``RunRequest``/``RunSummary`` envelope buffers — the bytes one
process-pool hop of the stream gateway (and so of a pooled batch) carries
each way, and the payload of the network protocol's data frames.  They
live here, beside the data-plane columns, because they are the same
representation discipline: parallel flat buffers, constant-column
collapse, one C-speed pass per column instead of one pickle per object.

Everything here is *semantics-preserving*: outputs, round counts, per-round
traffic statistics and error behavior match the packet-at-a-time code path
(the engine-equivalence and differential-fuzz suites enforce this).
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .context import planned
from .errors import ProtocolError
from .message import (
    POLY_BOUND_EXPONENT,
    Packet,
    pack_triple,
    unpack_triple,
    validate_packet,
)

__all__ = [
    "fast_packet",
    "WireBatch",
    "encode_outbox",
    "decode_columns",
    "bad_segment_width",
    "validate_words",
    "validate_columns",
    "word_bound",
    "regroup_segments",
    "HeaderCodec",
    "header_codec",
    # envelope column primitives (used by repro.service.transport)
    "NONE_IDX",
    "COL_FULL",
    "COL_CONST",
    "COL_RAW",
    "StringTable",
    "pack_i64_col",
    "pack_f64_col",
    "pack_byte_col",
    "pack_opt_f64_col",
    "pack_raw_str_col",
    "read_string_table",
    "string_lut",
    "read_str_col",
    "read_raw_str_col",
    "read_i64_col",
    "read_f64_col",
    "read_byte_col",
    "read_opt_f64_col",
]

_new_packet = Packet.__new__
_set_attr = object.__setattr__


def fast_packet(words: Tuple[int, ...]) -> Packet:
    """Materialize a :class:`Packet` around an existing words tuple.

    The dataclass constructor re-checks and re-tuples its argument on every
    call; on the wire the words are tuples already, so the protocol boundary
    can materialize packets without that overhead.  ``words`` MUST be a
    tuple of ints — callers on the hot path guarantee this structurally.
    """
    pkt = _new_packet(Packet)
    _set_attr(pkt, "words", words)
    return pkt


def word_bound(n: int) -> int:
    """The polynomial magnitude bound ``max(n, 2) ** k``, hoisted per round."""
    return max(n, 2) ** POLY_BOUND_EXPONENT


def bad_segment_width(n_words: int, seg: int) -> ProtocolError:
    """The canonical ragged-packet error (single source of the message).

    Segment consumers keep their split loops inlined for speed; they share
    this constructor so the wire format's error text cannot drift between
    the relay path and the receiver path.
    """
    return ProtocolError(
        f"packet of {n_words} words is not a multiple of segment "
        f"width {seg}"
    )


def encode_outbox(
    outbox: Dict[int, Packet],
) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """Encode one outbox into columnar ``(dsts, payloads)`` buffers.

    Together with :func:`decode_columns` this is the *boundary codec* of
    the columnar representation — the pair the property suite holds to the
    round-trip-identity contract and the entry point for external tooling;
    the engines themselves exchange traffic through :class:`WireBatch`.
    """
    dsts: List[int] = []
    payloads: List[Tuple[int, ...]] = []
    for dst, pkt in outbox.items():
        dsts.append(dst)
        payloads.append(pkt.words)
    return dsts, payloads


def decode_columns(
    dsts: Sequence[int], payloads: Sequence[Tuple[int, ...]]
) -> Dict[int, Packet]:
    """Inverse of :func:`encode_outbox`: rebuild the ``{dst: Packet}`` view."""
    if len(dsts) != len(payloads):
        raise ProtocolError(
            f"columnar buffers disagree: {len(dsts)} destinations vs "
            f"{len(payloads)} payloads"
        )
    return {
        dst: fast_packet(tuple(words))
        for dst, words in zip(dsts, payloads)
    }


def validate_words(
    pkt: Optional[Packet],
    words: Tuple[int, ...],
    n: int,
    capacity: int,
    bound: int,
) -> None:
    """Audit one payload with the magnitude ``bound`` precomputed.

    The single source of the hoisted-bound audit semantics: checks exactly
    what :func:`~repro.core.message.validate_packet` checks — word count,
    integer-ness, polynomial magnitude.  On anything but a plain in-range
    int the canonical validator is re-run, so it raises — or, for benign
    exotica like an in-range int subclass, passes — with the
    packet-at-a-time error types and messages.
    """
    if len(words) > capacity:
        validate_packet(
            pkt if pkt is not None else fast_packet(words), n, capacity
        )
    neg_bound = -bound
    for w in words:
        # Exact-type fast path: a plain int inside the bound is valid.
        if w.__class__ is int and neg_bound < w < bound:
            continue
        validate_packet(
            pkt if pkt is not None else fast_packet(words), n, capacity
        )
        # The canonical validator passed (benign exotica, e.g. an in-range
        # int subclass) — and it already judged every word, so stop here.
        return


def validate_columns(
    payloads: Sequence[Tuple[int, ...]],
    n: int,
    capacity: int,
    packets: Optional[Sequence[Packet]] = None,
) -> None:
    """Batched model audit over a payload column.

    :func:`validate_words` applied to every payload, with the bound computed
    once for the whole batch.
    """
    bound = word_bound(n)
    for i, words in enumerate(payloads):
        validate_words(
            packets[i] if packets is not None else None,
            words,
            n,
            capacity,
            bound,
        )


class WireBatch:
    """One round's traffic in columnar form.

    Parallel flat buffers: ``srcs[i]``, ``dsts[i]``, ``packets[i]`` and
    ``payloads[i]`` describe the ``i``-th packet of the round in global
    collection order (ascending source, each source's outbox in insertion
    order) — exactly the order the reference engine audits and delivers in.
    """

    __slots__ = ("srcs", "dsts", "packets", "payloads")

    def __init__(self) -> None:
        self.srcs: List[int] = []
        self.dsts: List[int] = []
        self.packets: List[Packet] = []
        self.payloads: List[Tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.packets)

    def add_outbox(self, src: int, outbox: Dict[int, Packet]) -> None:
        """Append every packet of one source's outbox to the columns."""
        srcs = self.srcs
        dsts = self.dsts
        packets = self.packets
        payloads = self.payloads
        for dst, pkt in outbox.items():
            srcs.append(src)
            dsts.append(dst)
            packets.append(pkt)
            payloads.append(pkt.words)

    def validate(self, n: int, capacity: int) -> None:
        """Batched audit of the whole round (see :func:`validate_columns`)."""
        validate_columns(self.payloads, n, capacity, self.packets)

    def deliver(
        self, inboxes: List[Dict[int, Packet]]
    ) -> Tuple[int, int, int]:
        """Bucket the columns into per-destination inboxes.

        Mutates ``inboxes`` in place (one dict per node) and returns the
        round's aggregate traffic statistics ``(packets, words, max_edge)``.
        Packets are moved by reference — the object a protocol receives is
        the object its peer sent.
        """
        words_total = 0
        max_edge = 0
        for src, dst, pkt, words in zip(
            self.srcs, self.dsts, self.packets, self.payloads
        ):
            inboxes[dst][src] = pkt
            n_words = len(words)
            words_total += n_words
            if n_words > max_edge:
                max_edge = n_words
        return len(self.packets), words_total, max_edge

    def clear(self) -> None:
        self.srcs.clear()
        self.dsts.clear()
        self.packets.clear()
        self.payloads.clear()


def regroup_segments(
    inbox: Dict[int, Packet], seg: Optional[int]
) -> Dict[int, Packet]:
    """Relay fast path: regroup ``(dest, *item)`` segments by destination.

    This is the intermediate hop of Corollary 3.3 (``route_known``): every
    received packet is a concatenation of fixed-width segments (``seg`` words
    each, ``None`` = one variable-width segment) whose first word names the
    final destination.  Segments are regrouped by destination in ascending
    source order.

    Forward-by-reference: when every segment of an incoming packet names one
    destination and no other source contributes to it, the packet object is
    forwarded untouched — no words are copied.  Mixed packets fall back to
    concatenating the segment tuples (still through :func:`fast_packet`, so
    no dataclass overhead and no re-tupling of the word values).
    """
    whole: Dict[int, Packet] = {}  # dest -> reusable packet (fast path)
    parts: Dict[int, List[int]] = {}  # dest -> accumulated words
    for src in sorted(inbox):
        pkt = inbox[src]
        words = pkt.words
        if not words:
            continue
        if seg is None:
            dest = words[0]
            single_dest: Optional[int] = dest
        else:
            if len(words) % seg != 0:
                raise bad_segment_width(len(words), seg)
            dest = words[0]
            single_dest = dest
            for i in range(seg, len(words), seg):
                if words[i] != dest:
                    single_dest = None
                    break
        if (
            single_dest is not None
            and single_dest not in whole
            and single_dest not in parts
        ):
            whole[single_dest] = pkt  # forward the packet by reference
            continue
        # Slow path: merge into the destination's word accumulator (pulling
        # in any previously whole-forwarded packet for the same dest).
        if seg is None:
            segments = [(words[0], words)]
        else:
            segments = [
                (words[i], words[i : i + seg])
                for i in range(0, len(words), seg)
            ]
        for dest, seg_words in segments:
            acc = parts.get(dest)
            if acc is None:
                prev = whole.pop(dest, None)
                acc = parts[dest] = (
                    list(prev.words) if prev is not None else []
                )
            acc.extend(seg_words)
    out: Dict[int, Packet] = {}
    for dest, pkt in whole.items():
        out[dest] = pkt
    for dest, acc in parts.items():
        out[dest] = fast_packet(tuple(acc))
    return out


class HeaderCodec:
    """Memoized pack/unpack arithmetic for ``(source, dest, seq)`` headers.

    The Lenzen wire format tags every message with one packed header word,
    ``((source * base) + dest) * base + seq``.  :meth:`pack`/:meth:`unpack`
    delegate to the canonical :func:`~repro.core.message.pack_triple` /
    :func:`~repro.core.message.unpack_triple` with the base pre-bound;
    routing touches the header of every message on every hop — usually only
    to extract the destination — so the codec additionally offers the
    partial :meth:`dest_of` that skips materializing the full triple.

    Codecs are pure functions of ``base`` and are plan-cached; fetch them
    via :func:`header_codec`.
    """

    __slots__ = ("base", "_base_sq")

    def __init__(self, base: int) -> None:
        if base < 1:
            raise ValueError("header base must be >= 1")
        self.base = base
        self._base_sq = base * base

    def pack(self, source: int, dest: int, seq: int) -> int:
        return pack_triple(source, dest, seq, self.base)

    def unpack(self, word: int) -> Tuple[int, int, int]:
        return unpack_triple(word, self.base)

    def dest_of(self, word: int) -> int:
        """The ``dest`` field alone — the router's per-hop question."""
        return (word // self.base) % self.base

    def source_of(self, word: int) -> int:
        return word // self._base_sq

    def seq_of(self, word: int) -> int:
        return word % self.base

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HeaderCodec(base={self.base})"


def header_codec(base: int) -> HeaderCodec:
    """The plan-cached :class:`HeaderCodec` for ``base``."""
    return planned(("header_codec", base), lambda: HeaderCodec(base))


# -- envelope column primitives ----------------------------------------------
#
# The flat building blocks of the service-layer envelope codec
# (:mod:`repro.service.transport`): one column per envelope field, each
# column a flag byte followed by its payload.  Three column shapes:
#
# * ``COL_FULL``  (0) — one fixed-width value per row (``array`` buffers for
#   numerics, u32 string-table indices for strings);
# * ``COL_CONST`` (1) — the column holds a single value repeated ``count``
#   times (the dominant case for service batches: engine, status, tag and
#   deadline are usually uniform) and is collapsed to that one value;
# * ``COL_RAW``   (2) — strings only: per-row *character* lengths plus one
#   concatenated UTF-8 blob.  For high-cardinality columns (output digests
#   are unique per run) this skips the string table entirely; for the
#   optional-f64 column flag 2 instead means "all rows are None".
#
# Numeric columns are little-endian i64 / f64 (``array("q")`` raises
# ``OverflowError`` outside the i64 range — envelope fields are seeds,
# sizes and counters, all far inside it).  ``None`` string rows are the
# sentinel index ``NONE_IDX``.  Constant detection uses ``list.count``
# (identity-shortcut C loop), so even repeated-NaN objects collapse.

NONE_IDX = 0xFFFFFFFF
COL_FULL = 0
COL_CONST = 1
COL_RAW = 2


class StringTable:
    """Interning accumulator for the envelope string columns.

    Encode side only: every distinct string across all of an envelope's
    interned columns gets one table slot; columns store u32 indices.  The
    table itself is serialized once per envelope (:meth:`table_bytes`) and
    decoded back with :func:`read_string_table` / :func:`string_lut`.
    """

    __slots__ = ("map", "order")

    def __init__(self) -> None:
        self.map: Dict[Optional[str], int] = {None: NONE_IDX}
        self.order: List[str] = []

    def idx(self, value: Optional[str]) -> int:
        m = self.map
        i = m.get(value)
        if i is None:
            i = m[value] = len(self.order)
            self.order.append(value)  # type: ignore[arg-type]
        return i

    def col(self, values: Sequence[Optional[str]]) -> bytes:
        """Encode one string column (const-collapsed or interned u32s)."""
        count = len(values)
        v0 = values[0]
        if values.count(v0) == count:  # type: ignore[union-attr]
            return struct.pack("<BI", COL_CONST, self.idx(v0))
        m = self.map
        order = self.order
        for v in dict.fromkeys(values):
            if v not in m:
                m[v] = len(order)
                order.append(v)  # type: ignore[arg-type]
        return bytes([COL_FULL]) + array(
            "I", map(m.__getitem__, values)
        ).tobytes()

    def table_bytes(self) -> bytes:
        parts = [struct.pack("<I", len(self.order))]
        for s in self.order:
            b = s.encode("utf-8")
            parts.append(struct.pack("<I", len(b)))
            parts.append(b)
        return b"".join(parts)


def pack_raw_str_col(values: Sequence[str]) -> bytes:
    """Encode a high-cardinality string column without interning.

    Per-row *character* lengths (so decode can slice one decoded string —
    correct for non-ASCII content) plus a single concatenated UTF-8 blob.
    Rows must not be ``None``; const columns still collapse.
    """
    count = len(values)
    v0 = values[0]
    if values.count(v0) == count:
        b = v0.encode("utf-8")
        return struct.pack("<BI", COL_CONST, len(b)) + b
    blob = "".join(values).encode("utf-8")
    return (
        bytes([COL_RAW])
        + array("I", map(len, values)).tobytes()
        + struct.pack("<I", len(blob))
        + blob
    )


def pack_i64_col(values: Sequence[int], count: int) -> bytes:
    v0 = values[0]
    if values.count(v0) == count:
        return struct.pack("<Bq", COL_CONST, v0)
    return bytes([COL_FULL]) + array("q", values).tobytes()


def pack_f64_col(values: Sequence[float], count: int) -> bytes:
    v0 = values[0]
    if values.count(v0) == count:
        return struct.pack("<Bd", COL_CONST, v0)
    return bytes([COL_FULL]) + array("d", values).tobytes()


def pack_byte_col(values: Sequence[int], count: int) -> bytes:
    v0 = values[0]
    if values.count(v0) == count:
        return struct.pack("<BB", COL_CONST, v0)
    return bytes([COL_FULL]) + bytes(values)


def pack_opt_f64_col(
    values: Sequence[Optional[float]], count: int
) -> bytes:
    v0 = values[0]
    if values.count(v0) == count:
        if v0 is None:
            return bytes([COL_RAW])  # flag 2: every row is None
        return struct.pack("<Bd", COL_CONST, v0)
    present = bytes([0 if v is None else 1 for v in values])
    dvals = array("d", [0.0 if v is None else v for v in values])
    return bytes([COL_FULL]) + present + dvals.tobytes()


def read_string_table(buf: bytes, off: int) -> Tuple[List[str], int]:
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    out = []
    for _ in range(n):
        (ln,) = struct.unpack_from("<I", buf, off)
        off += 4
        out.append(buf[off:off + ln].decode("utf-8"))
        off += ln
    return out, off


def string_lut(table: List[str]) -> Dict[int, Optional[str]]:
    """Index -> string mapping with the ``None`` sentinel installed."""
    d: Dict[int, Optional[str]] = dict(enumerate(table))
    d[NONE_IDX] = None
    return d


def read_str_col(
    buf: bytes, off: int, count: int, lut: Dict[int, Optional[str]]
) -> Tuple[Sequence[Optional[str]], int]:
    flag = buf[off]
    off += 1
    if flag == COL_CONST:
        (i,) = struct.unpack_from("<I", buf, off)
        return (lut[i],) * count, off + 4
    col = array("I")
    col.frombytes(buf[off:off + 4 * count])
    return list(map(lut.__getitem__, col)), off + 4 * count


def read_raw_str_col(
    buf: bytes, off: int, count: int
) -> Tuple[Sequence[str], int]:
    """Decode a :func:`pack_raw_str_col` column (no table, no ``None``)."""
    flag = buf[off]
    off += 1
    if flag == COL_CONST:
        (bl,) = struct.unpack_from("<I", buf, off)
        off += 4
        return (buf[off:off + bl].decode("utf-8"),) * count, off + bl
    lens = array("I")
    lens.frombytes(buf[off:off + 4 * count])
    off += 4 * count
    (bl,) = struct.unpack_from("<I", buf, off)
    off += 4
    s = buf[off:off + bl].decode("utf-8")
    out = []
    pos = 0
    for ln in lens:
        out.append(s[pos:pos + ln])
        pos += ln
    return out, off + bl


def read_i64_col(
    buf: bytes, off: int, count: int
) -> Tuple[Sequence[int], int]:
    flag = buf[off]
    off += 1
    if flag == COL_CONST:
        (v,) = struct.unpack_from("<q", buf, off)
        return (v,) * count, off + 8
    col = array("q")
    col.frombytes(buf[off:off + 8 * count])
    return col, off + 8 * count


def read_f64_col(
    buf: bytes, off: int, count: int
) -> Tuple[Sequence[float], int]:
    flag = buf[off]
    off += 1
    if flag == COL_CONST:
        (v,) = struct.unpack_from("<d", buf, off)
        return (v,) * count, off + 8
    col = array("d")
    col.frombytes(buf[off:off + 8 * count])
    return col, off + 8 * count


def read_byte_col(
    buf: bytes, off: int, count: int
) -> Tuple[Sequence[int], int]:
    flag = buf[off]
    off += 1
    if flag == COL_CONST:
        return (buf[off],) * count, off + 1
    return buf[off:off + count], off + count


def read_opt_f64_col(
    buf: bytes, off: int, count: int
) -> Tuple[Sequence[Optional[float]], int]:
    flag = buf[off]
    off += 1
    if flag == COL_RAW:  # all-None fast path
        return (None,) * count, off
    if flag == COL_CONST:
        (v,) = struct.unpack_from("<d", buf, off)
        return (v,) * count, off + 8
    present = buf[off:off + count]
    off += count
    vals = array("d")
    vals.frombytes(buf[off:off + 8 * count])
    return (
        [v if p else None for p, v in zip(present, vals)],
        off + 8 * count,
    )
