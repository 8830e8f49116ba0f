"""Columnar envelopes for the gateway's worker processes.

The process boundary used to move one pickle per object: each
:class:`~repro.core.engine.RunRequest` pickled into the ``submit()`` call,
each :class:`~repro.core.engine.RunSummary` pickled back.  Per-object
pickling is the dominant serialization cost of a saturated service — the
payloads are tiny, the per-object protocol overhead is not.  This module
replaces that path with *envelope buffers*: a whole hop of requests (or
results) encoded as one flat columnar blob using the envelope column
primitives of :mod:`repro.core.wire`.  A hop goes down a worker's socket
as one request envelope and comes back as one summary envelope, each
preceded by its byte length (:data:`LENGTH`); :func:`serve_envelopes` is
the worker's side of that socket.

Wire format (``MAGIC = b"RENV"``)::

    b"RENV" | u8 version | u8 kind (0=requests, 1=summaries) | u32 count
    string table: u32 n, then n * (u32 byte-length + utf-8 bytes)
    columns, in fixed field order, each with a leading flag byte
    (see repro.core.wire: COL_FULL / COL_CONST / COL_RAW)

Two deliberate asymmetries keep the envelopes small and fast:

* **Summaries do not re-ship their request.**  The dispatching side holds
  the request objects of every in-flight envelope; :func:`decode_summaries`
  rejoins them *by position*.  The nested ``RunRequest`` is the most
  expensive part of a pickled summary, and it is redundant on this path.
* **Digests ride a raw column** (:func:`~repro.core.wire.pack_raw_str_col`):
  they are unique per run, so interning them would build a string table as
  large as the data.
"""

from __future__ import annotations

import signal
import socket
import struct
from operator import attrgetter
from typing import Callable, List, Optional, Sequence

from ..core.engine import RunRequest, RunSummary
from ..core.wire import (
    StringTable,
    pack_byte_col,
    pack_f64_col,
    pack_i64_col,
    pack_opt_f64_col,
    pack_raw_str_col,
    read_byte_col,
    read_f64_col,
    read_i64_col,
    read_opt_f64_col,
    read_raw_str_col,
    read_str_col,
    read_string_table,
    string_lut,
)

__all__ = [
    "MAGIC",
    "ENVELOPE_VERSION",
    "encode_requests",
    "decode_requests",
    "encode_summaries",
    "decode_summaries",
    "run_envelope",
    "serve_envelopes",
]

MAGIC = b"RENV"
ENVELOPE_VERSION = 1
_KIND_REQUESTS = 0
_KIND_SUMMARIES = 1

#: The byte length that precedes every envelope on a worker socket.
LENGTH = struct.Struct("<I")


# -- envelope codec ----------------------------------------------------------

_REQ_GET = attrgetter(
    "kind", "family", "algorithm", "engine", "tag", "n", "seed",
    "deadline_ms",
)

_SUM_GET = attrgetter(
    "engine", "digest", "error", "status", "ok", "rounds", "total_packets",
    "total_words", "max_edge_words", "shared_cache_hits",
    "shared_cache_misses", "wall_s", "queue_s", "latency_s",
)


def _header(kind: int, count: int) -> bytes:
    return MAGIC + struct.pack("<BBI", ENVELOPE_VERSION, kind, count)


def _check_header(buf: bytes, kind: int) -> int:
    if bytes(buf[:4]) != MAGIC:
        raise ValueError("not an envelope buffer (bad magic)")
    version, got, count = struct.unpack_from("<BBI", buf, 4)
    if version != ENVELOPE_VERSION:
        raise ValueError(f"unsupported envelope version {version}")
    if got != kind:
        raise ValueError(f"envelope kind mismatch: expected {kind}, got {got}")
    return count


def encode_requests(requests: Sequence[RunRequest]) -> bytes:
    """Encode a non-empty request batch into one columnar envelope."""
    count = len(requests)
    if not count:
        raise ValueError("cannot encode an empty request batch")
    kind, family, algorithm, engine, tag, n, seed, deadline = zip(
        *map(_REQ_GET, requests)
    )
    table = StringTable()
    cols = [
        table.col(kind),
        table.col(family),
        table.col(algorithm),
        table.col(engine),
        table.col(tag),
        pack_i64_col(n, count),
        pack_i64_col(seed, count),
        pack_opt_f64_col(deadline, count),
    ]
    return b"".join(
        [_header(_KIND_REQUESTS, count), table.table_bytes()] + cols
    )


def decode_requests(buf: bytes) -> List[RunRequest]:
    """Decode :func:`encode_requests` output back into request objects."""
    count = _check_header(buf, _KIND_REQUESTS)
    off = 10
    table, off = read_string_table(buf, off)
    lut = string_lut(table)
    kind, off = read_str_col(buf, off, count, lut)
    family, off = read_str_col(buf, off, count, lut)
    algorithm, off = read_str_col(buf, off, count, lut)
    engine, off = read_str_col(buf, off, count, lut)
    tag, off = read_str_col(buf, off, count, lut)
    n, off = read_i64_col(buf, off, count)
    seed, off = read_i64_col(buf, off, count)
    deadline, off = read_opt_f64_col(buf, off, count)
    # A constructor call per row is measurable at envelope sizes
    # (bench_transport gates the ratio), so the hot decode builds each
    # frozen instance's dict as a literal in place.
    new = RunRequest.__new__
    set_attr = object.__setattr__
    out: List[RunRequest] = []
    append = out.append
    for k, f, nn, sd, alg, eng, tg, dl in zip(
        kind, family, n, seed, algorithm, engine, tag, deadline
    ):
        r = new(RunRequest)
        set_attr(r, "__dict__", {
            "kind": k, "family": f, "n": nn, "seed": sd, "algorithm": alg,
            "engine": eng, "tag": tg, "deadline_ms": dl,
        })
        append(r)
    return out


def encode_summaries(summaries: Sequence[RunSummary]) -> bytes:
    """Encode a non-empty summary batch (requests are *not* shipped)."""
    count = len(summaries)
    if not count:
        raise ValueError("cannot encode an empty summary batch")
    (engine, digest, error, status, ok, rounds, total_packets, total_words,
     max_edge_words, hits, misses, wall, queue, latency) = zip(
        *map(_SUM_GET, summaries)
    )
    table = StringTable()
    cols = [
        table.col(engine),
        pack_raw_str_col(digest),
        table.col(error),
        table.col(status),
        pack_byte_col(ok, count),  # bool is int: packs as 0/1 bytes
        pack_i64_col(rounds, count),
        pack_i64_col(total_packets, count),
        pack_i64_col(total_words, count),
        pack_i64_col(max_edge_words, count),
        pack_i64_col(hits, count),
        pack_i64_col(misses, count),
        pack_f64_col(wall, count),
        pack_f64_col(queue, count),
        pack_f64_col(latency, count),
    ]
    return b"".join(
        [_header(_KIND_SUMMARIES, count), table.table_bytes()] + cols
    )


def decode_summaries(
    buf: bytes, requests: Sequence[RunRequest]
) -> List[RunSummary]:
    """Decode a summary envelope, rejoining ``requests`` by position.

    ``requests`` must be the exact sequence the envelope's summaries were
    produced from — the dispatcher holds them per in-flight envelope.
    """
    count = _check_header(buf, _KIND_SUMMARIES)
    if count != len(requests):
        raise ValueError(
            f"summary envelope carries {count} rows for "
            f"{len(requests)} requests"
        )
    off = 10
    table, off = read_string_table(buf, off)
    lut = string_lut(table)
    engine, off = read_str_col(buf, off, count, lut)
    digest, off = read_raw_str_col(buf, off, count)
    error, off = read_str_col(buf, off, count, lut)
    status, off = read_str_col(buf, off, count, lut)
    ok, off = read_byte_col(buf, off, count)
    rounds, off = read_i64_col(buf, off, count)
    total_packets, off = read_i64_col(buf, off, count)
    total_words, off = read_i64_col(buf, off, count)
    max_edge_words, off = read_i64_col(buf, off, count)
    hits, off = read_i64_col(buf, off, count)
    misses, off = read_i64_col(buf, off, count)
    wall, off = read_f64_col(buf, off, count)
    queue, off = read_f64_col(buf, off, count)
    latency, off = read_f64_col(buf, off, count)
    # Dict literals in place, as in decode_requests.  ``ok`` rides a 0/1
    # byte column and is re-booled column-wise.
    new = RunSummary.__new__
    out: List[RunSummary] = []
    append = out.append
    for req, o, eng, rd, tp, tw, mw, dig, w, h, m, err, st, q, lat in zip(
        requests, map(bool, ok), engine, rounds, total_packets,
        total_words, max_edge_words, digest, wall, hits, misses, error,
        status, queue, latency,
    ):
        s = new(RunSummary)
        s.__dict__ = {
            "request": req, "ok": o, "engine": eng, "rounds": rd,
            "total_packets": tp, "total_words": tw, "max_edge_words": mw,
            "digest": dig, "wall_s": w, "shared_cache_hits": h,
            "shared_cache_misses": m, "error": err, "status": st,
            "queue_s": q, "latency_s": lat,
        }
        append(s)
    return out


# -- worker-side entry point -------------------------------------------------
#
# Runs inside worker processes.  The executor is imported lazily (the
# service modules import this one at top level); the worker resolves it
# once and caches it.

_execute_request: Optional[Callable[[RunRequest], RunSummary]] = None


def _executor() -> Callable[[RunRequest], RunSummary]:
    global _execute_request
    if _execute_request is None:
        from .batch import execute_request

        _execute_request = execute_request
    return _execute_request


def run_envelope(blob: bytes) -> bytes:
    """Request envelope bytes in, summary envelope bytes out."""
    run = _executor()
    return encode_summaries([run(r) for r in decode_requests(blob)])


def serve_envelopes(sock: socket.socket) -> None:
    """Worker process: answer the request envelopes on ``sock``, in order.

    A plain blocking loop: read one length-prefixed request envelope,
    :func:`run_envelope` it, write the summary envelope back the same
    way.  It returns when the gateway closes its end (or the socket
    fails).  SIGINT is ignored: the gateway that started this process
    decides when it ends, after draining.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with sock, sock.makefile("rb") as rfile:
        try:
            while True:
                head = rfile.read(LENGTH.size)
                if len(head) < LENGTH.size:
                    return
                out = run_envelope(rfile.read(LENGTH.unpack(head)[0]))
                sock.sendall(LENGTH.pack(len(out)) + out)
        except OSError:
            return
