"""Zero-copy columnar IPC for the gateway's process pool.

The executor boundary used to move one pickle per object: each
:class:`~repro.core.engine.RunRequest` pickled into the ``submit()`` call,
each :class:`~repro.core.engine.RunSummary` pickled back.  Per-object
pickling is the dominant serialization cost of a saturated service — the
payloads are tiny, the per-object protocol overhead is not.  This module
replaces that path with *envelope buffers*: a whole chunk of requests (or
results) encoded as one flat columnar blob using the envelope column
primitives of :mod:`repro.core.wire`, shipped across the process boundary
either through a :mod:`multiprocessing.shared_memory` slot
(:class:`ShmTransport` — the worker reads the bytes in place, no pickle at
all for the payload) or as a single ``bytes`` argument
(:class:`PickleTransport` — one opaque byte-string pickle instead of N
object pickles).  :func:`make_transport` always asks for shared memory;
pickle bytes are only ever a fallback, never a choice.

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

Crash safety: each shared-memory slot is split into a request region
(parent-written, worker-read) and a result region (worker-written,
parent-read only after the future resolves), so a ``SIGKILL`` mid-write can
tear at most bytes the parent will never read.  Slots are owned and
unlinked by the parent; :meth:`ShmArena.live_segments` exposes the
created-not-yet-unlinked set so the chaos suite can assert no segment
leaks across worker kills.  Results that outgrow their region fall back to
returning the encoded bytes through the future (pool pickling of one
``bytes`` object), and batches that find no free slot fall back to the
pickle-bytes path — the transport degrades, it never blocks.

The module also hosts :class:`AutoscalePolicy`, the pure decision rule the
streaming gateway's worker autoscaler samples against observed queue depth.
"""

from __future__ import annotations

import struct
import uuid
from concurrent.futures import CancelledError, Future
from multiprocessing import resource_tracker, shared_memory
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

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
    "ShmArena",
    "Slot",
    "PendingEnvelope",
    "PickleTransport",
    "ShmTransport",
    "make_transport",
    "AutoscalePolicy",
]

MAGIC = b"RENV"
ENVELOPE_VERSION = 1
_KIND_REQUESTS = 0
_KIND_SUMMARIES = 1


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
    # Inlined fast_request: per-row function-call overhead is measurable
    # at envelope sizes (bench_transport gates the ratio), so the hot
    # decode builds each frozen instance's dict as a literal in place.
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
    # Inlined fast_summary, same reasoning as decode_requests.  ``ok``
    # rides a 0/1 byte column and is re-booled column-wise.
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


# -- shared-memory arena -----------------------------------------------------


class Slot:
    """One shared-memory segment, split into request and result regions.

    Layout: ``[0, result_offset)`` is the request region (parent writes,
    worker reads); ``[result_offset, size)`` is the result region (worker
    writes, parent reads only after the worker's future resolves).  The
    disjoint write domains are the crash-safety argument: a worker killed
    mid-write can only tear bytes in the region the parent never trusts
    before a clean future resolution.
    """

    __slots__ = ("shm", "name", "result_offset", "request_capacity",
                 "result_capacity", "in_use")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.name = shm.name
        size = shm.size
        self.result_offset = size // 2
        self.request_capacity = self.result_offset
        self.result_capacity = size - self.result_offset
        self.in_use = False

    def write_request(self, blob: bytes) -> None:
        self.shm.buf[:len(blob)] = blob

    def read_result(self, length: int) -> bytes:
        start = self.result_offset
        return bytes(self.shm.buf[start:start + length])


class ShmArena:
    """Parent-owned pool of fixed shared-memory slots.

    All segments are created (and eventually unlinked) by the parent
    process; workers only attach.  ``acquire`` never blocks — when every
    slot is busy or the payload outgrows a region the caller falls back to
    the pickle path.  The class-level ``_live`` registry tracks every
    segment created and not yet unlinked, across all arenas in the
    process, so tests can assert worker kills leak nothing.
    """

    _live: Dict[str, "ShmArena"] = {}

    def __init__(self, slots: int = 8, slot_bytes: int = 1 << 20) -> None:
        if slots < 1:
            raise ValueError("need at least one slot")
        self._slots: List[Slot] = []
        prefix = f"renv-{uuid.uuid4().hex[:8]}"
        try:
            for i in range(slots):
                shm = shared_memory.SharedMemory(
                    create=True, size=slot_bytes, name=f"{prefix}-{i}"
                )
                self._slots.append(Slot(shm))
                ShmArena._live[shm.name] = self
        except (OSError, ValueError):
            # Slot creation failed partway (shm exhaustion, bad size):
            # unlink whatever was already created, then surface the error.
            self.close()
            raise
        self._closed = False

    @classmethod
    def live_segments(cls) -> List[str]:
        """Names of all created-but-not-yet-unlinked segments."""
        return sorted(cls._live)

    def acquire(self, request_bytes: int) -> Optional[Slot]:
        """A free slot that fits ``request_bytes``, or ``None``."""
        if self._closed:
            return None
        for slot in self._slots:
            if not slot.in_use and request_bytes <= slot.request_capacity:
                slot.in_use = True
                return slot
        return None

    def release(self, slot: Slot) -> None:
        slot.in_use = False

    def close(self) -> None:
        """Unlink every segment.  Idempotent."""
        self._closed = True
        slots, self._slots = self._slots, []
        for slot in slots:
            ShmArena._live.pop(slot.name, None)
            try:
                slot.shm.close()
                slot.shm.unlink()
            except (FileNotFoundError, OSError):
                pass

    def __del__(self) -> None:  # last-resort cleanup; close() is the API
        try:
            self.close()
        # repro: ignore[RPR006] -- best-effort shm cleanup: __del__ may run
        # during interpreter teardown where any module global can be None.
        except Exception:
            pass


# -- worker-side entry points ------------------------------------------------
#
# These run inside pool workers.  They import the executor lazily (the
# service modules import this one at top level; the worker resolves the
# function once and caches it) and keep a bounded cache of attached
# segments so repeated envelopes through the same slot skip the attach
# syscall.

_execute_request: Optional[Callable[[RunRequest], RunSummary]] = None

_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CAP = 64


def _executor() -> Callable[[RunRequest], RunSummary]:
    global _execute_request
    if _execute_request is None:
        from .batch import execute_request

        _execute_request = execute_request
    return _execute_request


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is not None:
        return shm
    if len(_ATTACHED) >= _ATTACH_CAP:
        for cached in _ATTACHED.values():
            try:
                cached.close()
            except OSError:
                pass
        _ATTACHED.clear()
    # CPython's resource tracker registers *attaching* processes as owners
    # and would unlink the parent's segment when this worker exits
    # (bpo-39959); only the creating process may own the lifetime.  Suppress
    # the attach-side register entirely rather than unregistering after the
    # fact: under fork the workers share the parent's tracker, and an
    # unregister here would strip the parent's own registration (its later
    # ``unlink()`` then double-unregisters and the tracker logs a KeyError).
    register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register
    _ATTACHED[name] = shm
    return shm


def _run_envelope_bytes(blob: bytes) -> bytes:
    """Pickle-transport worker: envelope bytes in, envelope bytes out."""
    run = _executor()
    summaries = [run(r) for r in decode_requests(blob)]
    return encode_summaries(summaries)


def _run_envelope_shm(
    name: str, request_length: int, result_offset: int, result_capacity: int
):
    """Shm-transport worker: read the slot in place, write results back.

    Returns the result byte count when the encoded summaries fit the
    result region, or the encoded bytes themselves when they don't (the
    overflow path costs one bytes-pickle, it never fails the batch).
    """
    shm = _attach(name)
    blob = bytes(shm.buf[:request_length])
    run = _executor()
    summaries = [run(r) for r in decode_requests(blob)]
    out = encode_summaries(summaries)
    if len(out) <= result_capacity:
        shm.buf[result_offset:result_offset + len(out)] = out
        return len(out)
    return out


# -- transports --------------------------------------------------------------


class PendingEnvelope:
    """One in-flight envelope: the future plus what decoding needs.

    ``decode`` is called exactly once, after ``future`` resolved cleanly;
    ``abandon`` covers every other exit (executor death, deadline
    abandonment) and is idempotent.  A slot whose worker may still be
    running is not recycled immediately — ``abandon`` parks the release on
    the future's completion so a straggling worker can't scribble into a
    reused slot.
    """

    __slots__ = ("future", "requests", "_slot", "_arena", "_released")

    def __init__(
        self,
        future: "Future[Any]",
        requests: Sequence[RunRequest],
        slot: Optional[Slot] = None,
        arena: Optional[ShmArena] = None,
    ) -> None:
        self.future = future
        self.requests = requests
        self._slot = slot
        self._arena = arena
        self._released = False

    def _release(self) -> None:
        if self._released:
            return
        self._released = True
        if self._slot is not None and self._arena is not None:
            self._arena.release(self._slot)

    def decode(self) -> List[RunSummary]:
        """Decode the resolved future's payload and recycle the slot."""
        raw = self.future.result()
        try:
            if isinstance(raw, int):
                if self._slot is None:
                    raise TypeError(
                        "integer result on a slotless envelope"
                    )
                return decode_summaries(
                    self._slot.read_result(raw), self.requests
                )
            return decode_summaries(raw, self.requests)
        finally:
            self._release()

    def abandon(self) -> None:
        """Give up on this envelope without reading a result."""
        if self._released:
            return
        def _settle(f: "Future[Any]") -> None:
            try:
                f.exception()
            except CancelledError:
                pass  # an abandoned hop may also have been cancelled
            self._release()

        if self.future.done():
            _settle(self.future)
        else:
            # The worker may still be writing into the slot: recycle it
            # only once the stale run finishes (or the pool dies).
            self.future.add_done_callback(_settle)


class PickleTransport:
    """Envelope bytes through the executor's own pickle channel.

    Still columnar — one opaque ``bytes`` pickle per direction instead of
    one object pickle per request/summary — so it is both the portable
    fallback and most of the serialization win.
    """

    name = "pickle"
    fallback_reason = ""

    def dispatch(self, pool, requests: Sequence[RunRequest]) -> PendingEnvelope:
        blob = encode_requests(requests)
        return PendingEnvelope(
            pool.submit(_run_envelope_bytes, blob), requests
        )

    def close(self) -> None:
        pass


class ShmTransport:
    """Envelope bytes through shared-memory slots.

    The worker reads the request envelope in place and writes the result
    envelope back into the same slot; the only pickled values are the slot
    coordinates and the result length.  Batches that find no free slot
    (or outgrow a region) silently take the pickle-bytes path of
    :class:`PickleTransport`.
    """

    name = "shm"
    fallback_reason = ""

    def __init__(self, slots: int = 8, slot_bytes: int = 1 << 20) -> None:
        self._arena = ShmArena(slots=slots, slot_bytes=slot_bytes)

    def dispatch(self, pool, requests: Sequence[RunRequest]) -> PendingEnvelope:
        blob = encode_requests(requests)
        slot = self._arena.acquire(len(blob))
        if slot is None:
            return PendingEnvelope(
                pool.submit(_run_envelope_bytes, blob), requests
            )
        slot.write_request(blob)
        try:
            future = pool.submit(
                _run_envelope_shm, slot.name, len(blob), slot.result_offset,
                slot.result_capacity,
            )
        except BaseException:
            # A refused submit (e.g. a pool that broke while idle) ran
            # nothing: the slot goes straight back to the arena.
            self._arena.release(slot)
            raise
        return PendingEnvelope(future, requests, slot, self._arena)

    def close(self) -> None:
        self._arena.close()


def make_transport(*, slots: int = 8, slot_bytes: int = 1 << 20):
    """Build the shm transport, degrading to ``pickle`` if the host can't
    create shared memory (some sandboxes mount no ``/dev/shm``).

    The returned transport's ``fallback_reason`` records why it came back
    as ``pickle`` (empty otherwise).
    """
    try:
        return ShmTransport(slots=slots, slot_bytes=slot_bytes)
    except (OSError, ValueError) as exc:
        transport = PickleTransport()
        transport.fallback_reason = (
            f"shared memory unavailable ({type(exc).__name__}: {exc}); "
            "using pickle transport"
        )
        return transport


# -- autoscaler policy -------------------------------------------------------


class AutoscalePolicy:
    """Pure decision rule for the streaming gateway's worker autoscaler.

    The gateway samples queue depth and feeds ``observe(depth, now)``;
    the policy answers ``+1`` (add a dispatcher), ``-1`` (retire one) or
    ``0``.  Scale-up requires the depth to sit at/above ``high_depth``
    for ``sustain_s`` continuous seconds; scale-down symmetrically for
    ``low_depth``; and every decision starts a ``cooldown_s`` quiet
    period so bursts can't thrash the pool.  Deliberately free of clocks
    and asyncio: the caller supplies ``now``, which makes the policy
    directly unit-testable.
    """

    def __init__(
        self,
        *,
        min_workers: int = 1,
        max_workers: int = 4,
        high_depth: int = 8,
        low_depth: int = 1,
        sustain_s: float = 0.25,
        cooldown_s: float = 1.0,
    ) -> None:
        if min_workers < 1 or max_workers < min_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if low_depth > high_depth:
            raise ValueError("low_depth must not exceed high_depth")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.high_depth = high_depth
        self.low_depth = low_depth
        self.sustain_s = sustain_s
        self.cooldown_s = cooldown_s
        self.workers = min_workers
        self._high_since: Optional[float] = None
        self._low_since: Optional[float] = None
        self._decided_at: Optional[float] = None

    def observe(self, depth: int, now: float) -> int:
        if self._decided_at is not None:
            if now - self._decided_at < self.cooldown_s:
                return 0
            self._decided_at = None
        if depth >= self.high_depth:
            self._low_since = None
            if self.workers >= self.max_workers:
                self._high_since = None
                return 0
            if self._high_since is None:
                self._high_since = now
            if now - self._high_since >= self.sustain_s:
                self.workers += 1
                self._high_since = None
                self._decided_at = now
                return 1
            return 0
        self._high_since = None
        if depth <= self.low_depth:
            if self.workers <= self.min_workers:
                self._low_since = None
                return 0
            if self._low_since is None:
                self._low_since = now
            if now - self._low_since >= self.sustain_s:
                self.workers -= 1
                self._low_since = None
                self._decided_at = now
                return -1
            return 0
        self._low_since = None
        return 0
