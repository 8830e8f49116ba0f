"""Asyncio TCP server fronting :class:`~repro.service.stream.StreamGateway`.

The server owns exactly one gateway and speaks the `RN` frame protocol
(:mod:`repro.service.net.framing`, spec in ``docs/PROTOCOL.md``) to any
number of concurrent clients.  Everything the gateway already does —
backpressure, deadlines, chaos tags, recording — works unchanged over
the socket, because the server is a thin adapter: SUBMIT frames decode
to the same `RENV` request envelopes the in-process path uses, every
request goes through ``gateway.submit()``, and summaries travel back as
columnar SUMMARY frames.  The layer adds only what a *network* front
end needs:

* a HELLO → NEGOTIATE → ACCEPT handshake pinning the one wire dialect
  (:mod:`repro.service.net.protocol`);
* per-client **session ids** and a per-session **queue quota** — the
  first fairness policy: one greedy client exhausts its own quota, not
  the shared gateway queue;
* per-lineage idempotency caching and overload admission control, with
  the quota capped at the gateway queue so no admitted row is rejected;
* summaries sent as envelopes complete (clients correlate by channel);
* graceful shutdown: stop accepting, flush every in-flight summary,
  say GOODBYE, then close the gateway.

Every protocol violation maps to a *typed* ERROR frame followed by
GOODBYE — a misbehaving peer is told why and disconnected, never hung.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...core.engine import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    RunRequest,
    RunSummary,
)
from ..stream import StreamGateway
from ..transport import encode_summaries
from . import protocol
from .framing import (
    FRAME_ACCEPT,
    FRAME_DRAIN,
    FRAME_DRAINED,
    FRAME_ERROR,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_METRICS,
    FRAME_METRICS_REQ,
    FRAME_NEGOTIATE,
    FRAME_RESUME,
    FRAME_RESUMED,
    FRAME_SUBMIT,
    MAX_FRAME_BYTES,
    Frame,
    FrameDecoder,
    HandshakeError,
    NetError,
    OversizedFrame,
    UnsupportedFrame,
    control_payload,
    encode_frame,
    parse_control,
)

__all__ = [
    "SERVER_NAME",
    "DEFAULT_SESSION_QUOTA",
    "DEFAULT_IDEMPOTENCY_KEYS",
    "DEFAULT_MAX_LINEAGES",
    "DEFAULT_RETRY_AFTER_MS",
    "HANDSHAKE_TIMEOUT_S",
    "NetServer",
    "ServerThread",
]

#: advertised in the HELLO frame so clients can sanity-check whom they
#: reached before negotiating.
SERVER_NAME = "repro.service.net"

#: max outstanding (submitted, not yet summarised) requests per session.
DEFAULT_SESSION_QUOTA = 64

#: bound on cached idempotency-key results per lineage (LRU-evicted).
DEFAULT_IDEMPOTENCY_KEYS = 512

#: bound on distinct lineages the server remembers (FIFO-evicted).
DEFAULT_MAX_LINEAGES = 64

#: the backoff hint every ``retry-after`` refusal carries (admission control).
DEFAULT_RETRY_AFTER_MS = 50.0

#: a connection that has not completed NEGOTIATE within this window is
#: dropped — half-open sockets cannot pin server resources.
HANDSHAKE_TIMEOUT_S = 10.0

#: read-chunk size for the per-connection frame reassembly loop.
_READ_CHUNK = 65536

#: socket-level failures that mean "the peer is gone", not "a bug":
#: they end the session quietly instead of producing an ERROR frame.
_GONE = (ConnectionResetError, BrokenPipeError, OSError)


@dataclass
class _Lineage:
    """Idempotency state for one client identity, across connections.

    A *lineage* is the client-chosen identity a RESUME frame binds a
    session to; it outlives any one TCP connection, which is the whole
    point — a reconnecting client re-attaches and its resubmitted
    envelopes are answered from ``cache`` instead of re-executing.

    ``cache`` maps idempotency key -> *encoded* summary-envelope bytes
    (LRU, bounded by ``cap``): serving original bytes guarantees a
    resubmit's answer is byte-identical to the first execution's.
    ``inflight`` coalesces a resubmit that races the first execution —
    the retry awaits the same result instead of executing again.
    """

    id: str
    cap: int
    cache: "OrderedDict[str, bytes]" = field(default_factory=OrderedDict)
    inflight: Dict[str, "asyncio.Future[bytes]"] = field(
        default_factory=dict
    )
    sessions: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0

    def remember(self, key: str, envelope: bytes) -> None:
        """Cache one executed envelope, LRU-evicting past ``cap``."""
        self.cache[key] = envelope
        self.cache.move_to_end(key)
        while len(self.cache) > self.cap:
            self.cache.popitem(last=False)
            self.evictions += 1


@dataclass
class _Session:
    """Per-connection server state (session id, accounting)."""

    id: int
    writer: asyncio.StreamWriter
    quota: int
    #: serialises frame writes: delivery tasks and the read loop share
    #: one socket, and frames must never interleave mid-byte.
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: requests submitted to the gateway but not yet summarised.
    inflight: int = 0
    #: live delivery tasks — what close()/DRAIN wait on.
    pending: Set["asyncio.Task[None]"] = field(default_factory=set)
    #: the lineage a RESUME frame bound this session to.
    lineage: Optional[_Lineage] = None


class NetServer:
    """TCP front end for a :class:`StreamGateway` (see module docstring).

    Gateway-shaping keyword arguments (``workers``, ``engine``,
    ``backend``, ``queue_cap``, ``deadline_ms``) are passed through to
    the owned gateway verbatim; the gateway coalesces queued rows, from
    one envelope or several, into executor hops of up to eight.
    ``session_quota``, ``max_frame`` and ``idempotency_keys`` are the
    network layer's own knobs; the advertised quota is
    ``min(session_quota, queue_cap)``, so every envelope the server
    admits fits the gateway queue (:meth:`_saturated`).

    Lifecycle mirrors the gateway: ``await start()``, serve, ``await
    close()``.  ``port=0`` binds an ephemeral port; read ``.port`` after
    ``start()``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        engine: str = "fast",
        backend: str = "thread",
        queue_cap: int = 64,
        deadline_ms: Optional[float] = None,
        session_quota: int = DEFAULT_SESSION_QUOTA,
        max_frame: int = MAX_FRAME_BYTES,
        idempotency_keys: int = DEFAULT_IDEMPOTENCY_KEYS,
    ) -> None:
        if session_quota < 1:
            raise ValueError("session_quota must be >= 1")
        if max_frame < 1024:
            raise ValueError("max_frame must be >= 1024")
        if idempotency_keys < 1:
            raise ValueError("idempotency_keys must be >= 1")
        self._requested_host = host
        self._requested_port = port
        self.gateway = StreamGateway(
            workers=workers,
            engine=engine,
            backend=backend,
            queue_cap=queue_cap,
            deadline_ms=deadline_ms,
        )
        self.session_quota = min(int(session_quota), self.gateway.queue_cap)
        self.max_frame = int(max_frame)
        self.idempotency_keys = int(idempotency_keys)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[int, _Session] = {}
        self._lineages: "OrderedDict[str, _Lineage]" = OrderedDict()
        self._session_ids = itertools.count(1)
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._draining = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound host (valid after :meth:`start`)."""
        return self._bound()[0]

    @property
    def port(self) -> int:
        """Bound port (valid after :meth:`start`; resolves ``port=0``)."""
        return self._bound()[1]

    @property
    def sessions(self) -> int:
        """Number of currently connected, negotiated sessions."""
        return len(self._sessions)

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (new SUBMITs are refused)."""
        return self._draining

    def _bound(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        name = self._server.sockets[0].getsockname()
        return str(name[0]), int(name[1])

    async def start(self) -> "NetServer":
        """Start the gateway, bind the socket, begin accepting."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._closed:
            raise RuntimeError("server already closed; build a new one")
        await self.gateway.start()
        self._server = await asyncio.start_server(
            self._on_connection, self._requested_host, self._requested_port
        )
        return self

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful shutdown: flush in-flight tickets, say GOODBYE.

        Order matters: (1) flip ``draining`` so new SUBMITs get a typed
        refusal, (2) stop accepting connections, (3) wait for every live
        delivery task — every future the gateway owes a connected client
        resolves and its SUMMARY frame is flushed, (4) GOODBYE + close
        each connection, (5) close the gateway itself.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self._sessions.values()):
            flushing = list(session.pending)
            if flushing:
                await asyncio.gather(*flushing, return_exceptions=True)
            await self._try_send(
                session,
                _control(
                    FRAME_GOODBYE,
                    {"reason": "server-shutdown", "session": session.id},
                ),
            )
            session.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._sessions.clear()
        await self.gateway.close()

    # -- connection handling -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        session: Optional[_Session] = None
        try:
            decoder = FrameDecoder(self.max_frame)
            session = await self._handshake(reader, writer, decoder)
            await self._session_loop(reader, session, decoder)
        except NetError as exc:
            await self._farewell(writer, exc, session)
        except asyncio.TimeoutError:
            await self._farewell(
                writer,
                HandshakeError(
                    f"handshake not completed within {HANDSHAKE_TIMEOUT_S}s"
                ),
                session,
            )
        except _GONE:
            pass  # peer vanished mid-frame; nothing to tell it
        finally:
            if session is not None:
                self._sessions.pop(session.id, None)
            writer.close()

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        decoder: FrameDecoder,
    ) -> _Session:
        """HELLO → NEGOTIATE → ACCEPT; returns the negotiated session."""
        hello = {
            "server": SERVER_NAME,
            "versions": [protocol.VERSION],
            "max_frame": self.max_frame,
            "engine": self.gateway.engine,
            "quota": self.session_quota,
        }
        writer.write(encode_frame(_control(FRAME_HELLO, hello)))
        await writer.drain()
        frame = await asyncio.wait_for(
            self._next_frame(reader, decoder), HANDSHAKE_TIMEOUT_S
        )
        if frame is None:
            raise HandshakeError("peer closed before NEGOTIATE")
        if frame.type != FRAME_NEGOTIATE:
            raise HandshakeError(
                f"expected NEGOTIATE, got {frame.name} before the "
                f"handshake completed"
            )
        doc = parse_control(frame.payload)
        version = doc.get("version")
        if not isinstance(version, int) or version != protocol.VERSION:
            raise HandshakeError(
                f"unsupported protocol version {version!r}; this server "
                f"speaks {protocol.VERSION}"
            )
        session = _Session(
            id=next(self._session_ids),
            writer=writer,
            quota=self.session_quota,
        )
        self._sessions[session.id] = session
        accept = {
            "version": protocol.VERSION,
            "session": session.id,
            "quota": session.quota,
        }
        await self._send(session, _control(FRAME_ACCEPT, accept))
        return session

    async def _next_frame(
        self, reader: asyncio.StreamReader, decoder: FrameDecoder
    ) -> Optional[Frame]:
        """The connection's next frame, or ``None`` on clean EOF.

        Raises the decoder's typed errors (:class:`BadMagic`,
        :class:`OversizedFrame`, :class:`TruncatedFrame`) as soon as the
        offending bytes arrive.
        """
        while True:
            frame = decoder.next_frame()
            if frame is not None:
                return frame
            data = await reader.read(_READ_CHUNK)
            if not data:
                decoder.eof()  # raises TruncatedFrame mid-frame
                return None
            decoder.feed(data)

    async def _session_loop(
        self,
        reader: asyncio.StreamReader,
        session: _Session,
        decoder: FrameDecoder,
    ) -> None:
        """Dispatch frames until GOODBYE, EOF, or a protocol violation."""
        while True:
            frame = await self._next_frame(reader, decoder)
            if frame is None or frame.type == FRAME_GOODBYE:
                return
            if frame.type == FRAME_SUBMIT:
                await self._on_submit(session, frame)
            elif frame.type == FRAME_RESUME:
                await self._on_resume(session, frame)
            elif frame.type == FRAME_METRICS_REQ:
                await self._on_metrics(session)
            elif frame.type == FRAME_DRAIN:
                await self._on_drain(session)
            else:
                # server-emitted types (SUMMARY, METRICS, DRAINED, ERROR),
                # handshake frames and unassigned types arriving *from* a
                # client are a protocol violation.
                raise UnsupportedFrame(
                    f"client may not send {frame.name} frames"
                )

    # -- frame handlers ------------------------------------------------------

    async def _on_submit(self, session: _Session, frame: Frame) -> None:
        channel, key, requests = protocol.decode_submit(frame)
        if self._draining:
            await self._try_send(
                session,
                _control(
                    FRAME_ERROR,
                    {
                        "code": "draining",
                        "message": "server is shutting down",
                        "channel": channel,
                    },
                ),
            )
            await self._try_send(
                session,
                _control(
                    FRAME_GOODBYE,
                    {"reason": "draining", "session": session.id},
                ),
            )
            return
        lineage = session.lineage
        if lineage is not None and key:
            # Idempotency first: answering a resubmit from the cache (or
            # coalescing onto the in-flight first execution) costs no
            # gateway resources, so it is served even under saturation.
            cached = lineage.cache.get(key)
            if cached is not None:
                lineage.hits += 1
                lineage.cache.move_to_end(key)
                self._spawn_delivery(
                    session,
                    self._send_summary(session, channel, cached, cached=True),
                    channel,
                )
                return
            shared = lineage.inflight.get(key)
            if shared is not None:
                lineage.coalesced += 1
                self._spawn_delivery(
                    session,
                    self._deliver_coalesced(session, channel, shared),
                    channel,
                )
                return
        if self._saturated(len(requests)):
            # Admission control: convert gateway-queue saturation into a
            # typed, survivable backoff hint instead of letting the gateway
            # reject the individual requests.
            await self._try_send(
                session,
                _control(
                    FRAME_ERROR,
                    {
                        "code": "retry-after",
                        "message": (
                            f"gateway queue is saturated "
                            f"({self.gateway.queue_depth}/"
                            f"{self.gateway.queue_cap}); retry envelope "
                            f"{channel} after backoff"
                        ),
                        "channel": channel,
                        "retry_after_ms": DEFAULT_RETRY_AFTER_MS,
                    },
                ),
            )
            return
        if session.inflight + len(requests) > session.quota:
            await self._try_send(
                session,
                _control(
                    FRAME_ERROR,
                    {
                        "code": "quota-exceeded",
                        "message": (
                            f"session {session.id} has {session.inflight} "
                            f"requests in flight; envelope of "
                            f"{len(requests)} exceeds quota {session.quota}"
                        ),
                        "channel": channel,
                    },
                ),
            )
            return
        inflight_result: Optional["asyncio.Future[bytes]"] = None
        if lineage is not None and key:
            lineage.misses += 1
            inflight_result = asyncio.get_running_loop().create_future()
            lineage.inflight[key] = inflight_result
        session.inflight += len(requests)
        futures = [await self.gateway.submit(r) for r in requests]
        self._spawn_delivery(
            session,
            self._deliver(
                session, channel, requests, futures,
                key=key, lineage=lineage, inflight_result=inflight_result,
            ),
            channel,
        )

    def _saturated(self, incoming: int) -> bool:
        """Whether admission control should refuse this envelope.

        Only refuses when the queue already holds work (``depth > 0``):
        an idle queue takes any envelope within the quota, which never
        exceeds the queue capacity.  An admitted envelope's rows are all
        enqueued before the loop runs anything else: none is rejected.
        """
        depth = self.gateway.queue_depth
        return depth > 0 and depth + incoming > self.gateway.queue_cap

    def _spawn_delivery(
        self, session: _Session, coro, channel: int
    ) -> None:
        """Run a delivery as a task that close() and DRAIN wait on."""
        task = asyncio.create_task(
            coro, name=f"net-deliver-s{session.id}-c{channel}"
        )
        session.pending.add(task)
        task.add_done_callback(session.pending.discard)

    async def _deliver_coalesced(
        self,
        session: _Session,
        channel: int,
        shared: "asyncio.Future[bytes]",
    ) -> None:
        """Answer a resubmit by awaiting the first execution's result."""
        envelope = await asyncio.shield(shared)
        await self._send_summary(session, channel, envelope, cached=True)

    async def _deliver(
        self,
        session: _Session,
        channel: int,
        requests: Sequence[RunRequest],
        futures: Sequence["asyncio.Future[RunSummary]"],
        key: str = "",
        lineage: Optional[_Lineage] = None,
        inflight_result: Optional["asyncio.Future[bytes]"] = None,
    ) -> None:
        """Await one envelope's summaries and send its SUMMARY frame.

        For keyed, lineage-bound envelopes the *encoded* result is
        remembered in the lineage cache before the send is attempted —
        a client that disconnected mid-execution still finds its answer
        waiting when it reconnects and resubmits.  Only fully *executed*
        envelopes are cached (every row completed or failed): rejected /
        cancelled rows never ran, and caching them would turn a retry
        into a permanent non-answer.
        """
        try:
            summaries: List[RunSummary] = list(await asyncio.gather(*futures))
        except BaseException as exc:
            if inflight_result is not None and not inflight_result.done():
                inflight_result.set_exception(exc)
                # mark retrieved: coalesced waiters (if any) get the
                # exception through their shield; without waiters the
                # future must not warn at GC time.
                inflight_result.exception()
            if lineage is not None:
                lineage.inflight.pop(key, None)
            raise
        session.inflight -= len(requests)
        envelope = encode_summaries(summaries)
        if lineage is not None and key:
            executed = all(
                s.status in (STATUS_COMPLETED, STATUS_FAILED)
                for s in summaries
            )
            if executed:
                lineage.remember(key, envelope)
            if inflight_result is not None and not inflight_result.done():
                inflight_result.set_result(envelope)
            lineage.inflight.pop(key, None)
        await self._send_summary(session, channel, envelope)

    async def _on_resume(self, session: _Session, frame: Frame) -> None:
        """Bind this session to a lineage; report which keys are cached."""
        doc = parse_control(frame.payload)
        lineage_id = doc.get("lineage")
        if not isinstance(lineage_id, str) or not lineage_id:
            raise HandshakeError(
                f"RESUME carries no lineage string: {doc!r}"
            )
        lineage = self._lineages.get(lineage_id)
        if lineage is None:
            lineage = _Lineage(id=lineage_id, cap=self.idempotency_keys)
            self._lineages[lineage_id] = lineage
            while len(self._lineages) > DEFAULT_MAX_LINEAGES:
                self._lineages.popitem(last=False)
        else:
            self._lineages.move_to_end(lineage_id)
        session.lineage = lineage
        resumed = lineage.sessions > 0
        lineage.sessions += 1
        await self._send(
            session,
            _control(
                FRAME_RESUMED,
                {
                    "session": session.id,
                    "lineage": lineage_id,
                    "resumed": resumed,
                    "cached": sorted(lineage.cache),
                },
            ),
        )

    async def _on_metrics(self, session: _Session) -> None:
        lineages = list(self._lineages.values())
        doc = {
            "gateway": self.gateway.metrics.to_dict(),
            "engine": self.gateway.engine,
            "sessions": len(self._sessions),
            "session": session.id,
            "inflight": session.inflight,
            "quota": session.quota,
            "draining": self._draining,
            "idempotency": {
                "lineages": len(lineages),
                "cached_keys": sum(len(ln.cache) for ln in lineages),
                "hits": sum(ln.hits for ln in lineages),
                "misses": sum(ln.misses for ln in lineages),
                "coalesced": sum(ln.coalesced for ln in lineages),
                "evictions": sum(ln.evictions for ln in lineages),
            },
        }
        await self._send(session, _control(FRAME_METRICS, doc))

    async def _on_drain(self, session: _Session) -> None:
        """In-band barrier: answer DRAINED once this session is flushed."""
        flushed = 0
        while True:
            pending = [t for t in session.pending if not t.done()]
            if not pending:
                break
            flushed += len(pending)
            await asyncio.gather(*pending, return_exceptions=True)
        await self._send(
            session,
            _control(
                FRAME_DRAINED, {"session": session.id, "flushed": flushed}
            ),
        )

    # -- writes --------------------------------------------------------------

    async def _send(self, session: _Session, frame: Frame) -> None:
        """Write one frame under the session's write lock."""
        async with session.write_lock:
            session.writer.write(encode_frame(frame, self.max_frame))
            await session.writer.drain()

    async def _try_send(self, session: _Session, frame: Frame) -> None:
        """:meth:`_send`, but a vanished peer is not an error."""
        try:
            await self._send(session, frame)
        except _GONE:
            pass  # the session's read loop will observe the close

    async def _send_summary(
        self,
        session: _Session,
        channel: int,
        envelope: bytes,
        cached: bool = False,
    ) -> None:
        """Send one SUMMARY frame around encoded envelope bytes.

        A summary larger than this server's ``max_frame`` cannot be
        sent at all: the peer gets a fatal ``oversized-frame`` ERROR
        naming the channel, then GOODBYE, and the connection closes —
        never a silently dropped answer the client waits on forever.
        """
        try:
            await self._send(
                session, protocol.wrap_summary(channel, envelope, cached)
            )
        except OversizedFrame as exc:
            await self._farewell(session.writer, exc, session, channel)
            session.writer.close()
        except _GONE:
            pass  # the session's read loop will observe the close

    async def _farewell(
        self,
        writer: asyncio.StreamWriter,
        exc: NetError,
        session: Optional[_Session],
        channel: Optional[int] = None,
    ) -> None:
        """Report a typed error to the peer, then say GOODBYE."""
        doc: Dict[str, object] = {"code": exc.code, "message": str(exc)}
        if channel is not None:
            doc["channel"] = channel
        bye: Dict[str, object] = {"reason": exc.code}
        if session is not None:
            bye["session"] = session.id
        try:
            writer.write(encode_frame(_control(FRAME_ERROR, doc)))
            writer.write(encode_frame(_control(FRAME_GOODBYE, bye)))
            await writer.drain()
        except _GONE:
            pass  # nothing left to tell it


def _control(frame_type: int, doc: Dict[str, object]) -> Frame:
    """A control frame carrying a canonical-JSON payload."""
    return Frame(frame_type, control_payload(doc))


class ServerThread:
    """A :class:`NetServer` on a background thread with its own loop.

    The blocking :class:`~repro.service.net.client.Client`, the CLI's
    ``selfcheck``, benchmarks, and tests all need a live server without
    owning an event loop themselves.  ``start()`` returns once the
    socket is bound (``host``/``port`` are then valid); ``close()``
    performs the server's graceful shutdown and joins the thread.
    Usable as a context manager.
    """

    def __init__(self, **server_kwargs: object) -> None:
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.host = ""
        self.port = 0

    def start(self) -> "ServerThread":
        """Spawn the thread; block until the server is accepting.

        A failed start (port in use, bad kwargs, ...) raises *and*
        leaves the object safe to ``close()`` — the error path and
        ``__exit__`` may both run without a second exception.
        """
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="net-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            # the thread is already on its way out; reap it so close()
            # after a failed start() is a clean no-op.
            self._thread.join(timeout=5.0)
            self._thread = None
            raise RuntimeError(
                f"network server failed to start: {self._error!r}"
            ) from self._error
        return self

    def close(self) -> None:
        """Gracefully stop the server and join its thread (idempotent).

        Safe from error paths: after a failed ``start()``, after a
        previous ``close()``, or with the loop already torn down —
        none of these raise.
        """
        thread, self._thread = self._thread, None
        if thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed — the thread is finishing
        if thread.is_alive():
            thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # repro: ignore[RPR006] -- surfaced to the starting thread via self._error in start()
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = NetServer(**self._kwargs)  # type: ignore[arg-type]
        await server.start()
        self.host, self.port = server.host, server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.close()
