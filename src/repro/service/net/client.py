"""Client library of the network service: ``Client`` and ``MockClient``.

Two public clients share one :class:`CommonClient` contract, mirroring
the exploration-tool pattern the ROADMAP points at:

* :class:`Client` — the TCP client, which survives the network failing
  under it: it reconnects, resumes its lineage and resubmits without
  executing anything twice.  What applications, the CLI and the
  benchmark use.
* :class:`MockClient` — an in-memory stand-in with the same surface
  that executes requests in-process.  What tests use when they want the
  client programming model without a server, and what the digest-parity
  differential compares the wire path against.

Beneath :class:`Client` sits :class:`_Connection`, one socket and one
session: real frames, a real handshake, and a typed error — never a
hang — for every way the wire can fail.  It is a ``CommonClient`` too,
so the contract and typed-error suites run against it directly.

The shared contract is deliberately small — ``connect``, ``submit``,
``collect``, ``run``, ``drain``, ``metrics``, ``close`` — and
channel-oriented: ``submit`` ships one `RENV` envelope of requests and
returns its channel id, ``collect`` blocks for that channel's summaries.
Summaries never re-ship requests on the wire; the client rejoins them
from the envelope it submitted (the same rule the in-process transport
enforces).

Invariant (DESIGN.md §13): *at-least-once delivery, at-most-once
execution*.  The one retry loop of :class:`Client` is bounded twice:
per attempt by the socket timeout, overall by the attempt cap and
:attr:`~repro.service.net.resilience.BackoffPolicy.deadline_s` — a dead
server surfaces as a typed
:class:`~repro.service.net.resilience.RetriesExhausted` (or
:class:`~repro.service.net.resilience.CircuitOpen`), never a hang.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from ...core.engine import RunRequest, RunSummary
from ..batch import execute_request
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
    FRAME_NAMES,
    FRAME_NEGOTIATE,
    FRAME_RESUME,
    FRAME_RESUMED,
    FRAME_SUMMARY,
    Frame,
    FrameDecoder,
    HandshakeError,
    NetError,
    NetTimeout,
    ServerError,
    SessionClosed,
    control_payload,
    encode_frame,
    parse_control,
)
from .resilience import (
    BackoffPolicy,
    CircuitBreaker,
    CircuitOpen,
    QuotaExceeded,
    RetriesExhausted,
)

__all__ = ["CommonClient", "Client", "MockClient", "SURVIVABLE_ERROR_CODES"]

_T = TypeVar("_T")

#: default cap on requests per SUBMIT envelope in :meth:`CommonClient.run`.
DEFAULT_CHUNK = 32

#: ERROR codes after which the session stays usable: the server refused
#: one envelope (quota or admission control) but the connection and every
#: other in-flight channel are intact.  Any *other* error the wire
#: surfaces is connection-fatal — the client hard-closes the socket so no
#: later call can block on a stream that will never produce its frame.
SURVIVABLE_ERROR_CODES = frozenset({"quota-exceeded", "retry-after"})


def _int_field(doc: Dict[str, object], key: str) -> int:
    """An integer field of a control document; typed error if absent."""
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise HandshakeError(f"expected integer {key!r} in {doc!r}")
    return value


class CommonClient:
    """The contract both clients implement (see module docstring).

    Subclasses provide :meth:`connect`, :meth:`submit`, :meth:`collect`,
    :meth:`drain`, :meth:`metrics` and :meth:`close`; this base supplies
    the session bookkeeping, the chunking/windowing :meth:`run` loop,
    and context-manager plumbing (``with Client(...) as c:`` connects
    and closes automatically).
    """

    def __init__(self) -> None:
        self._session: Optional[int] = None
        self._quota: Optional[int] = None
        self._server_info: Dict[str, object] = {}
        self._requests: Dict[int, List[RunRequest]] = {}
        self._next_channel = 1
        #: SUMMARY frames answered from the server's idempotency cache
        #: (the FLAG_CACHED bit) — the duplicate-execution meter.
        self.cache_hits = 0

    # -- session state -------------------------------------------------------

    @property
    def connected(self) -> bool:
        """Whether a session has been negotiated and not yet closed."""
        return self._session is not None

    @property
    def protocol_version(self) -> int:
        """The negotiated protocol version of this session."""
        if self._session is None:
            raise SessionClosed("client is not connected")
        return protocol.VERSION

    @property
    def session_id(self) -> int:
        """The server-assigned session id of this connection."""
        if self._session is None:
            raise SessionClosed("client is not connected")
        return self._session

    @property
    def session_quota(self) -> int:
        """Max outstanding requests the server allows this session."""
        if self._quota is None:
            raise SessionClosed("client is not connected")
        return self._quota

    @property
    def server_info(self) -> Dict[str, object]:
        """The server's HELLO document (name, versions, limits)."""
        return dict(self._server_info)

    # -- contract ------------------------------------------------------------

    def connect(self) -> "CommonClient":
        """Establish the session (HELLO → NEGOTIATE → ACCEPT)."""
        raise NotImplementedError

    def submit(
        self, requests: Sequence[RunRequest], *, key: Optional[str] = None
    ) -> int:
        """Ship one envelope of requests; returns its channel id.

        ``key`` is the envelope's idempotency key; when omitted, the
        client generates one — every envelope is resumable by default.
        """
        raise NotImplementedError

    def collect(self, channel: int) -> List[RunSummary]:
        """Block until ``channel``'s summaries arrive; return them.

        A survivable refusal of the envelope (``quota-exceeded``,
        ``retry-after``) is its answer too: it is raised here as a
        :class:`~repro.service.net.framing.ServerError`.
        """
        raise NotImplementedError

    def drain(self) -> int:
        """Barrier: return once every submitted request has resolved."""
        raise NotImplementedError

    def resume(self, lineage: str) -> List[str]:
        """Bind the session to ``lineage``.

        Returns the idempotency keys the server still holds cached
        results for — a reconnecting caller resubmits everything
        unacknowledged and the listed keys answer from the cache.
        """
        raise NotImplementedError

    def metrics(self) -> Dict[str, object]:
        """Sample the server's live metrics rollup."""
        raise NotImplementedError

    def close(self) -> None:
        """End the session (idempotent)."""
        raise NotImplementedError

    # -- convenience ---------------------------------------------------------

    def run(
        self, requests: Sequence[RunRequest], chunk: int = DEFAULT_CHUNK
    ) -> List[RunSummary]:
        """Execute ``requests`` remotely; summaries in request order.

        Splits into envelopes of at most ``chunk`` requests and keeps
        several envelopes in flight, windowed so the session's
        outstanding total never exceeds the server's advertised quota —
        a client using ``run`` cannot trip ``quota-exceeded``.
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if not requests:
            return []
        quota = self._quota if self._quota is not None else len(requests)
        chunk = min(chunk, quota)
        batches = [
            list(requests[i:i + chunk])
            for i in range(0, len(requests), chunk)
        ]
        collected: Dict[int, List[RunSummary]] = {}
        window: List[int] = []  # submitted, uncollected channels, in order
        inflight = 0
        order: List[int] = []
        for batch in batches:
            while window and inflight + len(batch) > quota:
                oldest = window.pop(0)
                collected[oldest] = self.collect(oldest)
                inflight -= len(collected[oldest])
            ch = self.submit(batch)
            order.append(ch)
            window.append(ch)
            inflight += len(batch)
        for ch in window:
            collected[ch] = self.collect(ch)
        out: List[RunSummary] = []
        for ch in order:
            out.extend(collected[ch])
        return out

    def _register(self, requests: Sequence[RunRequest]) -> int:
        """Allocate a channel and remember its requests for rejoining."""
        channel = self._next_channel
        self._next_channel += 1
        self._requests[channel] = list(requests)
        return channel

    def __enter__(self) -> "CommonClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _Connection(CommonClient):
    """One blocking socket and session to a
    :class:`~repro.service.net.server.NetServer`.

    ``timeout`` bounds every socket operation: a dead or wedged server
    surfaces as a typed :class:`NetTimeout`, never a hang.  Every
    failure is typed and every connection-fatal one closes the socket
    first; nothing here retries — that is :class:`Client`'s job.

    ``bytes_sent`` / ``bytes_received`` count raw wire bytes, which is
    what the E19 bench reports as per-request wire cost.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.timeout = float(timeout)
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        #: each channel's answer, read while some other call was reading:
        #: its SUMMARY frame (the server sends them as envelopes
        #: complete) or its survivable refusal.
        self._parked: Dict[int, Union[Frame, ServerError]] = {}
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- wire plumbing -------------------------------------------------------

    def _abort(self) -> None:
        """Hard-close after a connection-fatal error.

        The ISSUE-10 cleanup contract: every typed-error exit closes the
        socket and leaves the object in a state where any later call —
        including a ``collect`` on a channel that was parked behind the
        failure — raises a typed :class:`SessionClosed` immediately
        instead of blocking on a stream that will never produce bytes.
        """
        sock, self._sock = self._sock, None
        self._session = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass  # already torn down by the kernel

    def _send_frame(self, frame: Frame) -> None:
        if self._sock is None:
            raise SessionClosed("client is not connected")
        data = encode_frame(frame)
        try:
            self._sock.sendall(data)
        except socket.timeout:
            self._abort()
            raise NetTimeout(
                f"send timed out after {self.timeout}s"
            ) from None
        except OSError as exc:
            self._abort()
            raise SessionClosed(
                f"socket failed while sending a {frame.name} frame: {exc}"
            ) from None
        self.bytes_sent += len(data)

    def _recv_frame(self) -> Frame:
        """The next frame off the socket; typed errors, never hangs.

        Every failure here is connection-fatal (timeout, reset, EOF,
        desync, oversize): the socket is closed before the typed error
        propagates, so no parked channel can wait on it afterwards.
        """
        if self._sock is None:
            raise SessionClosed("client is not connected")
        while True:
            try:
                frame = self._decoder.next_frame()
            except NetError:
                self._abort()  # BadMagic / OversizedFrame: stream desync
                raise
            if frame is not None:
                return frame
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                self._abort()
                raise NetTimeout(
                    f"no frame within {self.timeout}s"
                ) from None
            except OSError as exc:
                self._abort()
                raise SessionClosed(
                    f"socket failed while receiving: {exc}"
                ) from None
            if not data:
                try:
                    self._decoder.eof()  # raises TruncatedFrame mid-frame
                finally:
                    self._abort()
                raise SessionClosed(
                    "server closed the connection while frames were "
                    "still expected"
                )
            self.bytes_received += len(data)
            self._decoder.feed(data)

    def _server_error(self, frame: Frame) -> ServerError:
        """An ERROR frame as a typed exception.

        A survivable code (``quota-exceeded``, ``retry-after``) leaves the
        session open; anything else aborts the connection first.
        """
        doc = parse_control(frame.payload)
        code = str(doc.get("code", "net-error"))
        channel = doc.get("channel")
        hint = doc.get("retry_after_ms")
        if code not in SURVIVABLE_ERROR_CODES:
            self._abort()
        return ServerError(
            code,
            str(doc.get("message", "")),
            channel if isinstance(channel, int) else None,
            float(hint) if isinstance(hint, (int, float)) else None,
        )

    def _park(self, frame: Frame) -> None:
        """Park a SUMMARY frame under the channel it answers."""
        try:
            channel = protocol.summary_channel(frame)
        except NetError:
            self._abort()  # truncated payload: stream cannot be trusted
            raise
        if protocol.summary_cached(frame):
            self.cache_hits += 1
        self._parked[channel] = frame

    def _pump(self) -> Optional[Frame]:
        """Read one frame; park it if it answers a channel, else return it.

        A SUMMARY, or a survivable refusal naming a submitted channel, is
        that channel's answer: it is parked for :meth:`collect`, so
        whichever call happens to be reading never surfaces another
        channel's result.  Any other ERROR raises; GOODBYE closes.
        """
        frame = self._recv_frame()
        if frame.type == FRAME_SUMMARY:
            self._park(frame)
            return None
        if frame.type == FRAME_ERROR:
            error = self._server_error(frame)
            if (
                error.code in SURVIVABLE_ERROR_CODES
                and error.channel in self._requests
            ):
                self._parked[error.channel] = error
                return None
            raise error
        if frame.type == FRAME_GOODBYE:
            doc = parse_control(frame.payload)
            self._abort()
            raise SessionClosed(
                f"server said goodbye: {doc.get('reason', 'unspecified')}"
            )
        return frame

    def _unexpected(self, frame: Frame, context: str) -> NetError:
        """Abort on a frame no call expects; the error to raise."""
        self._abort()
        return NetError(f"unexpected {frame.name} frame {context}")

    def _call(self, request: Frame, reply_type: int) -> Dict[str, object]:
        """Send a control request; return its reply's document."""
        self._send_frame(request)
        while True:
            frame = self._pump()
            if frame is None:
                continue
            if frame.type != reply_type:
                raise self._unexpected(
                    frame, f"awaiting {FRAME_NAMES[reply_type]}"
                )
            return parse_control(frame.payload)

    # -- contract ------------------------------------------------------------

    def connect(self) -> "_Connection":
        """Dial and handshake; returns self once accepted.

        A failed dial (refused, unreachable, unresolvable) is a typed
        :class:`SessionClosed`, like every later socket failure.
        """
        if self._sock is not None:
            raise RuntimeError("client already connected")
        self._decoder = FrameDecoder()  # drop a cut connection's partial frame
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._sock.settimeout(self.timeout)
            hello = self._recv_frame()
            if hello.type != FRAME_HELLO:
                raise HandshakeError(f"expected HELLO, got {hello.name}")
            info = parse_control(hello.payload)
            versions = info.get("versions")
            if not isinstance(versions, list) or (
                protocol.VERSION not in versions
            ):
                raise HandshakeError(
                    f"no mutual protocol version: server speaks "
                    f"{versions!r}, client speaks [{protocol.VERSION}]"
                )
            self._send_frame(
                Frame(
                    FRAME_NEGOTIATE,
                    control_payload({"version": protocol.VERSION}),
                )
            )
            accept = self._recv_frame()
            if accept.type == FRAME_ERROR:
                raise self._server_error(accept)
            if accept.type != FRAME_ACCEPT:
                raise HandshakeError(f"expected ACCEPT, got {accept.name}")
            doc = parse_control(accept.payload)
            if _int_field(doc, "version") != protocol.VERSION:
                raise HandshakeError(
                    f"server accepted protocol version {doc['version']}, "
                    f"not the {protocol.VERSION} this client negotiated"
                )
            self._quota = _int_field(doc, "quota")
            self._server_info = info
            self._session = _int_field(doc, "session")
        except (NetError, OSError) as exc:
            # _abort() is idempotent: paths through _recv_frame have
            # already hard-closed the socket, the others have not.
            self._abort()
            if isinstance(exc, NetError):
                raise
            raise SessionClosed(
                f"cannot reach {self.host}:{self.port}: {exc}"
            ) from None
        return self

    def submit(
        self, requests: Sequence[RunRequest], *, key: Optional[str] = None
    ) -> int:
        """Ship one SUBMIT envelope; returns its channel id.

        Every envelope carries an idempotency key — ``key`` if given,
        else a generated UUID — so a resubmit after a reconnect can
        never execute twice.
        """
        if self._session is None:
            raise SessionClosed("client is not connected")
        if key is None:
            key = uuid.uuid4().hex
        channel = self._register(requests)
        self._send_frame(protocol.encode_submit(channel, requests, key))
        return channel

    def collect(self, channel: int) -> List[RunSummary]:
        """Block for ``channel``'s answer; rejoin and return its summaries.

        Answers for *other* channels that arrive first are parked and
        handed out when their channel is collected — the server sends
        summaries in completion order.  A parked refusal raises its
        :class:`ServerError` here, without touching the socket.
        """
        if self._session is None:
            raise SessionClosed("client is not connected")
        requests = self._requests.get(channel)
        if requests is None:
            raise NetError(f"channel {channel} was never submitted")
        while channel not in self._parked:
            frame = self._pump()
            if frame is not None:
                raise self._unexpected(
                    frame, f"while collecting channel {channel}"
                )
        answer = self._parked.pop(channel)
        del self._requests[channel]
        if isinstance(answer, ServerError):
            raise answer
        try:
            return protocol.decode_summary(answer, requests)
        except NetError:
            self._abort()  # CorruptFrame / truncated envelope
            raise

    def drain(self) -> int:
        """In-band barrier; returns the number of deliveries flushed."""
        doc = self._call(
            Frame(FRAME_DRAIN, control_payload({})), FRAME_DRAINED
        )
        flushed = doc.get("flushed", 0)
        return int(flushed) if isinstance(flushed, int) else 0

    def resume(self, lineage: str) -> List[str]:
        """Bind this session to ``lineage``.

        Returns the idempotency keys the server still holds cached
        results for.  Call right after :meth:`connect` — before any
        submit — so every keyed envelope of this session is resumable.
        """
        doc = self._call(
            Frame(FRAME_RESUME, control_payload({"lineage": lineage})),
            FRAME_RESUMED,
        )
        cached = doc.get("cached")
        if not isinstance(cached, list):
            return []
        return [k for k in cached if isinstance(k, str)]

    def metrics(self) -> Dict[str, object]:
        """Sample the server's metrics rollup."""
        return self._call(
            Frame(FRAME_METRICS_REQ, control_payload({})), FRAME_METRICS
        )

    def close(self) -> None:
        """Say GOODBYE, close the socket and forget this session's
        channels (idempotent).

        Safe from every state: never connected, connect failed halfway,
        session aborted by a typed error, or already closed.
        """
        if self._session is not None:
            try:
                self._send_frame(
                    Frame(FRAME_GOODBYE, control_payload({"reason": "done"}))
                )
            except NetError:
                pass  # the socket may already be gone; close anyway
        self._abort()
        self._requests.clear()
        self._parked.clear()


@dataclass
class _Envelope:
    """One logical submit: what a reconnect must be able to ship again."""

    key: str
    requests: List[RunRequest]
    #: whether the current connection carries this envelope.
    shipped: bool = False
    attempts: int = 0


class Client(_Connection):
    """The TCP client of a :class:`~repro.service.net.server.NetServer`:
    reconnects, deduplicates, honours overload (see module docstring).

    Every public call runs in one retry loop.  Each pass dials first if
    the session is gone (connect, then ``RESUME`` with the client's
    lineage), then makes the call; a connection-fatal typed error
    (reset, timeout, truncated or corrupt frame, server goodbye) drops
    the socket, and the loop sleeps a jittered exponential ``backoff``
    delay and passes again.  One attempt cap and one deadline bound the
    whole call.  The ``breaker`` counts consecutive failed dials: the
    one that reaches ``breaker.threshold`` raises a typed
    :class:`CircuitOpen` at once, and so does every dial until the
    breaker's reset time has passed.  A ``retry-after`` refusal sleeps
    the server's hint and resubmits.  The lineage is a fresh UUID per
    client, so distinct clients never share results, and every envelope
    not yet collected is shipped again under its original idempotency
    key: the server's lineage cache answers whatever already executed.
    An envelope larger than the session quota raises
    :class:`QuotaExceeded` from :meth:`submit`: the server would refuse
    it every time.

    Channel ids name the logical envelope and stay valid across
    reconnects.  The counters (``bytes_sent``, ``bytes_received``,
    ``cache_hits``, ``reconnects``, ``resubmits``, ``retry_afters``)
    only grow over the client's lifetime.  ``seed`` seeds the backoff
    jitter.

    A server that does not speak protocol version 2 fails with a typed,
    non-retryable :class:`~repro.service.net.framing.HandshakeError`:
    resuming without idempotency keys would execute twice.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(host, port, timeout)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.lineage = uuid.uuid4().hex
        self._rng = random.Random(seed)
        self._envelopes: Dict[int, _Envelope] = {}
        self._dialled = False
        self.reconnects = 0
        self.resubmits = 0
        self.retry_afters = 0

    @property
    def pending(self) -> int:
        """Envelopes submitted but not yet collected (stranded-future
        meter: MUST be 0 once every channel has been collected)."""
        return len(self._envelopes)

    def stats(self) -> Dict[str, int]:
        """Snapshot of the retry counters."""
        return {
            "reconnects": self.reconnects,
            "resubmits": self.resubmits,
            "retry_afters": self.retry_afters,
            "cache_hits": self.cache_hits,
            "breaker_failures": self.breaker.failures,
        }

    # -- the retry loop ------------------------------------------------------

    def _retrying(self, call: Callable[[], _T]) -> _T:
        """Run ``call()`` on a live session: the one retry loop.

        Each pass makes at most one dial, then the call; a failed pass
        backs off and passes again.  An open circuit and a handshake
        failure, local or the server's ERROR of code ``handshake``, end
        the loop at once: no retry can outlast either.
        """
        deadline = time.monotonic() + self.backoff.deadline_s
        attempt = 0
        while True:
            try:
                if not self.connected:
                    self._dial()
                return call()
            except CircuitOpen:
                raise
            except NetError as exc:
                if exc.code == HandshakeError.code:
                    raise
                attempt += 1
                self._back_off(attempt, deadline, exc)

    def _dial(self) -> None:
        """Drop the socket and make one dial behind the breaker: connect
        and bind the lineage.  Every uncollected envelope is then shipped
        again when its channel is collected."""
        super().close()
        for env in self._envelopes.values():
            env.shipped = False
        if self.breaker.allow():
            try:
                super().connect()
                super().resume(self.lineage)
            except NetError as exc:
                self._abort()  # a malformed RESUMED leaves the socket open
                self.breaker.record_failure()
                # the failure that opens the breaker fails fast, below
                if isinstance(exc, HandshakeError) or (
                    self.breaker.state != "open"
                ):
                    raise
            else:
                self.breaker.record_success()
                if self._dialled:
                    self.reconnects += 1
                self._dialled = True
                return
        raise CircuitOpen(
            f"circuit open after {self.breaker.failures} consecutive "
            f"connect failures to {self.host}:{self.port} (reset in "
            f"{self.breaker.reset_s}s)"
        )

    def _back_off(
        self, attempt: int, deadline: float, cause: NetError
    ) -> None:
        """Sleep before retry ``attempt`` (1-based); typed error past budget.

        A survivable refusal sleeps the server's ``retry-after`` hint when
        it sent one and is bounded by the deadline alone; any other cause
        sleeps the backoff policy's delay and also counts against its
        attempt cap.
        """
        hint_ms: Optional[float] = None
        if (
            isinstance(cause, ServerError)
            and cause.code in SURVIVABLE_ERROR_CODES
        ):
            hint_ms = cause.retry_after_ms
        elif attempt > self.backoff.max_attempts:
            raise RetriesExhausted(
                f"gave up after {self.backoff.max_attempts} attempts: "
                f"{cause}"
            ) from cause
        delay = (
            hint_ms / 1e3
            if hint_ms is not None
            else self.backoff.delay_s(attempt, self._rng)
        )
        if time.monotonic() + delay > deadline:
            raise RetriesExhausted(
                f"retry deadline of {self.backoff.deadline_s}s exhausted: "
                f"{cause}"
            ) from cause
        time.sleep(delay)

    # -- contract ------------------------------------------------------------

    def connect(self) -> "Client":
        """Dial (with backoff and breaker), handshake, bind the lineage."""
        super().close()
        return self._retrying(lambda: self)

    def submit(
        self, requests: Sequence[RunRequest], *, key: Optional[str] = None
    ) -> int:
        """Register one envelope and ship it if the wire allows.

        The returned channel id is *stable across reconnects*: it names
        the logical envelope, not any single wire submission.  If the
        wire fails here, :meth:`collect` ships (or re-ships) it.  An
        envelope larger than the session quota raises
        :class:`QuotaExceeded` before it is sent.
        """
        self._retrying(lambda: None)  # dial if the session is gone
        if len(requests) > self.session_quota:
            raise QuotaExceeded(
                f"envelope of {len(requests)} requests exceeds the session "
                f"quota of {self.session_quota}"
            )
        channel = self._register(requests)
        self._envelopes[channel] = _Envelope(
            key if key else uuid.uuid4().hex, self._requests[channel]
        )
        try:
            self._ship(channel)
        except NetError:
            pass  # collect() owns the retry loop; the envelope stays queued
        return channel

    def _ship(self, channel: int) -> None:
        env = self._envelopes[channel]
        if env.attempts > 0:
            self.resubmits += 1
        env.attempts += 1
        self._requests[channel] = env.requests
        self._send_frame(
            protocol.encode_submit(channel, env.requests, env.key)
        )
        env.shipped = True

    def collect(self, channel: int) -> List[RunSummary]:
        """Drive one envelope to its summaries, whatever the wire does."""
        env = self._envelopes.get(channel)
        if env is None:
            raise NetError(f"channel {channel} was never submitted")
        collect = super().collect

        def once() -> List[RunSummary]:
            if not env.shipped:
                self._ship(channel)
            try:
                return collect(channel)
            except ServerError as exc:
                if (
                    exc.code in SURVIVABLE_ERROR_CODES
                    and exc.channel == channel
                ):
                    # the refusal was this submission's answer: it is
                    # void and is shipped again after backing off.
                    self.retry_afters += 1
                    env.shipped = False
                raise

        summaries = self._retrying(once)
        del self._envelopes[channel]
        return summaries

    def drain(self) -> int:
        """In-band barrier on the current connection (redials if needed)."""
        return self._retrying(super().drain)

    def resume(self, lineage: str) -> List[str]:
        """Bind this client, and every connection it dials from now on,
        to ``lineage``; returns the keys the server holds results for."""
        keys = self._retrying(partial(super().resume, lineage))
        self.lineage = lineage
        return keys

    def metrics(self) -> Dict[str, object]:
        """The server's metrics rollup (redials if needed)."""
        return self._retrying(super().metrics)

    def close(self) -> None:
        """Close the connection and forget every uncollected envelope
        (idempotent)."""
        super().close()
        self._envelopes.clear()


class MockClient(CommonClient):
    """In-memory client with the :class:`Client` surface, no server.

    ``submit``/``collect`` execute requests in-process through the same
    :func:`~repro.service.batch.execute_request` worker function the
    gateway dispatches to, stamping unset engines with ``engine`` the
    way a server-side gateway would.  Tests get the client programming
    model with zero sockets; the digest-parity differential uses it as
    the middle rung between "remote Client" and "raw gateway".
    """

    #: the synthetic server name reported in :attr:`server_info`.
    SERVER = "repro.service.net.mock"

    def __init__(self, engine: str = "fast") -> None:
        super().__init__()
        self.engine = engine
        self._results: Dict[int, List[RunSummary]] = {}
        self._executed = 0

    def connect(self) -> "MockClient":
        """Fabricate a session (session 1)."""
        self._session = 1
        self._quota = 1 << 30  # in-memory: effectively unbounded
        self._server_info = {
            "server": self.SERVER,
            "versions": [protocol.VERSION],
            "engine": self.engine,
        }
        return self

    def submit(
        self, requests: Sequence[RunRequest], *, key: Optional[str] = None
    ) -> int:
        """Execute one envelope eagerly; returns its channel id.

        ``key`` is accepted for contract parity and ignored: an
        in-memory client has no wire to lose results on, so there is
        nothing to deduplicate.
        """
        if self._session is None:
            raise SessionClosed("client is not connected")
        channel = self._register(requests)
        stamped = [
            r if r.engine is not None else replace(r, engine=self.engine)
            for r in requests
        ]
        self._results[channel] = [execute_request(r) for r in stamped]
        self._executed += len(stamped)
        return channel

    def collect(self, channel: int) -> List[RunSummary]:
        """Return the summaries of an earlier :meth:`submit`."""
        if self._session is None:
            raise SessionClosed("client is not connected")
        try:
            summaries = self._results.pop(channel)
        except KeyError:
            raise NetError(
                f"channel {channel} was never submitted"
            ) from None
        del self._requests[channel]
        return summaries

    def drain(self) -> int:
        """No-op barrier: mock execution is synchronous."""
        if self._session is None:
            raise SessionClosed("client is not connected")
        return 0

    def resume(self, lineage: str) -> List[str]:
        """Accept any lineage; nothing is ever cached in-memory."""
        if self._session is None:
            raise SessionClosed("client is not connected")
        return []

    def metrics(self) -> Dict[str, object]:
        """A synthetic metrics document mirroring the server's shape."""
        if self._session is None:
            raise SessionClosed("client is not connected")
        return {
            "gateway": {"offered": self._executed, "completed": self._executed},
            "engine": self.engine,
            "sessions": 1,
            "session": self._session,
            "inflight": 0,
            "quota": self._quota,
            "draining": False,
        }

    def close(self) -> None:
        """Drop the fabricated session (idempotent)."""
        self._session = None
        self._results.clear()
        self._requests.clear()
