"""Reconnecting client: backoff, circuit breaking, idempotent resume.

:class:`ResilientClient` wraps the blocking
:class:`~repro.service.net.client.Client` behind the same
:class:`~repro.service.net.client.CommonClient` contract and makes the
RPC path survive the network failing under it:

* **reconnect with capped exponential backoff + jitter** — any
  connection-fatal typed error (reset, timeout, truncated or corrupt
  frame, server goodbye) tears the inner client down and dials again;
* **a circuit breaker** — after ``threshold`` consecutive connect
  failures the breaker opens and calls fail fast with a typed
  :class:`CircuitOpen` until ``reset_s`` has passed (then one half-open
  probe decides);
* **idempotent resume** — the client owns a *lineage* id that survives
  connections; every envelope is submitted under an idempotency key, a
  reconnect re-attaches via RESUME, and unacknowledged envelopes are
  resubmitted *under their original keys*, so the server's result cache
  answers anything that already executed.  Digests come out identical
  to an unfailed run, with zero duplicate executions;
* **overload compliance** — a typed ``retry-after`` refusal (the
  server's admission control) is honoured by sleeping the server's hint
  and resubmitting, never by hammering the socket.

Invariant (DESIGN.md §13): *at-least-once delivery, at-most-once
execution*.  The wire may carry an envelope many times; the lineage
cache guarantees the requests inside execute once.

Every retry loop is bounded twice: per-attempt by the inner client's
socket timeout, overall by :attr:`BackoffPolicy.deadline_s` — a dead
server surfaces as a typed :class:`RetriesExhausted` (or
:class:`CircuitOpen`), never a hang.
"""

from __future__ import annotations

import random
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ...core.engine import STATUS_REJECTED, RunRequest, RunSummary
from .client import SURVIVABLE_ERROR_CODES, Client, CommonClient
from .framing import (
    MAX_FRAME_BYTES,
    HandshakeError,
    NetError,
    ServerError,
)

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "RetriesExhausted",
    "ResilientClient",
]


class CircuitOpen(NetError):
    """The circuit breaker is open: the server has failed enough
    consecutive connect attempts that calls fail fast instead of
    burning a timeout each."""

    code = "circuit-open"


class RetriesExhausted(NetError):
    """The retry budget (attempt count or overall deadline) ran out
    before the operation could complete."""

    code = "retries-exhausted"


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with jitter, plus the retry budget.

    Delay for attempt *k* (1-based) is
    ``min(max_s, base_s * factor**(k-1))`` stretched by a uniform
    jitter in ``[1 - jitter_frac, 1 + jitter_frac]`` — jitter prevents
    a fleet of reconnecting clients from thundering in lockstep.
    ``max_attempts`` bounds one operation's retries; ``deadline_s``
    bounds the operation's total wall clock including the time spent
    inside attempts, not just between them.
    """

    base_s: float = 0.05
    factor: float = 2.0
    max_s: float = 2.0
    jitter_frac: float = 0.25
    max_attempts: int = 8
    deadline_s: float = 60.0

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """The jittered sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_s, self.base_s * self.factor ** (attempt - 1))
        spread = max(0.0, min(1.0, self.jitter_frac))
        return raw * (1.0 - spread + 2.0 * spread * rng.random())


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed / open / half-open).

    ``record_failure`` past ``threshold`` opens the circuit;
    :meth:`allow` then fails fast until ``reset_s`` has elapsed, after
    which exactly one probe is allowed through (half-open) — its
    success closes the circuit, its failure re-opens it for another
    ``reset_s``.
    """

    threshold: int = 5
    reset_s: float = 5.0
    failures: int = 0
    opened_at: Optional[float] = None
    _probing: bool = field(default=False, repr=False)

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.reset_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a connect attempt may proceed right now."""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """A connect succeeded: close the circuit."""
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """A connect failed: count it; open the circuit past threshold."""
        self.failures += 1
        self._probing = False
        if self.failures >= self.threshold:
            self.opened_at = time.monotonic()


@dataclass
class _Envelope:
    """One logical submit: what reconnection must be able to replay."""

    key: str
    requests: List[RunRequest]
    #: the inner client's channel for the current submission attempt,
    #: or None when the envelope needs (re)submitting.
    inner: Optional[int] = None
    attempts: int = 0


class ResilientClient(CommonClient):
    """A reconnecting, deduplicating client (see module docstring).

    Requires the server to speak protocol version 2 — resume without
    idempotency keys would be at-least-once *execution*, which is
    exactly the bug this class exists to rule out.  A server that does
    not offer it fails :meth:`connect` with a typed, non-retryable
    :class:`~repro.service.net.framing.HandshakeError`.

    ``lineage`` defaults to a fresh UUID: distinct client objects never
    share a result cache unless explicitly configured to.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_frame: int = MAX_FRAME_BYTES,
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        lineage: Optional[str] = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.host = host
        self.port = port
        self.timeout = float(timeout)
        self.max_frame = int(max_frame)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.lineage = lineage if lineage else uuid.uuid4().hex
        self._rng = random.Random(seed)
        self._inner: Optional[Client] = None
        self._envelopes: Dict[int, _Envelope] = {}
        self._ever_connected = False
        #: operational counters (monotone over the client's lifetime).
        self.reconnects = 0
        self.resubmits = 0
        self.retry_afters = 0
        self._hits_accum = 0
        self._sent_accum = 0
        self._received_accum = 0

    # -- aggregated counters -------------------------------------------------

    @property
    def cache_hits(self) -> int:  # type: ignore[override]
        """Cached (FLAG_CACHED) answers received, across connections."""
        inner = self._inner.cache_hits if self._inner is not None else 0
        return self._hits_accum + inner

    @cache_hits.setter
    def cache_hits(self, value: int) -> None:
        # CommonClient.__init__ assigns 0; fold it into the accumulator.
        self._hits_accum = int(value)

    @property
    def bytes_sent(self) -> int:
        """Wire bytes sent, summed across every connection so far."""
        inner = self._inner.bytes_sent if self._inner is not None else 0
        return self._sent_accum + inner

    @property
    def bytes_received(self) -> int:
        """Wire bytes received, summed across every connection so far."""
        inner = self._inner.bytes_received if self._inner is not None else 0
        return self._received_accum + inner

    @property
    def connected(self) -> bool:
        """Whether a live negotiated inner session exists right now."""
        return self._inner is not None and self._inner.connected

    @property
    def pending(self) -> int:
        """Envelopes submitted but not yet collected (stranded-future
        meter: MUST be 0 once every channel has been collected)."""
        return len(self._envelopes)

    def stats(self) -> Dict[str, int]:
        """Snapshot of the resilience counters."""
        return {
            "reconnects": self.reconnects,
            "resubmits": self.resubmits,
            "retry_afters": self.retry_afters,
            "cache_hits": self.cache_hits,
            "breaker_failures": self.breaker.failures,
        }

    # -- connection management -----------------------------------------------

    def connect(self) -> "ResilientClient":
        """Dial (with backoff + breaker), handshake, bind the lineage."""
        self._reconnect(self._deadline())
        return self

    def _deadline(self) -> float:
        return time.monotonic() + self.backoff.deadline_s

    def _sleep_before_retry(
        self, attempt: int, deadline: float, cause: Exception
    ) -> None:
        """Back off before retry ``attempt``; typed error past budget."""
        if attempt > self.backoff.max_attempts:
            raise RetriesExhausted(
                f"gave up after {self.backoff.max_attempts} attempts: "
                f"{cause}"
            ) from cause
        delay = self.backoff.delay_s(attempt, self._rng)
        if time.monotonic() + delay > deadline:
            raise RetriesExhausted(
                f"retry deadline of {self.backoff.deadline_s}s exhausted: "
                f"{cause}"
            ) from cause
        time.sleep(delay)

    def _teardown_inner(self) -> None:
        if self._inner is None:
            return
        self._hits_accum += self._inner.cache_hits
        self._sent_accum += self._inner.bytes_sent
        self._received_accum += self._inner.bytes_received
        self._inner.close()
        self._inner = None

    def _reconnect(self, deadline: float) -> None:
        """Tear down, dial until connected, RESUME, mark for resubmit."""
        self._teardown_inner()
        attempt = 0
        while True:
            if not self.breaker.allow():
                raise CircuitOpen(
                    f"circuit open after {self.breaker.failures} "
                    f"consecutive connect failures to "
                    f"{self.host}:{self.port} (reset in "
                    f"{self.breaker.reset_s}s)"
                )
            try:
                inner = Client(
                    self.host,
                    self.port,
                    timeout=self.timeout,
                    max_frame=self.max_frame,
                )
                inner.connect()
                inner.resume(self.lineage)
            except HandshakeError:
                # a version/protocol mismatch is configuration, not
                # weather: retrying cannot fix it, so fail loudly now.
                self.breaker.record_failure()
                raise
            except (NetError, OSError) as exc:
                self.breaker.record_failure()
                attempt += 1
                self._sleep_before_retry(attempt, deadline, exc)
                continue
            self.breaker.record_success()
            self._inner = inner
            if self._ever_connected:
                self.reconnects += 1
            self._ever_connected = True
            self._session = inner._session
            self._quota = inner._quota
            self._server_info = inner.server_info
            # every uncollected envelope must be resubmitted on this
            # connection; cached keys answer without re-executing.
            for env in self._envelopes.values():
                env.inner = None
            return

    def _ensure_connected(self, deadline: float) -> None:
        if not self.connected:
            self._reconnect(deadline)

    # -- contract ------------------------------------------------------------

    def submit(
        self, requests: Sequence[RunRequest], *, key: Optional[str] = None
    ) -> int:
        """Register one envelope; best-effort ship it now.

        The returned channel id is *stable across reconnects*: it names
        the logical envelope, not any single wire submission.  If the
        wire fails here, the envelope is shipped (or re-shipped) by
        :meth:`collect`.
        """
        deadline = self._deadline()
        self._ensure_connected(deadline)
        outer = self._register(requests)
        env = _Envelope(
            key=key if key else uuid.uuid4().hex, requests=list(requests)
        )
        self._envelopes[outer] = env
        try:
            self._submit_env(env)
        except NetError:
            # collect() owns the retry loop; the envelope stays queued.
            pass
        return outer

    def _submit_env(self, env: _Envelope) -> None:
        assert self._inner is not None
        if env.attempts > 0:
            self.resubmits += 1
        env.attempts += 1
        env.inner = self._inner.submit(env.requests, key=env.key)

    def collect(self, channel: int) -> List[RunSummary]:
        """Drive one envelope to completion, whatever the wire does."""
        env = self._envelopes.get(channel)
        if env is None:
            raise NetError(f"channel {channel} was never submitted")
        summaries = self._collect_env(env, self._deadline())
        del self._envelopes[channel]
        del self._requests[channel]
        return summaries

    def _collect_env(
        self, env: _Envelope, deadline: float
    ) -> List[RunSummary]:
        """The retry core: (re)submit and collect until executed."""
        attempt = 0
        while True:
            try:
                self._ensure_connected(deadline)
                assert self._inner is not None
                if env.inner is None:
                    self._submit_env(env)
                assert env.inner is not None
                summaries = self._inner.collect(env.inner)
            except ServerError as exc:
                attempt += 1
                if (
                    exc.code in SURVIVABLE_ERROR_CODES
                    and exc.channel == env.inner
                ):
                    # the inner client raises a refusal only from its
                    # channel's collect: that submission is void and is
                    # re-shipped after backing off.
                    self.retry_afters += 1
                    env.inner = None
                self._sleep_refusal(exc, attempt, deadline)
                continue
            except (NetError, OSError) as exc:
                # connection-fatal: the inner client has already
                # hard-closed; back off, reconnect, resubmit by key.
                attempt += 1
                self._sleep_before_retry(attempt, deadline, exc)
                continue
            return self._retry_rejected(env, summaries, deadline)

    def _sleep_refusal(
        self, exc: ServerError, attempt: int, deadline: float
    ) -> None:
        """Honour the server's backoff hint (or backoff policy)."""
        if exc.code not in SURVIVABLE_ERROR_CODES:
            # a non-survivable ServerError aborted the connection; the
            # normal backoff-and-reconnect path applies.
            self._sleep_before_retry(attempt, deadline, exc)
            return
        hint_s = (
            exc.retry_after_ms / 1e3
            if exc.retry_after_ms is not None
            else self.backoff.delay_s(attempt, self._rng)
        )
        if time.monotonic() + hint_s > deadline:
            raise RetriesExhausted(
                f"retry deadline of {self.backoff.deadline_s}s exhausted "
                f"while honouring {exc.code}"
            ) from exc
        time.sleep(hint_s)

    def _retry_rejected(
        self,
        env: _Envelope,
        summaries: List[RunSummary],
        deadline: float,
    ) -> List[RunSummary]:
        """Re-run rows the gateway rejected (backpressure), merge back.

        Rejected rows never executed, so they retry under a *fresh* key
        as a smaller envelope — resubmitting the whole envelope under
        the original key would be wrong twice over: the mixed result
        was never cached (not fully executed), so the completed rows
        would execute a second time.
        """
        while True:
            rejected = [
                i for i, s in enumerate(summaries)
                if s.status == STATUS_REJECTED
            ]
            if not rejected:
                return summaries
            if time.monotonic() > deadline:
                # out of budget: surface the honest partial result —
                # rejected rows are typed failures, not silent gaps.
                return summaries
            retry_env = _Envelope(
                key=uuid.uuid4().hex,
                requests=[env.requests[i] for i in rejected],
            )
            self.resubmits += 1
            time.sleep(self.backoff.delay_s(1, self._rng))
            redone = self._collect_env(retry_env, deadline)
            for slot, summary in zip(rejected, redone):
                summaries[slot] = summary

    def drain(self) -> int:
        """In-band barrier on the *current* connection (reconnects)."""
        deadline = self._deadline()
        attempt = 0
        while True:
            try:
                self._ensure_connected(deadline)
                assert self._inner is not None
                return self._inner.drain()
            except (NetError, OSError) as exc:
                attempt += 1
                self._sleep_before_retry(attempt, deadline, exc)

    def resume(self, lineage: str) -> List[str]:
        """Re-bind the inner session to ``lineage`` (see Client.resume)."""
        deadline = self._deadline()
        attempt = 0
        while True:
            try:
                self._ensure_connected(deadline)
                assert self._inner is not None
                keys = self._inner.resume(lineage)
                self.lineage = lineage
                return keys
            except (NetError, OSError) as exc:
                attempt += 1
                self._sleep_before_retry(attempt, deadline, exc)

    def metrics(self) -> Dict[str, object]:
        """The server's metrics rollup (reconnects if needed)."""
        deadline = self._deadline()
        attempt = 0
        while True:
            try:
                self._ensure_connected(deadline)
                assert self._inner is not None
                return self._inner.metrics()
            except (NetError, OSError) as exc:
                attempt += 1
                self._sleep_before_retry(attempt, deadline, exc)

    def close(self) -> None:
        """Close the inner client and drop session state (idempotent)."""
        self._teardown_inner()
        self._session = None
        self._envelopes.clear()
        self._requests.clear()
