"""Streaming asyncio gateway: online execution with backpressure.

The batch service (:mod:`repro.service.batch`) answers "run these B
instances and tell me when they are all done" — an *offline* regime judged
on batch wall-time.  This module is the *online* regime the ROADMAP's
"heavy traffic" north star actually means: a long-lived gateway that
accepts a continuous stream of :class:`~repro.core.engine.RunRequest`
envelopes, applies explicit backpressure, enforces per-request deadlines,
and is judged on sustained throughput and tail latency (p50/p95/p99).
It is also the only code that owns worker processes: a pooled batch
(``BatchService(workers >= 2)``) runs on a process-backed gateway.

Architecture::

    replay(requests, arrivals)        open-loop arrival clock
        -> StreamGateway.submit()     bounded queue, reject-or-block
            -> dispatchers (async)    deadline check, coalesce, dispatch
                -> worker processes   one socket each: run_envelope
                   (or a thread pool) execute_request
        <- asyncio.Future[RunSummary] per request, resolved on completion

* **Backpressure.**  The request queue is bounded (``queue_cap``).  Policy
  ``"reject"`` resolves the request immediately with a ``status ==
  "rejected"`` summary when the queue is full — load shedding, the
  open-loop default.  Policy ``"block"`` awaits queue space, propagating
  backpressure into the submitter (what a closed-loop client sees).
* **Deadlines.**  A request carries ``deadline_ms`` (or inherits the
  gateway default).  A request whose deadline expires while queued is
  cancelled without executing; one that exceeds its remaining budget
  mid-run is abandoned (``status == "cancelled"``).  Abandonment drops the
  result but cannot retract work already sent to a worker — that worker
  finishes the stale run and only then takes new work, exactly the
  slot-occupancy cost a real service pays for late cancellation.
* **Workers warm themselves.**  Every request runs on a worker; nothing
  runs ahead of it in the calling process.  Each process-backend worker
  keeps its own :class:`~repro.core.context.PlanCache` and stores the
  plans it computes twice: the ones that recur.  The thread backend
  shares the process-wide plan cache outright — it exists for
  environments where worker processes are unavailable (restricted
  sandboxes, embedded interpreters); the GIL serializes pure-Python
  execution, so it trades throughput for portability.
* **Metrics.**  :class:`StreamMetrics` records latency/queue-wait/service
  histograms (:class:`~repro.core.metrics.LatencyHistogram`), status
  counters and queue-depth extrema; :class:`StreamReport` rolls them up
  with the order-independent digest shared with the batch service, so
  "streaming == batch == sequential" is a one-line comparison.
* **Worker sockets.**  ``start()`` starts ``workers`` processes, each
  joined to the gateway by one ``socket.socketpair()``.  A hop goes down
  it as one length-prefixed request envelope
  (:mod:`repro.service.transport`) and its summary envelope comes back
  the same way, read and written by asyncio streams on the gateway's
  event loop; the worker runs a plain blocking loop.  No executor thread
  and no pickled call item sit on the path.
* **Worker death.**  A worker answers its hops strictly in send order,
  so when its socket closes, the oldest unanswered hop is the only one
  that can have run.  Only that worker is replaced; the hops queued
  behind the suspect are resent whole to the replacement, and no other
  worker's hop is touched.  The suspect re-runs each request it still
  owes as a one-request hop of its own when it had several, and fails
  when it had one, so a death fails at most the request that caused it.
  A worker that dies while idle is replaced as soon as its socket
  closes.
* **Coalescing.**  A dispatcher takes its share of the backlog,
  ``ceil((queue depth + 1) / workers)`` queued requests counting the one
  it waited for, into one hop of at most ``_HOP_CAP`` requests (guided
  self-scheduling).  An idle queue dispatches at once; a backlog pays
  one encode, round trip and decode per hop instead of per request.
  Deadlines stay per request.
* **Two hops deep.**  The process backend runs ``2 * workers``
  dispatchers and puts each hop on the worker with the fewest
  unanswered hops, so a worker finds its next hop already in its socket
  when it finishes one.  The thread backend runs ``workers``
  dispatchers over a pool of ``workers`` threads.

Command line::

    python -m repro.service stream --rate 8 --duration 2 --workers 2
    python -m repro.service stream --rate 0 --requests 64 --workers 4 \
        --backend process --selfcheck --json   # saturated throughput mode

See DESIGN.md section 7 for the semantics.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing.process import BaseProcess
from multiprocessing.util import register_after_fork
from typing import Deque, Dict, List, Optional, Sequence

from ..core.engine import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    RunRequest,
    RunSummary,
    available_engines,
)
from ..core.metrics import LatencyHistogram
from .batch import execute_request, summaries_digest
from .transport import (
    LENGTH,
    decode_summaries,
    encode_requests,
    serve_envelopes,
)

__all__ = [
    "STATUS_CANCELLED",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_REJECTED",
    "StreamGateway",
    "StreamMetrics",
    "StreamReport",
    "replay",
    "serve",
]

BACKENDS = ("process", "thread")
POLICIES = ("reject", "block")

#: Most requests one hop carries: a 16-row envelope splits into one hop
#: per worker of a 2-worker gateway, and a worker death re-runs at most
#: this many requests.
_HOP_CAP = 8

#: Seconds ``close()`` waits for the worker processes to exit on EOF
#: before it kills the rest (a stale run nobody waits for).
_REAP_S = 5.0


def _swallow_task_result(task: "asyncio.Future[object]") -> None:
    """Done-callback for hops nobody awaits anymore (all tickets
    abandoned): retrieve the outcome so the loop never logs an
    unretrieved-exception warning for work we deliberately walked away
    from."""
    try:
        task.exception()
    except asyncio.CancelledError:
        pass


def _run_tickets(requests: List[RunRequest]) -> List[RunSummary]:
    """Thread-backend batch entry: one executor hop for a coalesced batch.

    Resolves ``execute_request`` through the module global at call time
    (not at dispatch-closure creation), so it tracks monkeypatching.
    """
    return [execute_request(r) for r in requests]


class StreamMetrics:
    """The gateway's metrics core: histograms, counters, queue depth."""

    def __init__(self) -> None:
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.service = LatencyHistogram()
        #: latency of failed runs, kept out of the success histograms: a
        #: crash that fails fast must not be allowed to *improve* p99.
        self.failure_latency = LatencyHistogram()
        self.offered = 0
        self.completed = 0
        self.rejected = 0
        self.cancelled = 0
        #: runs that produced no judged result (STATUS_FAILED: engine
        #: crashes, dead worker processes) plus completed runs whose
        #: verification/bounds judgement failed.
        self.failed = 0
        #: worker processes replaced after they died (chaos recovery
        #: gate); the name predates per-worker replacement.
        self.pool_replacements = 0
        #: hops put on the workers, re-runs included (a hop resent to a
        #: replacement worker is not a new hop).
        self.hops = 0
        self.queue_depth_max = 0
        self._depth_sum = 0
        self._depth_samples = 0

    def observe_depth(self, depth: int) -> None:
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth
        self._depth_sum += depth
        self._depth_samples += 1

    @property
    def queue_depth_mean(self) -> float:
        if not self._depth_samples:
            return 0.0
        return self._depth_sum / self._depth_samples

    def observe(self, summary: RunSummary) -> None:
        """Fold one resolved summary into the counters and histograms."""
        if summary.status == STATUS_REJECTED:
            self.rejected += 1
            return
        if summary.status == STATUS_FAILED:
            # Failed runs never enter the success percentiles: a crashed
            # worker answering in microseconds would otherwise drag p50
            # down exactly when the service is at its sickest.
            self.failed += 1
            self.failure_latency.record(summary.latency_s)
            return
        self.queue_wait.record(summary.queue_s)
        self.latency.record(summary.latency_s)
        if summary.status == STATUS_CANCELLED:
            self.cancelled += 1
            return
        self.service.record(summary.latency_s - summary.queue_s)
        self.completed += 1
        if not summary.ok:
            self.failed += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "pool_replacements": self.pool_replacements,
            "hops": self.hops,
            "queue_depth_max": self.queue_depth_max,
            "queue_depth_mean": round(self.queue_depth_mean, 2),
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "service": self.service.summary(),
            "failure_latency": self.failure_latency.summary(),
        }


@dataclass
class _Hop:
    """One hop on a worker socket: its length-prefixed request envelope,
    kept to resend, and the future of its summary envelope."""

    frame: bytes
    future: "asyncio.Future[bytes]"


class _Worker:
    """One worker process and the gateway's end of its socket.

    ``pending`` holds the hops sent to the process and not yet answered,
    in send order.  The process answers strictly in that order, so the
    head is the only hop it can be running.
    """

    def __init__(self) -> None:
        self.process: Optional[BaseProcess] = None
        #: ``None`` while a replacement process is being connected; hops
        #: put on the worker meanwhile wait in ``pending``.
        self.writer: Optional[asyncio.StreamWriter] = None
        self.reader: Optional["asyncio.Task[None]"] = None
        self.pending: Deque[_Hop] = deque()


@dataclass
class _Ticket:
    """One enqueued request: envelope, enqueue timestamp, result future,
    and the queue wait and latency budget stamped when it is dispatched."""

    request: RunRequest
    enqueued_at: float
    future: "asyncio.Future[RunSummary]"
    queue_s: float = 0.0
    deadline_s: Optional[float] = None


class StreamGateway:
    """Long-lived asyncio front end over worker processes (or threads).

    Args:
        workers: worker processes (process backend) or pool threads
            (thread backend) that run the hops.
        engine: default engine name stamped on requests with
            ``engine=None``.
        backend: ``"process"`` (worker processes the gateway drives over
            one socket each — the throughput configuration) or
            ``"thread"`` (a thread pool: portable, GIL-serialized).
        queue_cap: bound on the request queue — the backpressure knob.
        policy: ``"reject"`` (shed load when the queue is full) or
            ``"block"`` (make ``submit`` await space).
        deadline_ms: default per-request latency budget; a request's own
            ``deadline_ms`` wins.  ``None`` means no deadline.

    Each dispatcher coalesces its share of the queued requests into one
    hop of at most ``_HOP_CAP`` (see :meth:`_coalesce`).  The process
    backend runs ``2 * workers`` dispatchers, so a worker finds its next
    hop in its socket when it finishes one; the thread backend runs
    ``workers``.

    Use as an async context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        workers: int = 2,
        engine: str = "fast",
        backend: str = "process",
        queue_cap: int = 64,
        policy: str = "reject",
        deadline_ms: Optional[float] = None,
    ) -> None:
        if engine not in available_engines():
            raise ValueError(
                f"unknown engine {engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; want one of {BACKENDS}"
            )
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; want one of {POLICIES}"
            )
        if workers < 1:
            raise ValueError("stream gateway needs workers >= 1")
        if queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        self.workers = int(workers)
        self.engine = engine
        self.backend = backend
        self.queue_cap = int(queue_cap)
        self.policy = policy
        self.deadline_ms = deadline_ms
        self.metrics = StreamMetrics()
        self._queue: Optional["asyncio.Queue[_Ticket]"] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._workers: List[_Worker] = []
        #: every worker process started, replacements included: close()
        #: reaps them all.
        self._processes: List[BaseProcess] = []
        self._tasks: List["asyncio.Task[None]"] = []
        self._closed = False

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (0 before start / after close).

        The admission-control signal for front ends layered above the
        gateway: :mod:`repro.service.net` refuses SUBMIT envelopes with
        a typed ``retry-after`` once the queue is saturated, instead of
        letting the reject policy fail individual requests.
        """
        return self._queue.qsize() if self._queue is not None else 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "StreamGateway":
        """Start the workers and spawn the dispatchers."""
        if self._closed:
            # A closed gateway never accepts submissions again; starting
            # workers for it would leak processes and tasks.  One gateway,
            # one lifecycle.
            raise RuntimeError("gateway already closed; build a new one")
        if self._queue is not None:
            raise RuntimeError("gateway already started")
        self._queue = asyncio.Queue(maxsize=self.queue_cap)
        dispatchers = self.workers
        if self.backend == "process":
            self._workers = [_Worker() for _ in range(self.workers)]
            try:
                for worker in self._workers:
                    await self._spawn(worker)
            except BaseException:
                await self._stop_workers()
                raise
            dispatchers *= 2
        else:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        self._tasks = [
            asyncio.create_task(self._dispatcher(), name=f"stream-worker-{i}")
            for i in range(dispatchers)
        ]
        return self

    async def _spawn(self, worker: _Worker) -> None:
        """Start a process for ``worker`` on a fresh socket, then send it
        every hop it owes, in order.

        The process gets the platform's default start method and runs
        :func:`~repro.service.transport.serve_envelopes`.  Every process
        forked from here on, this worker included, closes its copy of the
        gateway's end, so only the gateway holds it: each side sees EOF
        when the other goes away.
        """
        ours, theirs = socket.socketpair()
        register_after_fork(ours, socket.socket.close)
        try:
            process = multiprocessing.get_context().Process(
                target=serve_envelopes, args=(theirs,), daemon=True
            )
            try:
                process.start()
            finally:
                theirs.close()
            self._processes.append(process)
            worker.process = process
            reader, writer = await asyncio.open_connection(sock=ours)
        except BaseException:
            ours.close()
            raise
        worker.writer = writer
        for hop in worker.pending:
            writer.write(hop.frame)
        worker.reader = asyncio.create_task(
            self._answers(worker, reader), name="stream-answers"
        )

    async def _answers(
        self, worker: _Worker, reader: asyncio.StreamReader
    ) -> None:
        """Resolve ``worker``'s hops from its answers until its socket
        closes, then replace the process."""
        try:
            while True:
                head = await reader.readexactly(LENGTH.size)
                raw = await reader.readexactly(LENGTH.unpack(head)[0])
                hop = worker.pending.popleft()
                if not hop.future.done():
                    hop.future.set_result(raw)
        except (asyncio.IncompleteReadError, OSError):
            pass  # EOF or a reset: the process is gone
        await self._replace(worker)

    async def _replace(self, worker: _Worker) -> None:
        """Start a new process in place of ``worker``'s dead one.

        Only the oldest unanswered hop can have run, so only it is
        failed (with ``BrokenProcessPool``, which its dispatcher turns
        into one-request re-runs or a failure, see :meth:`_run_hop`);
        every hop queued behind it is resent whole to the replacement.
        The replacement is counted before the suspect fails, so a batch
        whose last hop kills a worker still counts it.
        """
        assert worker.writer is not None
        worker.writer.close()
        worker.writer = None
        suspect = worker.pending.popleft() if worker.pending else None
        self.metrics.pool_replacements += 1
        try:
            await self._spawn(worker)
        # repro: ignore[RPR006] -- not swallowed: every hop this worker
        # owes fails with the exception, and its tickets resolve failed.
        except Exception as exc:
            # No process could be started: take the worker out of the
            # rotation.
            self._workers.remove(worker)
            for hop in worker.pending:
                if not hop.future.done():
                    hop.future.set_exception(exc)
            worker.pending.clear()
        if suspect is not None and not suspect.future.done():
            suspect.future.set_exception(BrokenProcessPool(
                "the worker process running this hop died"
            ))

    async def drain(self) -> None:
        """Wait until every enqueued request has been resolved."""
        if self._queue is not None:
            await self._queue.join()

    def _resolve_stragglers(self) -> None:
        """Fail any ticket still queued after the workers are gone.

        ``asyncio.Queue.join`` performs a single un-rechecked wait on its
        "all tasks done" event, so a submitter suspended in ``put`` under
        the ``block`` policy can slip a ticket into the queue in the same
        event-loop iteration that wakes ``drain()`` — after which no
        worker will ever pick it up.  Both ``close()`` and the post-put
        re-check in :meth:`submit` funnel such tickets here: resolve with
        a cancelled summary and balance the queue's task counter so a
        later ``drain()`` cannot hang either.
        """
        if self._queue is None:
            return
        while True:
            try:
                ticket = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            summary = RunSummary(
                request=ticket.request,
                ok=False,
                status=STATUS_CANCELLED,
                latency_s=time.perf_counter() - ticket.enqueued_at,
                error="gateway closed before the request could execute",
            )
            self.metrics.observe(summary)
            if not ticket.future.done():
                ticket.future.set_result(summary)
            self._queue.task_done()

    async def close(self) -> None:
        """Drain the queue, stop the dispatchers, stop the workers."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        # A blocked submitter may have enqueued between drain() waking and
        # the workers being cancelled; its own post-put re-check resolves
        # it, but only if it has run yet — sweep here as well so close()
        # never leaves an unresolvable ticket behind.
        self._resolve_stragglers()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        await self._stop_workers()

    async def _stop_workers(self) -> None:
        """Close every worker socket and reap every process started."""
        readers = [w.reader for w in self._workers if w.reader is not None]
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for worker in self._workers:
            if worker.writer is not None:
                worker.writer.close()
        self._workers = []
        give_up = time.monotonic() + _REAP_S
        for process in self._processes:
            while process.is_alive() and time.monotonic() < give_up:
                await asyncio.sleep(0.005)
            if process.is_alive():
                process.kill()
            process.join()
        self._processes = []

    async def __aenter__(self) -> "StreamGateway":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- submission ----------------------------------------------------------

    async def submit(self, request: RunRequest) -> "asyncio.Future[RunSummary]":
        """Enqueue one request; returns the future of its summary.

        Under the ``"reject"`` policy the returned future may already be
        resolved (with a ``status == "rejected"`` summary) — submission
        itself never blocks.  Under ``"block"`` this coroutine suspends
        until the queue has room.
        """
        if self._queue is None or self._closed:
            raise RuntimeError("gateway is not running")
        req = (
            request
            if request.engine is not None
            else replace(request, engine=self.engine)
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[RunSummary]" = loop.create_future()
        self.metrics.offered += 1
        now = time.perf_counter()
        ticket = _Ticket(req, now, future)
        if self.policy == "reject" and self._queue.full():
            summary = RunSummary(
                request=req,
                ok=False,
                status=STATUS_REJECTED,
                error=(
                    f"backpressure: queue full "
                    f"(cap {self.queue_cap}, policy reject)"
                ),
            )
            self.metrics.observe(summary)
            future.set_result(summary)
            return future
        await self._queue.put(ticket)  # suspends only under "block"
        if self._closed:
            # The gateway closed while this submitter was suspended in
            # ``put``: drain() has already been released and the workers
            # are (being) cancelled, so this ticket would never resolve.
            # Fail it — and anything else stranded — right now.
            self._resolve_stragglers()
            return future
        self.metrics.observe_depth(self._queue.qsize())
        return future

    # -- dispatchers ---------------------------------------------------------

    def _deadline_s(self, req: RunRequest) -> Optional[float]:
        ms = req.deadline_ms if req.deadline_ms is not None else self.deadline_ms
        if ms is None or ms <= 0:
            return None
        return ms / 1000.0

    def _resolve(self, ticket: _Ticket, summary: RunSummary) -> None:
        self.metrics.observe(summary)
        if not ticket.future.done():
            ticket.future.set_result(summary)

    async def _dispatcher(self) -> None:
        assert self._queue is not None
        queue = self._queue
        while True:
            batch = [await queue.get()]
            self._coalesce(batch)
            try:
                await self._dispatch_batch(batch)
            except Exception as exc:
                # Defensive backstop: _dispatch_batch already resolves
                # every executor-failure path, so anything surfacing here
                # is a dispatcher bug — still, no ticket may be left
                # unresolved (that deadlocks serve()) and the dispatcher
                # must survive to fail the backlog fast.
                for ticket in batch:
                    self._resolve(ticket, RunSummary(
                        request=ticket.request,
                        ok=False,
                        status=STATUS_FAILED,
                        latency_s=time.perf_counter() - ticket.enqueued_at,
                        error=(
                            f"executor failure: {type(exc).__name__}: {exc}"
                        ),
                    ))
            finally:
                for _ in batch:
                    queue.task_done()

    def _coalesce(self, batch: List[_Ticket]) -> None:
        """Drain batch-mates into ``batch`` by guided self-scheduling.

        A hop takes ``ceil((depth + 1) / workers)`` tickets in all,
        counting the one already taken out of a queue of ``depth`` more,
        at most ``_HOP_CAP``: its share of the backlog over ``workers``
        workers (whatever the dispatcher count), so an idle queue
        dispatches its one ticket at once.  Nothing awaits between
        reading the depth and draining, so the queue always holds the
        share.
        """
        assert self._queue is not None
        share = -(-(self._queue.qsize() + 1) // self.workers)
        for _ in range(min(_HOP_CAP, share) - 1):
            batch.append(self._queue.get_nowait())

    def _put(self, requests: List[RunRequest]) -> "asyncio.Future[object]":
        """Put one hop on a worker; returns the future of its result.

        The process backend sends the hop as one length-prefixed request
        envelope to the worker with the fewest unanswered hops (a worker
        being replaced holds it until its new process is connected).
        """
        loop = asyncio.get_running_loop()
        if self.backend == "thread":
            return loop.run_in_executor(self._pool, _run_tickets, requests)
        if not self._workers:
            raise BrokenProcessPool("no worker process could be started")
        blob = encode_requests(requests)
        hop = _Hop(LENGTH.pack(len(blob)) + blob, loop.create_future())
        worker = min(self._workers, key=lambda w: len(w.pending))
        worker.pending.append(hop)
        if worker.writer is not None:
            worker.writer.write(hop.frame)
        return hop.future

    async def _dispatch_batch(self, tickets: List[_Ticket]) -> None:
        """Run one coalesced batch on a worker, one hop for all.

        A ticket whose deadline expired in the queue is cancelled here,
        before the hop; the rest share one hop (:meth:`_run_hop`).
        """
        now = time.perf_counter()
        live: List[_Ticket] = []
        for ticket in tickets:
            ticket.queue_s = w = now - ticket.enqueued_at
            ticket.deadline_s = deadline_s = self._deadline_s(ticket.request)
            if deadline_s is not None and w >= deadline_s:
                self._resolve(ticket, RunSummary(
                    request=ticket.request,
                    ok=False,
                    status=STATUS_CANCELLED,
                    queue_s=w,
                    latency_s=w,
                    error=(
                        f"deadline: expired after {w * 1e3:.1f}ms in queue "
                        f"(budget {deadline_s * 1e3:.0f}ms)"
                    ),
                ))
                continue
            live.append(ticket)
        if live:
            await self._run_hop(live)

    async def _run_hop(self, live: List[_Ticket]) -> None:
        """Put ``live`` on a worker as one hop and resolve every ticket.

        Mid-run deadlines are enforced per ticket against the shared hop.
        When the worker running the hop dies, the hop fails with
        ``BrokenProcessPool`` (see :meth:`_replace`): a hop of several
        requests then re-runs each request it still owes as a
        one-request hop, one at a time, and a one-request hop fails.  So
        a killer request runs at most twice, and a death fails at most
        the one request that caused it.
        """
        requests = [t.request for t in live]
        task = self._put(requests)
        self.metrics.hops += 1

        # Enforce mid-run deadlines per ticket, soonest first.  The hop is
        # shared, so a timed-out ticket abandons its *result*, never the
        # hop: shield() keeps the underlying work running for batch-mates
        # with laxer (or no) budgets.
        abandoned: set = set()
        timed = sorted(
            (t for t in live if t.deadline_s is not None),
            key=lambda t: t.enqueued_at + t.deadline_s,
        )
        for ticket in timed:
            if task.done():
                break
            remaining = (
                ticket.enqueued_at + ticket.deadline_s - time.perf_counter()
            )
            try:
                await asyncio.wait_for(
                    asyncio.shield(task), max(0.0, remaining)
                )
            except asyncio.TimeoutError:
                total = time.perf_counter() - ticket.enqueued_at
                abandoned.add(id(ticket))
                self._resolve(ticket, RunSummary(
                    request=ticket.request,
                    ok=False,
                    status=STATUS_CANCELLED,
                    queue_s=ticket.queue_s,
                    latency_s=total,
                    error=(
                        f"deadline: exceeded mid-run after "
                        f"{total * 1e3:.1f}ms "
                        f"(budget {ticket.deadline_s * 1e3:.0f}ms); "
                        f"result abandoned"
                    ),
                ))
            # repro: ignore[RPR006] -- not swallowed: the same exception
            # re-raises out of the shared `await task` below, where every
            # surviving ticket is resolved.
            except Exception:
                break

        if len(abandoned) == len(live) and not task.done():
            # Nobody is waiting for this hop anymore.  Don't: the
            # dispatcher is worth more than the stale result.  Its
            # exception, if any, is consumed when the hop settles.
            task.add_done_callback(_swallow_task_result)
            return

        try:
            raw = await task
        except Exception as exc:
            # The hop's worker died running it, or the hop itself raised
            # (thread backend).  Every owed ticket MUST still resolve — an
            # unresolved future deadlocks serve().  Execution is
            # deterministic, so a coalesced hop's requests re-run alone;
            # the rest are FAILED, not completed: they produced no
            # result, and mislabeling them would poison digests and
            # percentiles.
            owed = [t for t in live if id(t) not in abandoned]
            if isinstance(exc, BrokenProcessPool) and len(live) > 1:
                for ticket in owed:
                    await self._run_hop([ticket])
                return
            for ticket in owed:
                self._resolve(ticket, RunSummary(
                    request=ticket.request,
                    ok=False,
                    status=STATUS_FAILED,
                    latency_s=time.perf_counter() - ticket.enqueued_at,
                    error=f"executor failure: {type(exc).__name__}: {exc}",
                ))
            return

        summaries = (
            decode_summaries(raw, requests)
            if self.backend == "process"
            else raw
        )
        # execute_request stamps STATUS_FAILED on runs that crashed inside
        # the worker (poison requests, resolution errors); everything else
        # ran to a judged end.  Preserve the failure label — the gateway
        # only adds its own timing.
        for ticket, summary in zip(live, summaries):
            if id(ticket) in abandoned:
                continue
            self._resolve(ticket, replace(
                summary,
                status=(
                    summary.status
                    if summary.status == STATUS_FAILED
                    else STATUS_COMPLETED
                ),
                queue_s=ticket.queue_s,
                latency_s=time.perf_counter() - ticket.enqueued_at,
            ))


async def replay(
    gateway: StreamGateway,
    requests: Sequence[RunRequest],
    arrivals: Sequence[float],
) -> List["asyncio.Future[RunSummary]"]:
    """Open-loop load generator: submit each request at its arrival time.

    ``arrivals[i]`` is request ``i``'s offset (seconds) from the replay
    start; the clock does not wait for completions, so a slow gateway
    falls behind and the backpressure policy decides what happens.  Under
    the ``"block"`` policy a full queue stalls the clock itself — the
    closed-loop degradation a blocking client experiences.
    """
    if len(requests) != len(arrivals):
        raise ValueError(
            f"{len(requests)} requests but {len(arrivals)} arrival times"
        )
    t0 = time.perf_counter()
    futures: List["asyncio.Future[RunSummary]"] = []
    for req, at in zip(requests, arrivals):
        delay = t0 + at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            # Even a saturated replay must yield so worker tasks can run.
            await asyncio.sleep(0)
        futures.append(await gateway.submit(req))
    return futures


@dataclass
class StreamReport:
    """Aggregate view of one replayed stream."""

    summaries: List[RunSummary]
    wall_s: float
    backend: str
    workers: int
    queue_cap: int
    policy: str
    deadline_ms: Optional[float]
    engine: str
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> List[RunSummary]:
        return [s for s in self.summaries if s.status == STATUS_COMPLETED]

    @property
    def rejected(self) -> List[RunSummary]:
        return [s for s in self.summaries if s.status == STATUS_REJECTED]

    @property
    def cancelled(self) -> List[RunSummary]:
        return [s for s in self.summaries if s.status == STATUS_CANCELLED]

    @property
    def failed(self) -> List[RunSummary]:
        """Runs that produced no judged result (crashes, dead workers)."""
        return [s for s in self.summaries if s.status == STATUS_FAILED]

    @property
    def failures(self) -> List[RunSummary]:
        """Failed runs plus completed runs whose judgement failed."""
        return self.failed + [s for s in self.completed if not s.ok]

    @property
    def ok(self) -> bool:
        """Every run either completed with a passing judgement or was shed.

        Rejections and cancellations are *policy outcomes* of an overloaded
        stream, not correctness failures; they are reported separately.
        Failed runs (engine crashes, executor breakage) are failures.
        """
        return not self.failures

    @property
    def throughput(self) -> float:
        """Completed instances per wall-clock second (sustained)."""
        return len(self.completed) / self.wall_s if self.wall_s > 0 else 0.0

    def stream_digest(self) -> str:
        """Order-independent digest over the *completed* runs.

        Same fold as :meth:`BatchReport.batch_digest`, so a loss-free
        stream (no rejections/cancellations) over a request set must equal
        the batch digest of any backend over that set.
        """
        return summaries_digest(self.completed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "queue_cap": self.queue_cap,
            "policy": self.policy,
            "deadline_ms": self.deadline_ms,
            "engine": self.engine,
            "ok": self.ok,
            "offered": len(self.summaries),
            "completed": len(self.completed),
            "rejected": len(self.rejected),
            "cancelled": len(self.cancelled),
            "failed": len(self.failures),
            "wall_s": round(self.wall_s, 4),
            "throughput_per_s": round(self.throughput, 2),
            "stream_digest": self.stream_digest(),
            "metrics": self.metrics,
            "failures": [
                {"request": s.request.name, "error": s.error}
                for s in self.failures
            ],
        }


def serve(
    requests: Sequence[RunRequest],
    arrivals: Sequence[float],
    *,
    workers: int = 2,
    engine: str = "fast",
    backend: str = "process",
    queue_cap: int = 64,
    policy: str = "reject",
    deadline_ms: Optional[float] = None,
    record: Optional[str] = None,
) -> StreamReport:
    """Run one full open-loop stream to completion (sync entry point).

    Replays the arrival timeline through a fresh :class:`StreamGateway`,
    drains it, and rolls up the report.

    ``record`` names a capture file: every submitted request (with its
    observed arrival offset) and every resolved summary is appended to it
    through a :class:`~repro.service.recording.Recorder`, so the run can
    be re-fed deterministically later (trace-driven load tests, chaos
    forensics).
    """
    async def _main() -> StreamReport:
        recorder = None
        if record is not None:
            from .recording import Recorder

            recorder = Recorder(
                record,
                meta={
                    "source": "stream",
                    "workers": workers,
                    "engine": engine,
                    "backend": backend,
                    "queue_cap": queue_cap,
                    "policy": policy,
                    "deadline_ms": deadline_ms,
                },
            )
        gateway = StreamGateway(
            workers=workers,
            engine=engine,
            backend=backend,
            queue_cap=queue_cap,
            policy=policy,
            deadline_ms=deadline_ms,
        )
        try:
            async with gateway:
                front = (
                    gateway if recorder is None else recorder.attach(gateway)
                )
                t0 = time.perf_counter()
                futures = await replay(front, requests, arrivals)
                await gateway.drain()
                wall = time.perf_counter() - t0
                summaries = [await f for f in futures]
            if recorder is not None:
                recorder.record_metrics(gateway.metrics)
        finally:
            if recorder is not None:
                recorder.close()
        return StreamReport(
            summaries=summaries,
            wall_s=wall,
            backend=f"{backend}-stream",
            workers=workers,
            queue_cap=queue_cap,
            policy=policy,
            deadline_ms=deadline_ms,
            engine=engine,
            metrics=gateway.metrics.to_dict(),
        )

    return asyncio.run(_main())
