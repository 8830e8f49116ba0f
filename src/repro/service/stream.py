"""Streaming asyncio gateway: online execution with backpressure.

The batch service (:mod:`repro.service.batch`) answers "run these B
instances and tell me when they are all done" — an *offline* regime judged
on batch wall-time.  This module is the *online* regime the ROADMAP's
"heavy traffic" north star actually means: a long-lived gateway that
accepts a continuous stream of :class:`~repro.core.engine.RunRequest`
envelopes, applies explicit backpressure, enforces per-request deadlines,
and is judged on sustained throughput and tail latency (p50/p95/p99).
It is also the only code that owns a worker pool: a pooled batch
(``BatchService(workers >= 2)``) runs on a process-backed gateway.

Architecture::

    replay(requests, arrivals)        open-loop arrival clock
        -> StreamGateway.submit()     bounded queue, reject-or-block
            -> worker tasks (async)   deadline check, dispatch
                -> Executor pool      execute_request in process/thread
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
  result but cannot retract work already submitted to a pool worker — that
  worker finishes the stale run and only then takes new work, exactly the
  slot-occupancy cost a real service pays for late cancellation.
* **Warm workers.**  The process backend ships the parent's
  :class:`~repro.core.context.PlanCache` snapshot to every pool worker at
  start (``snapshot()/warm()``), and
  :func:`~repro.service.batch.structural_warmup` runs one representative
  request per distinct structural group in the parent first.  The cache
  stores a plan on its second computation, so the snapshot carries only
  plans the parent computed twice: the ones that recur.
  The thread backend shares the process-wide plan cache outright — it
  exists for environments where process pools are unavailable
  (restricted sandboxes, embedded interpreters); the GIL serializes
  pure-Python execution, so it trades throughput for portability.
* **Metrics.**  :class:`StreamMetrics` records latency/queue-wait/service
  histograms (:class:`~repro.core.metrics.LatencyHistogram`), status
  counters and queue-depth extrema; :class:`StreamReport` rolls them up
  with the order-independent digest shared with the batch service, so
  "streaming == batch == sequential" is a one-line comparison.
* **Columnar envelopes.**  The process backend ships each hop as one
  request envelope (:mod:`repro.service.transport`) through the pool's
  own call queue and gets one summary envelope back: plain bytes both
  ways.
* **Pool death.**  A dead pool child breaks the whole pool: the hops in
  flight on it fail, and the pool is replaced once and counted once.  A
  pool that broke while idle refuses the next submit; nothing ran, so the
  gateway replaces the pool and submits that hop once more.
* **Micro-batching.**  Dispatchers can coalesce up to K queued requests
  (or wait a fixed 2 ms for batch-mates, whichever first; K adapts to
  observed queue depth) into one executor hop.  Off by default (K=1):
  coalescing trades per-request deadline granularity for IPC
  amortization, so it is an explicit opt-in for throughput-oriented
  streams.
* **One dispatcher per worker.**  The gateway runs exactly ``workers``
  dispatcher tasks over a pool of ``workers`` processes (or threads).

Command line::

    python -m repro.service stream --rate 8 --duration 2 --workers 2
    python -m repro.service stream --rate 0 --requests 64 --workers 4 \
        --backend process --selfcheck --json   # saturated throughput mode

See DESIGN.md section 7 for the semantics.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence

from ..core.context import plan_cache
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
from .batch import execute_request, structural_warmup, summaries_digest
from .transport import decode_summaries, encode_requests, run_envelope

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

#: How long a dispatcher holding a short micro-batch waits for batch-mates.
_LINGER_S = 2e-3


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
    """Thread-backend batch entry: one executor hop for a micro-batch.

    Resolves ``execute_request`` through the module global at call time
    (not at dispatch-closure creation), so it tracks monkeypatching.
    """
    return [execute_request(r) for r in requests]


def _pickle_plans(plans: Dict[Hashable, object]) -> bytes:
    """Freeze a plan-cache snapshot into one reusable initializer blob.

    Pickled **once per gateway** and handed to every worker initializer —
    including the workers of every pool rebuilt after a worker death, so
    recovery cost does not scale with the warm set.
    """
    return pickle.dumps(plans, protocol=pickle.HIGHEST_PROTOCOL)


def _warm_worker_blob(blob: bytes) -> None:
    """Pool-worker initializer: adopt a pre-pickled plan snapshot."""
    plan_cache().warm(pickle.loads(blob))


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
        #: crashes, dead pool workers) plus completed runs whose
        #: verification/bounds judgement failed.
        self.failed = 0
        #: executor pools rebuilt after breakage (chaos recovery gate).
        self.pool_replacements = 0
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
            "queue_depth_max": self.queue_depth_max,
            "queue_depth_mean": round(self.queue_depth_mean, 2),
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "service": self.service.summary(),
            "failure_latency": self.failure_latency.summary(),
        }


@dataclass
class _Ticket:
    """One enqueued request: envelope, enqueue timestamp, result future."""

    request: RunRequest
    enqueued_at: float
    future: "asyncio.Future[RunSummary]"


class StreamGateway:
    """Long-lived asyncio front end over a warm executor pool.

    Args:
        workers: concurrent in-flight executions (async dispatcher tasks,
            and the executor pool size).
        engine: default engine name stamped on requests with
            ``engine=None``.
        backend: ``"process"`` (a ``ProcessPoolExecutor`` with plan-cache
            warm workers — the throughput configuration) or ``"thread"``
            (portable, GIL-serialized).
        queue_cap: bound on the request queue — the backpressure knob.
        policy: ``"reject"`` (shed load when the queue is full) or
            ``"block"`` (make ``submit`` await space).
        deadline_ms: default per-request latency budget; a request's own
            ``deadline_ms`` wins.  ``None`` means no deadline.
        micro_batch: max requests a dispatcher coalesces into one executor
            hop.  ``1`` (default) dispatches per request — micro-batching
            widens the window between a request starting and its deadline
            being enforceable, so it is opt-in.  When ``> 1`` the actual
            batch adapts to queue depth (never waiting for load that is
            not there).

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
        micro_batch: int = 1,
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
        if micro_batch < 1:
            raise ValueError("micro_batch must be >= 1")
        self.workers = int(workers)
        self.engine = engine
        self.backend = backend
        self.queue_cap = int(queue_cap)
        self.policy = policy
        self.deadline_ms = deadline_ms
        self.micro_batch = int(micro_batch)
        self.metrics = StreamMetrics()
        self._queue: Optional["asyncio.Queue[_Ticket]"] = None
        self._pool: Optional[Executor] = None
        self._warm_blob = b""
        #: plan-cache entries shipped to every process-backend worker.
        self.warmed_plans = 0
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
        """Build the executor pool and spawn ``workers`` dispatchers."""
        if self._pool is not None:
            raise RuntimeError("gateway already started")
        if self._closed:
            # A closed gateway never accepts submissions again; starting a
            # pool for it would leak processes and tasks.  One gateway, one
            # lifecycle.
            raise RuntimeError("gateway already closed; build a new one")
        if self.backend == "process":
            # Snapshot + pickle the warm plans ONCE; every pool this
            # gateway ever builds — including rebuilds after breakage —
            # reuses the same initializer blob.
            plans = plan_cache().snapshot()
            self.warmed_plans = len(plans)
            self._warm_blob = _pickle_plans(plans)
        self._pool = self._build_pool()
        self._queue = asyncio.Queue(maxsize=self.queue_cap)
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"stream-worker-{i}")
            for i in range(self.workers)
        ]
        return self

    def _build_pool(self) -> Executor:
        if self.backend == "process":
            # Warm every pool worker from the parent's plan-cache snapshot
            # (whatever structural_warmup / earlier runs left resident).
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_warm_worker_blob,
                initargs=(self._warm_blob,),
            )
        # Threads share the process-wide plan cache; no shipping needed.
        return ThreadPoolExecutor(max_workers=self.workers)

    def _replace_pool(self, broken: Executor) -> None:
        """Swap a broken executor pool for a fresh warm one.

        A dead pool child breaks the whole ``ProcessPoolExecutor``: every
        in-flight and future submission raises ``BrokenExecutor``.  The
        in-flight requests are already lost (their workers fail them as
        :data:`STATUS_FAILED`), but the gateway itself must outlive the
        pool — a long-lived service cannot answer every request after one
        crash with "broken pool".  Guarded by identity: several worker
        tasks observe the same breakage in the same event-loop iteration,
        and only the first one rebuilds (no awaits between check and swap,
        so the check cannot interleave).
        """
        if self._closed or self._pool is not broken:
            return
        broken.shutdown(wait=False)
        self._pool = self._build_pool()
        self.metrics.pool_replacements += 1

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
        """Drain the queue, stop the workers, shut the pool down."""
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

    # -- workers -------------------------------------------------------------

    def _deadline_s(self, req: RunRequest) -> Optional[float]:
        ms = req.deadline_ms if req.deadline_ms is not None else self.deadline_ms
        if ms is None or ms <= 0:
            return None
        return ms / 1000.0

    def _resolve(self, ticket: _Ticket, summary: RunSummary) -> None:
        self.metrics.observe(summary)
        if not ticket.future.done():
            ticket.future.set_result(summary)

    async def _worker(self) -> None:
        assert self._queue is not None
        queue = self._queue
        while True:
            batch = [await queue.get()]
            if self.micro_batch > 1:
                await self._coalesce(batch)
            try:
                await self._dispatch_batch(batch)
            except Exception as exc:
                # Defensive backstop: _dispatch_batch already resolves
                # every executor-failure path, so anything surfacing here
                # is a dispatcher bug — still, no ticket may be left
                # unresolved (that deadlocks serve()) and the worker task
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

    async def _coalesce(self, batch: List[_Ticket]) -> None:
        """Adaptively drain batch-mates into ``batch``.

        The target size is ``ceil(queue depth / dispatchers)`` clamped to
        ``micro_batch`` — a dispatcher takes its fair share of the backlog
        and no more, so an empty queue always dispatches immediately
        (depth-adaptive batching must not tax a lightly loaded stream).
        Only when the observed depth promised a bigger batch than the
        queue delivered does the dispatcher linger 2 ms for stragglers.
        """
        assert self._queue is not None
        queue = self._queue

        def drain(limit: int) -> None:
            while len(batch) < limit:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    return

        target = max(1, min(
            self.micro_batch, -(-queue.qsize() // self.workers) + 1
        ))
        drain(target)
        if len(batch) < target:
            # Single bounded linger (not a wait_for(queue.get()) — that
            # can lose an item to cancellation); then take what arrived.
            await asyncio.sleep(_LINGER_S)
            drain(target)

    def _put(
        self, pool: Executor, requests: List[RunRequest]
    ) -> "asyncio.Future[object]":
        """Submit one hop; the process backend ships it as envelope bytes."""
        loop = asyncio.get_running_loop()
        if self.backend == "process":
            return loop.run_in_executor(
                pool, run_envelope, encode_requests(requests)
            )
        return loop.run_in_executor(pool, _run_tickets, requests)

    async def _dispatch_batch(self, tickets: List[_Ticket]) -> None:
        """Run one micro-batch through the executor, one hop for all.

        Per-request semantics are identical to per-request dispatch (the
        ``micro_batch=1`` default *is* per-request dispatch): queued-
        deadline expiry is checked per ticket before the hop, mid-run
        deadlines are enforced per ticket against the shared hop, and an
        executor failure fails every non-abandoned ticket in the batch.
        """
        now = time.perf_counter()
        live: List[_Ticket] = []
        waited: Dict[int, float] = {}
        deadlines: Dict[int, Optional[float]] = {}
        for ticket in tickets:
            w = now - ticket.enqueued_at
            deadline_s = self._deadline_s(ticket.request)
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
            waited[id(ticket)] = w
            deadlines[id(ticket)] = deadline_s
        if not live:
            return

        pool = self._pool
        requests = [t.request for t in live]
        try:
            task = self._put(pool, requests)
        except BrokenExecutor:
            # The pool broke while idle (an OOM kill, an operator's
            # ``kill``), so submit refused the hop and nothing ran:
            # replace the pool and put the hop on the new one, once.
            self._replace_pool(pool)
            pool = self._pool
            task = self._put(pool, requests)

        # Enforce mid-run deadlines per ticket, soonest first.  The hop is
        # shared, so a timed-out ticket abandons its *result*, never the
        # hop: shield() keeps the underlying work running for batch-mates
        # with laxer (or no) budgets.
        abandoned: set = set()
        timed = sorted(
            (t for t in live if deadlines[id(t)] is not None),
            key=lambda t: t.enqueued_at + deadlines[id(t)],
        )
        for ticket in timed:
            if task.done():
                break
            remaining = (
                ticket.enqueued_at + deadlines[id(ticket)]
                - time.perf_counter()
            )
            try:
                await asyncio.wait_for(
                    asyncio.shield(task), max(0.0, remaining)
                )
            except asyncio.TimeoutError:
                total = time.perf_counter() - ticket.enqueued_at
                deadline_s = deadlines[id(ticket)]
                abandoned.add(id(ticket))
                self._resolve(ticket, RunSummary(
                    request=ticket.request,
                    ok=False,
                    status=STATUS_CANCELLED,
                    queue_s=waited[id(ticket)],
                    latency_s=total,
                    error=(
                        f"deadline: exceeded mid-run after "
                        f"{total * 1e3:.1f}ms "
                        f"(budget {deadline_s * 1e3:.0f}ms); "
                        f"result abandoned"
                    ),
                ))
            # repro: ignore[RPR006] -- not swallowed: the same exception
            # re-raises out of the shared `await task` below, where every
            # surviving ticket is resolved as STATUS_FAILED.
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
            # Infrastructure failure (e.g. BrokenProcessPool after a pool
            # child is OOM-killed, pickling errors).  Every non-abandoned
            # ticket MUST still resolve — an unresolved future deadlocks
            # serve().  The runs are FAILED, not completed: they produced
            # no result, and mislabeling them would poison digests and
            # percentiles.  The hops in flight on a dead pool fail, and
            # the pool is replaced once (identity-guarded) and counted
            # once.
            for ticket in live:
                if id(ticket) in abandoned:
                    continue
                self._resolve(ticket, RunSummary(
                    request=ticket.request,
                    ok=False,
                    status=STATUS_FAILED,
                    latency_s=time.perf_counter() - ticket.enqueued_at,
                    error=f"executor failure: {type(exc).__name__}: {exc}",
                ))
            if isinstance(exc, BrokenExecutor):
                self._replace_pool(pool)
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
                queue_s=waited[id(ticket)],
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
    micro_batch: int = 1,
    warmup: bool = True,
    record: Optional[str] = None,
) -> StreamReport:
    """Run one full open-loop stream to completion (sync entry point).

    Runs structural representatives in the parent first (the plans they
    computed twice are shipped to process-backend workers), replays the
    arrival timeline through a fresh :class:`StreamGateway`, drains it,
    and rolls up the report.

    ``record`` names a capture file: every submitted request (with its
    observed arrival offset) and every resolved summary is appended to it
    through a :class:`~repro.service.recording.Recorder`, so the run can
    be re-fed deterministically later (trace-driven load tests, chaos
    forensics).
    """
    if warmup:
        structural_warmup(
            [
                req if req.engine is not None else replace(req, engine=engine)
                for req in requests
            ]
        )

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
            micro_batch=micro_batch,
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
