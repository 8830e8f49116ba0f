"""Batch execution: many runs, many workers, one report.

Lenzen's routing and sorting finish in O(1) rounds *per instance*, so the
axis this reproduction scales along is throughput across **many** instances
— the service regime from the ROADMAP ("heavy traffic from millions of
users").  This module is that front end:

* Requests are :class:`~repro.core.engine.RunRequest` envelopes — picklable
  coordinates, not live objects — resolved through the scenario taxonomy
  and the algorithm registry.  Anything registered with
  :func:`repro.scenarios.runner.register_algorithm` is addressable.
* ``workers < 2`` runs a batch in-process in request order (the
  determinism baseline).  ``workers >= 2`` runs it through a
  process-backed :class:`~repro.service.stream.StreamGateway` — the one
  piece of code that owns worker processes, their envelope hop and the
  recovery from a worker's death.
* Every run is judged exactly as the scenario harness judges it (oracle
  verification, round bounds, message budget) and collapsed to a
  :class:`~repro.core.engine.RunSummary`; summaries come back in request
  order.
* **Workers warm themselves.**  A pooled batch runs every request in a
  worker process; nothing runs in the calling process first.  Each worker's
  plan cache stores the plans it computes twice (group partitions and
  header codecs at the same ``n``, the colorings of uniform announce
  demands), exactly as the in-process path does.

The digests let any two paths over the same batch — sequential, pooled, or
direct ``engine.execute`` calls — be compared byte-for-byte; CI's service
smoke job and :mod:`benchmarks.bench_service` both gate on that.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.context import plan_cache
from ..core.engine import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    RunRequest,
    RunSummary,
    available_engines,
)
from ..scenarios.generators import Scenario
from ..scenarios.runner import ScenarioOutcome, ScenarioRunner

__all__ = [
    "BatchReport",
    "BatchService",
    "CHAOS_TAG_PREFIX",
    "execute_request",
    "requests_from_scenarios",
    "summaries_digest",
]

#: Tag prefix that routes a request through the chaos fault injector
#: (:mod:`repro.service.chaos`) before execution.
CHAOS_TAG_PREFIX = "chaos:"


def summaries_digest(summaries: Iterable[RunSummary]) -> str:
    """Order-independent digest over the *resolved* per-run output digests.

    Byte-identical across backends, worker counts and scheduling — the
    cross-backend equivalence gate CI and the benches assert on.  The
    batch service and the streaming gateway both fold their summaries
    through here, which is what makes "streaming == batch == sequential"
    a one-line comparison.

    Unresolved runs — crashed engines, dead worker processes, resolution
    errors, anything with no output digest — are skipped, so the fold
    covers exactly the runs that executed to a judged end.  That is the
    chaos-harness invariant: the digest of the runs that *survived* a
    fault must match a fault-free execution of those same requests.
    """
    blob = "\n".join(
        sorted(f"{s.request.name} {s.digest}" for s in summaries if s.digest)
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def requests_from_scenarios(
    scenarios: Iterable[Scenario],
    engine: Optional[str] = None,
    algorithm: Optional[str] = None,
) -> List[RunRequest]:
    """Wrap scenario coordinates into service request envelopes."""
    return [
        RunRequest(
            kind=sc.kind,
            family=sc.family,
            n=sc.n,
            seed=sc.seed,
            algorithm=algorithm,
            engine=engine,
        )
        for sc in scenarios
    ]


#: Shared runner for request execution (stateless between runs: every
#: ``run`` builds its own workload and judges it independently).
_RUNNER = ScenarioRunner()


def _summarize(req: RunRequest, outcome: ScenarioOutcome) -> RunSummary:
    return RunSummary(
        request=req,
        ok=outcome.ok,
        status=STATUS_COMPLETED,
        engine=outcome.engine,
        rounds=outcome.rounds,
        total_packets=outcome.total_packets,
        total_words=outcome.total_words,
        max_edge_words=outcome.max_edge_words,
        digest=outcome.digest,
        wall_s=outcome.wall_s,
        shared_cache_hits=outcome.shared_cache_hits,
        shared_cache_misses=outcome.shared_cache_misses,
        error=outcome.error,
    )


def execute_request(req: RunRequest) -> RunSummary:
    """Resolve, run, verify and summarize one request (any process).

    ``engine=None`` resolves to the simulator's default (the fully-audited
    reference engine) — when dispatching through :class:`BatchService`,
    unset engines are stamped with the service's default first.

    Resolution errors (unknown family/algorithm/engine) and engine crashes
    are carried in the summary's ``error`` field with ``status ==
    STATUS_FAILED`` rather than raised: one malformed or poisoned request
    must not take down a shard of good ones.

    Requests whose ``tag`` starts with ``"chaos:"`` route through the
    fault injector first (:func:`repro.service.chaos.apply_fault`) — the
    tag travels inside the picklable envelope, so a fault fires in
    whatever process executes the request, with no worker-side setup.
    """
    try:
        if req.tag.startswith(CHAOS_TAG_PREFIX):
            from .chaos import apply_fault

            apply_fault(req.tag)
        scenario = Scenario(req.kind, req.family, req.n, req.seed)
        outcome = _RUNNER.run(
            scenario,
            algorithm=req.algorithm,
            engine=req.engine if req.engine is not None else "reference",
        )
    except Exception as exc:  # resolution/registry errors or engine crashes
        return RunSummary(
            request=req,
            ok=False,
            status=STATUS_FAILED,
            error=f"{type(exc).__name__}: {exc}",
        )
    return _summarize(req, outcome)


@dataclass
class BatchReport:
    """Aggregate view of one executed batch."""

    summaries: List[RunSummary]
    backend: str
    workers: int
    wall_s: float
    plan_cache_stats: Tuple[int, int, int] = (0, 0, 0)
    #: worker processes replaced after dying mid-batch (0 on a healthy
    #: run).
    pool_replacements: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.summaries) and all(s.ok for s in self.summaries)

    @property
    def unresolved(self) -> List[RunSummary]:
        """Runs that never executed to a judged end (no output digest)."""
        return [s for s in self.summaries if not s.resolved]

    @property
    def failures(self) -> List[RunSummary]:
        return [s for s in self.summaries if not s.ok]

    @property
    def throughput(self) -> float:
        """Completed instances per wall-clock second."""
        return len(self.summaries) / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def shared_cache_hit_rate(self) -> float:
        hits = sum(s.shared_cache_hits for s in self.summaries)
        misses = sum(s.shared_cache_misses for s in self.summaries)
        return hits / (hits + misses) if hits + misses else 0.0

    def batch_digest(self) -> str:
        """Order-independent digest over the resolved runs' output digests.

        See :func:`summaries_digest` — shared with the streaming gateway;
        covers exactly the runs that executed to a judged end.
        """
        return summaries_digest(self.summaries)

    def by_family(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per ``(kind, family)`` rollup used by the CLI table."""
        rollup: Dict[Tuple[str, str], Dict[str, float]] = {}
        for s in self.summaries:
            row = rollup.setdefault(
                (s.request.kind, s.request.family),
                {"runs": 0, "ok": 0, "rounds": 0, "packets": 0, "wall_s": 0.0},
            )
            row["runs"] += 1
            row["ok"] += 1 if s.ok else 0
            row["rounds"] += s.rounds
            row["packets"] += s.total_packets
            row["wall_s"] += s.wall_s
        return rollup

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready document (the ``--json`` CLI output)."""
        hits, misses, size = self.plan_cache_stats
        return {
            "backend": self.backend,
            "workers": self.workers,
            "ok": self.ok,
            "requests": len(self.summaries),
            "failed": len(self.failures),
            "wall_s": round(self.wall_s, 4),
            "throughput_per_s": round(self.throughput, 2),
            "total_rounds": sum(s.rounds for s in self.summaries),
            "total_packets": sum(s.total_packets for s in self.summaries),
            "total_words": sum(s.total_words for s in self.summaries),
            "shared_cache_hit_rate": round(self.shared_cache_hit_rate, 4),
            "unresolved": len(self.unresolved),
            "pool_replacements": self.pool_replacements,
            "plan_cache": {
                "hits": hits,
                "misses": misses,
                "size": size,
            },
            "batch_digest": self.batch_digest(),
            "failures": [
                {"request": s.request.name, "error": s.error}
                for s in self.failures
            ],
        }


class BatchService:
    """The batch-execution front end.

    Args:
        workers: ``0`` or ``1`` runs the batch in-process, in request
            order; ``>= 2`` runs it on a process-backed
            :class:`~repro.service.stream.StreamGateway` of that many
            workers.
        engine: default engine name stamped on requests that carry
            ``engine=None``.

    On the pooled path the gateway sizes the hops: each dispatcher
    coalesces its share of the queued batch, at most eight requests,
    into one executor hop.
    """

    def __init__(self, workers: int = 0, engine: str = "fast") -> None:
        if engine not in available_engines():
            raise ValueError(
                f"unknown engine {engine!r}; available: "
                f"{', '.join(available_engines())}"
            )
        self.workers = max(0, int(workers))
        self.engine = engine

    # -- internals ----------------------------------------------------------

    def _stamp(self, requests: Iterable[RunRequest]) -> List[RunRequest]:
        return [
            req if req.engine is not None else replace(req, engine=self.engine)
            for req in requests
        ]

    def _run_pooled(
        self, requests: List[RunRequest]
    ) -> Tuple[List[RunSummary], int]:
        """Run ``requests`` through a process-backed gateway, in order;
        returns the summaries and the gateway's worker replacements."""
        if not requests:
            return [], 0
        # stream.py imports this module, so the gateway is imported late.
        from .stream import StreamGateway

        gateway = StreamGateway(
            workers=self.workers,
            engine=self.engine,
            backend="process",
            queue_cap=len(requests),
            policy="block",
        )

        async def run() -> List[RunSummary]:
            async with gateway:
                # A batch is judged on completion, so it ignores request
                # deadlines; the gateway would enforce them.
                futures = [
                    await gateway.submit(replace(req, deadline_ms=None))
                    for req in requests
                ]
                return [
                    replace(await future, request=req)
                    for req, future in zip(requests, futures)
                ]

        summaries = asyncio.run(run())
        return summaries, gateway.metrics.pool_replacements

    # -- execution ----------------------------------------------------------

    def execute(
        self, requests: Iterable[RunRequest]
    ) -> Iterator[Tuple[RunRequest, RunSummary]]:
        """Execute a batch, yielding ``(request, summary)`` in request order.

        In-process (``workers < 2``) each summary is yielded as its run
        finishes.  The pooled path drives the whole batch through the
        gateway under :func:`asyncio.run` and yields once the gateway has
        drained — so it cannot be called from a running event loop.
        """
        stamped = self._stamp(requests)
        if self.workers < 2:
            for req in stamped:
                yield req, execute_request(req)
            return
        summaries, _ = self._run_pooled(stamped)
        yield from zip(stamped, summaries)

    def run_batch(self, requests: Iterable[RunRequest]) -> BatchReport:
        """Execute a batch to completion and aggregate the summaries."""
        stamped = self._stamp(requests)
        pooled = self.workers >= 2
        replacements = 0
        pc = plan_cache()
        hits0, misses0, _ = pc.stats()
        t0 = time.perf_counter()
        if pooled:
            summaries, replacements = self._run_pooled(stamped)
        else:
            summaries = [execute_request(req) for req in stamped]
        wall = time.perf_counter() - t0
        hits1, misses1, size1 = pc.stats()
        return BatchReport(
            summaries=summaries,
            backend="process-pool" if pooled else "sequential",
            workers=self.workers if pooled else 1,
            wall_s=wall,
            plan_cache_stats=(hits1 - hits0, misses1 - misses0, size1),
            pool_replacements=replacements,
        )
