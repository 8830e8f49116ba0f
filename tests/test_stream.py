"""The streaming gateway: backpressure, deadlines, digest parity.

The ISSUE 4 satellites: queue-full rejection under the ``reject`` policy,
deadline cancellation (both in-queue expiry and mid-run abandonment), and
the differential digest pinning streaming == batch == sequential on a
fixed scenario mix.
"""

import asyncio
import json
import time
from dataclasses import replace

import pytest

from repro.core import RunRequest
from repro.scenarios import mixed_batch
from repro.scenarios.runner import ALGORITHMS, AlgorithmSpec, register_algorithm
from repro.service import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    BatchService,
    StreamGateway,
    inject,
    requests_from_scenarios,
    serve,
    structural_warmup,
    summaries_digest,
)
from repro.service import stream as stream_mod
from repro.service.__main__ import main
from repro.service.stream import replay

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=500):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine
    )


@pytest.fixture
def sleepy_algorithm():
    """A routing algorithm that sleeps before delegating to ``naive``.

    Registered process-wide, so the thread backend's workers see it —
    which is what makes mid-run deadline behavior deterministic to test.
    """
    name = "test-sleepy"
    naive = ALGORITHMS[("routing", "naive")]

    def run(inst, engine, seed):
        time.sleep(0.1)
        return naive.run(inst, engine, seed)

    register_algorithm(AlgorithmSpec(kind="routing", name=name, run=run))
    yield name
    del ALGORITHMS[("routing", name)]


# -- differential digest: streaming == batch == sequential -------------------


def test_stream_matches_batch_and_sequential_digests():
    """A loss-free stream over a fixed mix must reproduce the batch
    service's digests exactly — sequential, pooled, and streamed are three
    schedules of the same work.
    """
    requests = _requests(18)
    report = serve(
        requests,
        [0.0] * len(requests),
        workers=2,
        backend="thread",
        policy="block",
        queue_cap=4,
    )
    assert report.ok, report.failures
    assert len(report.completed) == len(requests)
    assert not report.rejected and not report.cancelled

    sequential = BatchService(workers=0).run_batch(requests)
    pooled = BatchService(workers=2).run_batch(requests)
    assert sequential.ok and pooled.ok
    assert report.stream_digest() == sequential.batch_digest()
    assert report.stream_digest() == pooled.batch_digest()

    # Same per-run digests, not just the same fold.
    stream_rows = sorted(
        (s.request.name, s.digest, s.rounds) for s in report.completed
    )
    batch_rows = sorted(
        (s.request.name, s.digest, s.rounds) for s in sequential.summaries
    )
    assert stream_rows == batch_rows


def test_stream_process_backend_matches_sequential():
    requests = _requests(6)
    report = serve(
        requests,
        [0.0] * len(requests),
        workers=2,
        backend="process",
        policy="block",
    )
    assert report.ok, report.failures
    assert len(report.completed) == len(requests)
    baseline = BatchService(workers=0).run_batch(requests)
    assert report.stream_digest() == baseline.batch_digest()


# -- backpressure ------------------------------------------------------------


def test_queue_full_rejection():
    """Under the reject policy, submissions beyond the queue bound resolve
    immediately as rejected instead of blocking the submitter.

    The submit loop never awaits, so the single worker task cannot drain
    the queue between submissions — the overflow pattern is deterministic.
    """
    requests = _requests(6)

    async def main():
        gateway = StreamGateway(
            workers=1, backend="thread", queue_cap=2, policy="reject"
        )
        async with gateway:
            futures = [await gateway.submit(r) for r in requests]
            await gateway.drain()
            return [await f for f in futures], gateway.metrics

    summaries, metrics = asyncio.run(main())
    statuses = [s.status for s in summaries]
    assert statuses.count(STATUS_REJECTED) == len(requests) - 2
    assert statuses.count(STATUS_COMPLETED) == 2
    for s in summaries:
        if s.status == STATUS_REJECTED:
            assert not s.ok
            assert "queue full" in s.error
        else:
            assert s.ok
    assert metrics.offered == len(requests)
    assert metrics.rejected == len(requests) - 2
    assert metrics.completed == 2


def test_block_policy_never_rejects():
    requests = _requests(10)
    report = serve(
        requests,
        [0.0] * len(requests),
        workers=2,
        backend="thread",
        policy="block",
        queue_cap=1,
    )
    assert len(report.completed) == len(requests)
    assert not report.rejected
    assert report.metrics["queue_depth_max"] <= 1


# -- deadlines ---------------------------------------------------------------


def test_deadline_expires_in_queue(sleepy_algorithm):
    """Requests queued behind a slow run past their deadline are cancelled
    without ever executing."""
    slow = RunRequest(
        kind="routing", family="balanced", n=16, seed=1,
        algorithm=sleepy_algorithm, engine="fast",
    )
    quick = [
        RunRequest(
            kind="routing", family="balanced", n=16, seed=2 + i,
            engine="fast", deadline_ms=20.0,
        )
        for i in range(3)
    ]
    report = serve(
        [slow] + quick,
        [0.0] * 4,
        workers=1,
        backend="thread",
        policy="block",
        warmup=False,
    )
    first, rest = report.summaries[0], report.summaries[1:]
    assert first.status == STATUS_COMPLETED and first.ok
    for s in rest:
        assert s.status == STATUS_CANCELLED
        assert not s.ok
        assert "deadline" in s.error and "in queue" in s.error
        assert s.queue_s >= 0.020
        assert s.latency_s >= s.queue_s
    assert report.metrics["cancelled"] == 3


def test_deadline_exceeded_mid_run(sleepy_algorithm):
    """A dispatched run that overruns its remaining budget is abandoned."""
    req = RunRequest(
        kind="routing", family="balanced", n=16, seed=9,
        algorithm=sleepy_algorithm, engine="fast", deadline_ms=40.0,
    )
    report = serve(
        [req], [0.0], workers=1, backend="thread", warmup=False
    )
    (summary,) = report.summaries
    assert summary.status == STATUS_CANCELLED
    assert "mid-run" in summary.error and "abandoned" in summary.error
    # The deadline bounded the observed latency (plus scheduling slack).
    assert summary.latency_s >= 0.040


def test_gateway_default_deadline_applies_to_unset_requests(sleepy_algorithm):
    slow = RunRequest(
        kind="routing", family="balanced", n=16, seed=1,
        algorithm=sleepy_algorithm, engine="fast",
    )
    # Gateway default cancels the queued request; its own deadline is unset.
    queued = RunRequest(
        kind="routing", family="balanced", n=16, seed=3, engine="fast"
    )
    report = serve(
        [slow, queued],
        [0.0, 0.0],
        workers=1,
        backend="thread",
        policy="block",
        deadline_ms=25.0,
        warmup=False,
    )
    first, second = report.summaries
    # The slow request itself overran the default budget mid-run...
    assert first.status == STATUS_CANCELLED
    # ...and the queued one was cancelled by the same default budget.
    # Abandoning the slow run frees the dispatcher at almost exactly the
    # queued request's own expiry, so whether it dies in queue or is
    # dispatched with sub-millisecond budget and abandoned mid-run is a
    # scheduling race; the default deadline applying at all is the
    # contract.
    assert second.status == STATUS_CANCELLED
    assert "deadline" in second.error


def test_coalesced_hop_enforces_per_ticket_deadlines(monkeypatch):
    """A micro-batched hop keeps per-request deadlines: a straggler in
    the hop costs only the batch-mate whose own budget runs out, and the
    survivors' digest equals a sequential run."""
    hops = []
    real = stream_mod._run_tickets

    def counting(requests):
        hops.append(len(requests))
        return real(requests)

    monkeypatch.setattr(stream_mod, "_run_tickets", counting)
    requests = requests_from_scenarios(
        mixed_batch(
            8, seed0=0,
            routing_sizes=(8,), sorting_sizes=(9,), multiplex_sizes=(8,),
        ),
        engine="fast",
    )
    requests[0] = inject(requests[0], "slow:300")
    requests[1] = replace(requests[1], deadline_ms=100)

    async def main():
        gateway = StreamGateway(
            workers=1, backend="thread", policy="block", micro_batch=4
        )
        async with gateway:
            # The submit loop never yields, so all eight are queued before
            # the one dispatcher first runs.
            futures = [await gateway.submit(r) for r in requests]
            return [await f for f in futures]

    summaries = asyncio.run(asyncio.wait_for(main(), timeout=30))
    assert hops == [4, 4]
    assert summaries[1].status == STATUS_CANCELLED
    survivors = summaries[:1] + summaries[2:]
    assert all(s.status == STATUS_COMPLETED and s.ok for s in survivors)
    sequential = BatchService(workers=0).run_batch(
        [s.request for s in survivors]
    )
    assert summaries_digest(survivors) == sequential.batch_digest()


# -- gateway mechanics -------------------------------------------------------


def test_engine_stamping_and_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        StreamGateway(engine="warp")
    with pytest.raises(ValueError, match="unknown backend"):
        StreamGateway(backend="fiber")
    with pytest.raises(ValueError, match="unknown policy"):
        StreamGateway(policy="drop-newest")
    with pytest.raises(ValueError):
        StreamGateway(workers=0)
    with pytest.raises(ValueError):
        StreamGateway(queue_cap=0)

    unset = RunRequest(kind="routing", family="balanced", n=16, seed=4)
    pinned = RunRequest(
        kind="routing", family="balanced", n=16, seed=4, engine="reference"
    )
    report = serve(
        [unset, pinned], [0.0, 0.0], workers=1, engine="fast",
        backend="thread", warmup=False,
    )
    assert [s.engine for s in report.summaries] == ["fast", "reference"]


def test_start_spawns_one_dispatcher_per_worker():
    async def main():
        async with StreamGateway(workers=3, backend="thread"):
            return sorted(
                t.get_name() for t in asyncio.all_tasks()
                if t.get_name().startswith("stream-worker-")
            )

    assert asyncio.run(main()) == [f"stream-worker-{i}" for i in range(3)]


def test_submit_after_close_raises():
    async def main():
        gateway = StreamGateway(workers=1, backend="thread")
        async with gateway:
            pass
        with pytest.raises(RuntimeError, match="not running"):
            await gateway.submit(
                RunRequest(kind="routing", family="balanced", n=16)
            )
        # One gateway, one lifecycle: restarting a closed gateway would
        # spawn a pool no submission can ever reach.
        with pytest.raises(RuntimeError, match="closed"):
            await gateway.start()

    asyncio.run(main())


def test_close_resolves_submitter_blocked_in_full_queue(sleepy_algorithm):
    """Regression: a submitter suspended in ``put`` under the ``block``
    policy could enqueue its ticket *after* ``drain()`` completed and the
    workers were cancelled, leaving the future unresolved forever.

    ``asyncio.Queue.join`` waits once on its "all done" event without
    re-checking, so the interleaving is: the worker dequeues the last
    ticket (waking the blocked putter), resolves it synchronously (the
    expired-deadline path never awaits, so ``task_done`` fires in the
    same step), and the putter — scheduled before the join waiter — slips
    its ticket into the queue no worker will ever read.  On the old code
    this test hangs at ``fut_late`` (bounded by the wait_for timeouts);
    the post-put ``_closed`` re-check resolves the ticket instead.
    """
    slow = RunRequest(
        kind="routing", family="balanced", n=16, seed=1,
        algorithm=sleepy_algorithm, engine="fast",
    )
    expired = RunRequest(
        kind="routing", family="balanced", n=16, seed=2, engine="fast",
        deadline_ms=1e-6,
    )
    late = RunRequest(
        kind="routing", family="balanced", n=16, seed=3, engine="fast"
    )

    async def main():
        gateway = StreamGateway(
            workers=1, backend="thread", queue_cap=1, policy="block"
        )
        await gateway.start()
        fut_slow = await gateway.submit(slow)
        await asyncio.sleep(0.01)  # worker dequeues `slow`, starts running
        fut_expired = await gateway.submit(expired)  # fills the queue
        submit_task = asyncio.create_task(gateway.submit(late))
        await asyncio.sleep(0.01)  # submitter suspends in _queue.put
        assert not submit_task.done()
        await asyncio.wait_for(gateway.close(), timeout=10)
        fut_late = await asyncio.wait_for(submit_task, timeout=5)
        late_summary = await asyncio.wait_for(fut_late, timeout=5)
        return await fut_slow, await fut_expired, late_summary

    s_slow, s_expired, s_late = asyncio.run(
        asyncio.wait_for(main(), timeout=30)
    )
    assert s_slow.status == STATUS_COMPLETED and s_slow.ok
    assert s_expired.status == STATUS_CANCELLED
    assert s_late.status == STATUS_CANCELLED
    assert not s_late.ok
    assert "closed" in s_late.error


def test_executor_failure_resolves_ticket_instead_of_deadlocking(monkeypatch):
    """An exception escaping the executor (e.g. BrokenProcessPool after an
    OOM-killed pool child) must resolve the ticket as a failed run — an
    unresolved future would hang serve() forever — and leave the worker
    alive for subsequent requests.
    """
    real = stream_mod.execute_request
    calls = {"n": 0}

    def flaky(req):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("simulated pool crash")
        return real(req)

    monkeypatch.setattr(stream_mod, "execute_request", flaky)
    requests = _requests(2)
    report = serve(
        requests, [0.0, 0.0], workers=1, backend="thread", warmup=False
    )
    first, second = report.summaries
    assert not first.ok
    # The crashed run is FAILED, not completed: it produced no judged
    # result, and labeling it completed would poison digests/percentiles.
    assert first.status == STATUS_FAILED
    assert not first.resolved
    assert "executor failure" in first.error
    assert "simulated pool crash" in first.error
    assert second.ok and second.status == STATUS_COMPLETED
    assert not report.ok  # the infra failure surfaces in the report
    assert report.metrics["failed"] == 1
    # Failed runs stay out of the success percentiles (they'd otherwise
    # *improve* p50 exactly when the service is sickest) ...
    assert report.metrics["latency"]["count"] == 1
    # ... and out of the digest fold.
    assert report.stream_digest() == summaries_digest([second])
    assert report.failed == [first]


def test_failed_runs_excluded_from_success_latency(monkeypatch):
    """Fast crashes must not drag success percentiles down: failure
    latency is tracked in its own histogram."""
    real = stream_mod.execute_request

    def crash_odd(req):
        if req.seed % 2:
            raise RuntimeError("boom")
        return real(req)

    monkeypatch.setattr(stream_mod, "execute_request", crash_odd)
    requests = _requests(6)  # seeds 500..505 -> 3 crashes
    report = serve(
        requests, [0.0] * 6, workers=1, backend="thread", warmup=False
    )
    assert len(report.failed) == 3
    assert len(report.completed) == 3
    assert report.metrics["latency"]["count"] == 3
    assert report.metrics["failure_latency"]["count"] == 3
    assert report.metrics["failed"] == 3


def test_replay_rejects_mismatched_lengths():
    async def main():
        gateway = StreamGateway(workers=1, backend="thread")
        async with gateway:
            with pytest.raises(ValueError, match="arrival times"):
                await replay(gateway, _requests(3), [0.0, 0.0])

    asyncio.run(main())


def test_replay_paces_arrivals():
    """Arrival offsets are honored: the replay clock, not completion,
    decides submission times."""
    requests = _requests(3)
    t0 = time.perf_counter()
    report = serve(
        requests,
        [0.0, 0.05, 0.10],
        workers=2,
        backend="thread",
        warmup=False,
    )
    assert time.perf_counter() - t0 >= 0.10
    assert len(report.completed) == 3


def test_structural_warmup_dedupes_and_caps():
    requests = _requests(12)
    picks = structural_warmup(requests, max_runs=3)
    assert all(requests[i] == s.request for i, s in picks.items())
    warmed = list(picks.values())
    assert len(warmed) == 3
    assert all(s.ok for s in warmed)
    groups = {
        (s.request.kind, s.request.family, s.request.n) for s in warmed
    }
    assert len(groups) == 3  # distinct structural groups, not repeats


def test_report_roundtrips_to_json():
    requests = _requests(4)
    report = serve(
        requests, [0.0] * 4, workers=1, backend="thread", warmup=False
    )
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["offered"] == 4
    assert doc["completed"] + doc["rejected"] + doc["cancelled"] == 4
    assert doc["metrics"]["latency"]["count"] >= doc["completed"]
    assert doc["stream_digest"] == summaries_digest(report.completed)


# -- CLI ---------------------------------------------------------------------


def test_cli_saturated_selfcheck_json(capsys):
    code = main([
        "stream", "--rate", "0", "--requests", "8", "--workers", "2",
        "--backend", "thread", "--policy", "block", "--selfcheck", "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["completed"] == 8
    assert doc["selfcheck"]["match"] is True
    assert doc["selfcheck"]["sequential_digest"] == doc["stream_digest"]
    assert doc["metrics"]["latency"]["p99_ms"] >= doc["metrics"]["latency"][
        "p50_ms"
    ]


def test_cli_poisson_table_output(capsys):
    code = main([
        "stream", "--rate", "40", "--duration", "0.2", "--workers", "1",
        "--backend", "thread",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "stream gateway" in out
    assert "p99 ms" in out
    assert "poisson" in out


def test_cli_rejects_bad_mix():
    with pytest.raises(SystemExit):
        main(["stream", "--scenario-mix", "routing/never"])


def test_cli_saturated_mode_requires_explicit_request_count(capsys):
    # --rate 0 has no arrival clock to derive a count from; silently
    # running a single request would print a meaningless 1-sample report.
    with pytest.raises(SystemExit) as exc:
        main(["stream", "--rate", "0"])
    assert exc.value.code == 2
    assert "--requests" in capsys.readouterr().err
