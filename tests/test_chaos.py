"""Chaos harness: fault transport, containment, recovery, digest parity.

The harness's gates in test form: poison requests resolve as failed
(never completed), a SIGKILLed pool worker breaks neither the gateway
nor the batch service (pool replaced, judged summaries still reported),
the digests over surviving runs stay byte-identical to a sequential
re-execution, and a report names exactly the four gates.  Plus the one
recovery policy: hops in flight on a dead pool fail, the pool is
replaced once, and a hop refused at submit is replayed once on the new
pool.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.core import RunRequest
from repro.core.engine import STATUS_COMPLETED, STATUS_FAILED
from repro.scenarios import mixed_batch
from repro.service import (
    CHAOS_TAG_PREFIX,
    BatchService,
    ChaosFault,
    ChaosPlan,
    StreamGateway,
    apply_fault,
    build_chaos_plan,
    inject,
    requests_from_scenarios,
    run_chaos,
    serve,
    structural_warmup,
)
from repro.service.__main__ import main

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=900):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine
    )


# -- fault transport ----------------------------------------------------------


def test_inject_arms_the_envelope_tag():
    req = _requests(1)[0]
    assert inject(req, "poison").tag == f"{CHAOS_TAG_PREFIX}poison"
    assert inject(req, "slow:25").tag == f"{CHAOS_TAG_PREFIX}slow:25"
    # The armed request is a new envelope; the original is untouched.
    assert req.tag == ""


def test_apply_fault_semantics():
    with pytest.raises(ChaosFault, match="poison"):
        apply_fault(f"{CHAOS_TAG_PREFIX}poison")
    with pytest.raises(ChaosFault, match="unknown chaos fault"):
        apply_fault(f"{CHAOS_TAG_PREFIX}meteor")
    with pytest.raises(ChaosFault, match="malformed slow"):
        apply_fault(f"{CHAOS_TAG_PREFIX}slow:soon")
    t0 = time.perf_counter()
    apply_fault(f"{CHAOS_TAG_PREFIX}slow:30")  # sleeps, then returns
    assert time.perf_counter() - t0 >= 0.030


def test_slow_fault_completes_with_correct_digest():
    """A straggler is delayed, not corrupted: same digest as its clean
    twin, just later."""
    req = _requests(1)[0]
    report = serve(
        [inject(req, "slow:40")], [0.0], workers=1, backend="thread",
        warmup=False,
    )
    (slowed,) = report.summaries
    assert slowed.status == STATUS_COMPLETED and slowed.ok
    assert slowed.latency_s >= 0.040
    baseline = BatchService(workers=0).run_batch([req])
    assert slowed.digest == baseline.summaries[0].digest


def test_warmup_passes_skip_chaos_requests():
    """Warmup/prefetch execute in the parent process — a chaos:kill there
    would take down the gateway itself, so armed requests never warm."""
    requests = [inject(r, "poison") for r in _requests(4)]
    assert structural_warmup(requests) == {}
    report = BatchService(workers=2).run_batch(requests)
    assert report.prefetch_runs == 0
    assert all(s.status == STATUS_FAILED for s in report.summaries)


# -- containment in the gateway ----------------------------------------------


def test_poison_request_fails_cleanly_in_gateway():
    requests = _requests(4)
    requests[1] = inject(requests[1], "poison")
    report = serve(
        requests, [0.0] * 4, workers=2, backend="thread", policy="block",
        warmup=False,
    )
    poisoned = report.summaries[1]
    assert poisoned.status == STATUS_FAILED
    assert not poisoned.ok and not poisoned.resolved
    assert "ChaosFault" in poisoned.error
    assert len(report.completed) == 3
    assert report.metrics["failed"] == 1
    assert report.metrics["latency"]["count"] == 3  # success p99 untouched
    baseline = BatchService(workers=0).run_batch(
        [s.request for s in report.completed]
    )
    assert report.stream_digest() == baseline.batch_digest()


# -- pool death mid-batch (satellite regression) ------------------------------


def test_pool_death_mid_batch_reports_judged_summaries():
    """Regression: a worker dying mid-batch used to surface as a raw
    ``BrokenProcessPool`` out of ``BatchService.execute`` — already-judged
    summaries were lost with it.  Now every request resolves, the pool is
    replaced, the batch digest covers exactly the resolved runs, and those
    runs match a sequential re-execution byte for byte."""
    requests = _requests(8)
    requests[4] = inject(requests[4], "kill")
    service = BatchService(workers=2, warmup=False, chunk=2)
    report = service.run_batch(requests)

    assert len(report.summaries) == len(requests)  # nothing lost
    assert not report.ok
    killed = report.summaries[4]
    assert killed.status == STATUS_FAILED and not killed.resolved
    assert "executor failure: BrokenProcessPool" in killed.error
    assert report.pool_replacements >= 1
    assert report.unresolved  # the dead chunk(s)
    resolved = [s for s in report.summaries if s.resolved]
    assert resolved  # chunks judged before the kill are still reported
    assert all(s.status == STATUS_COMPLETED for s in resolved)

    baseline = BatchService(workers=0).run_batch(
        [s.request for s in resolved]
    )
    assert baseline.ok
    assert baseline.batch_digest() == report.batch_digest()
    assert report.to_dict()["pool_replacements"] >= 1


# -- the harness --------------------------------------------------------------


def test_build_chaos_plan_layout():
    plan = build_chaos_plan(
        12, kills=1, poisons=2, straggler_frac=0.25, seed=5
    )
    assert len(plan.requests) == 12
    assert plan.kill_indices == [4]
    assert len(plan.poison_indices) == 2
    assert plan.straggler_indices  # 25% of the 9 clean ones
    untouched = (
        set(range(12))
        - set(plan.fault_indices)
        - set(plan.straggler_indices)
    )
    for i in untouched:
        assert plan.requests[i] == plan.clean[i]
    for i in plan.kill_indices:
        assert plan.requests[i].tag == f"{CHAOS_TAG_PREFIX}kill"
    with pytest.raises(ValueError, match="at least"):
        build_chaos_plan(3, kills=2, poisons=1)


def test_run_chaos_rejects_kills_on_thread_backend():
    with pytest.raises(ValueError, match="process backend"):
        run_chaos(count=8, kills=1, backend="thread", compare_clean=False)


def test_run_chaos_gates_pass_with_worker_kill():
    """The headline gate: a live gateway survives a SIGKILLed pool worker
    — pool replaced, later requests complete, surviving digests correct."""
    requests = _requests(10, seed0=77)
    armed = list(requests)
    armed[3] = inject(armed[3], "kill")
    armed[6] = inject(armed[6], "poison")
    plan = ChaosPlan(
        requests=armed,
        clean=requests,
        kill_indices=[3],
        poison_indices=[6],
    )
    report = run_chaos(plan, workers=2, compare_clean=False)
    assert report.ok, report.gates
    assert report.pool_replacements >= 1
    assert report.counts["post_kill_completed"] >= 1
    assert report.chaos_digest == report.baseline_digest
    doc = report.to_dict()
    assert doc["ok"] is True
    assert set(doc["gates"]) == {
        "recovered", "faults_contained", "digests_correct", "p99_bounded",
    }


# -- one recovery policy: hops on a dead pool fail, one replacement ----------


def test_single_kill_request_batch_counts_its_replacement():
    """The batch's last (here: only) hop kills the pool.  The replacement
    is still made and counted before the batch returns."""
    (req,) = _requests(1, seed0=41)
    report = BatchService(workers=2).run_batch([inject(req, "kill")])
    (killed,) = report.summaries
    assert killed.status == STATUS_FAILED and not killed.resolved
    assert report.pool_replacements == 1


def test_mid_batch_kill_replaces_pool_exactly_once():
    """One kill in a 40-request batch of one-request hops: the batch
    returns instead of raising, the dead pool is replaced once, only the
    hops in flight on it fail (at most one per worker), and the resolved
    runs match a sequential re-run."""
    workers = 2
    requests = _requests(40, seed0=61)
    requests[17] = inject(requests[17], "kill")
    report = BatchService(workers=workers, warmup=False, chunk=1).run_batch(
        requests
    )
    assert len(report.summaries) == len(requests)
    assert report.summaries[17].status == STATUS_FAILED
    assert report.pool_replacements == 1
    assert 1 <= len(report.unresolved) <= workers
    resolved = [s for s in report.summaries if s.resolved]
    baseline = BatchService(workers=0).run_batch(
        [s.request for s in resolved]
    )
    assert baseline.ok
    assert baseline.batch_digest() == report.batch_digest()


def test_idle_worker_death_is_replaced_at_submit():
    """A pool whose only worker died while idle refuses the next submit
    with ``BrokenExecutor``.  Nothing ran, so the gateway replaces the
    pool and puts the hop on the new one."""
    requests = _requests(6, seed0=81)

    async def main():
        gateway = StreamGateway(workers=1, backend="process", policy="block")
        async with gateway:
            first = await (await gateway.submit(requests[0]))
            pool = gateway._pool
            (pid,) = pool._processes
            os.kill(pid, signal.SIGKILL)
            give_up = time.monotonic() + 30
            while not pool._broken and time.monotonic() < give_up:
                await asyncio.sleep(0.01)
            assert pool._broken, "the pool never noticed its dead worker"
            futures = [await gateway.submit(r) for r in requests[1:]]
            rest = [await f for f in futures]
        return first, rest, gateway.metrics.pool_replacements

    first, rest, replacements = asyncio.run(
        asyncio.wait_for(main(), timeout=120)
    )
    assert first.status == STATUS_COMPLETED
    assert [s.status for s in rest] == [STATUS_COMPLETED] * 5
    assert replacements == 1


# -- CLI ----------------------------------------------------------------------


def test_chaos_cli_rejects_impossible_plan(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--requests", "3", "--kills", "2", "--poisons", "1"])
    assert exc.value.code == 2
    assert "at least" in capsys.readouterr().err
