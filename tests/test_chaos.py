"""Chaos harness: fault transport, containment, recovery, digest parity.

The harness's gates in test form: poison requests resolve as failed
(never completed), a SIGKILLed worker process breaks neither the gateway
nor the batch service (worker replaced, judged summaries still
reported), the digests over surviving runs stay byte-identical to a
sequential re-execution, and a report names exactly the four gates.
Plus the one recovery policy: only the dead worker is replaced, the hop
it was running re-runs its requests one at a time when it had several
and fails when it had one, hops queued behind it in its socket are
resent whole, and no other worker's hop is touched.
"""

import asyncio
import os
import signal
import time
from dataclasses import replace

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
    summaries_digest,
)
from repro.service import stream as stream_mod
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
    )
    (slowed,) = report.summaries
    assert slowed.status == STATUS_COMPLETED and slowed.ok
    assert slowed.latency_s >= 0.040
    baseline = BatchService(workers=0).run_batch([req])
    assert slowed.digest == baseline.summaries[0].digest


def test_pooled_batch_of_poisoned_requests_all_fail():
    """Every request of a pooled batch runs in a pool worker, so a batch
    of nothing but poisoned requests fails each one there."""
    requests = [inject(r, "poison") for r in _requests(4)]
    report = BatchService(workers=2).run_batch(requests)
    assert all(s.status == STATUS_FAILED for s in report.summaries)


# -- containment in the gateway ----------------------------------------------


def test_poison_request_fails_cleanly_in_gateway():
    requests = _requests(4)
    requests[1] = inject(requests[1], "poison")
    report = serve(
        requests, [0.0] * 4, workers=2, backend="thread", policy="block",
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
    service = BatchService(workers=2)
    report = service.run_batch(requests)

    assert len(report.summaries) == len(requests)  # nothing lost
    assert not report.ok
    killed = report.summaries[4]
    assert killed.status == STATUS_FAILED and not killed.resolved
    assert "executor failure: BrokenProcessPool" in killed.error
    assert report.pool_replacements >= 1
    assert report.unresolved  # the killer, and any hop caught with it
    resolved = [s for s in report.summaries if s.resolved]
    assert resolved  # runs judged around the kill are still reported
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


# -- one recovery policy: re-run a coalesced hop alone, one replacement ------


def test_single_kill_request_batch_counts_its_replacement():
    """The batch's last (here: only) hop kills the pool.  The replacement
    is still made and counted before the batch returns."""
    (req,) = _requests(1, seed0=41)
    report = BatchService(workers=2).run_batch([inject(req, "kill")])
    (killed,) = report.summaries
    assert killed.status == STATUS_FAILED and not killed.resolved
    assert report.pool_replacements == 1


def test_mid_batch_kill_replaces_pool_exactly_once():
    """One kill in a 40-request batch: the batch returns instead of
    raising, and the killer kills two workers, once inside its coalesced
    hop and once re-run alone.  Each dead worker is replaced once, only
    the killer fails, and the resolved runs match a sequential
    re-run."""
    workers = 2
    requests = _requests(40, seed0=61)
    requests[17] = inject(requests[17], "kill")
    report = BatchService(workers=workers).run_batch(requests)
    assert len(report.summaries) == len(requests)
    assert report.summaries[17].status == STATUS_FAILED
    assert report.pool_replacements == 2
    assert len(report.unresolved) == 1
    resolved = [s for s in report.summaries if s.resolved]
    baseline = BatchService(workers=0).run_batch(
        [s.request for s in resolved]
    )
    assert baseline.ok
    assert baseline.batch_digest() == report.batch_digest()


def test_killer_in_a_coalesced_hop_fails_alone():
    """One worker, eight queued requests, one killer: the hop of eight
    breaks the pool, each request re-runs alone on the replacement, and
    only the killer fails, breaking a second pool.  Its seven batch-mates
    complete with a sequential run's digests."""
    requests = _requests(8, seed0=71)
    requests[3] = inject(requests[3], "kill")

    async def main():
        gateway = StreamGateway(workers=1, backend="process", policy="block")
        async with gateway:
            # The submit loop never yields, so all eight are queued before
            # the one dispatcher first runs.
            futures = [await gateway.submit(r) for r in requests]
            summaries = [await f for f in futures]
        return summaries, gateway.metrics

    summaries, metrics = asyncio.run(asyncio.wait_for(main(), timeout=120))
    assert [s.status for s in summaries] == (
        [STATUS_COMPLETED] * 3 + [STATUS_FAILED] + [STATUS_COMPLETED] * 4
    )
    assert metrics.pool_replacements == 2
    assert metrics.hops == 9  # the coalesced hop, then eight alone
    mates = summaries[:3] + summaries[4:]
    sequential = BatchService(workers=0).run_batch(
        [s.request for s in mates]
    )
    assert sequential.ok
    assert summaries_digest(mates) == sequential.batch_digest()


def test_idle_worker_death_is_replaced_at_submit():
    """A worker that dies while idle is replaced as soon as its socket
    closes, before anything is sent to it, so the next submits run on
    the replacement."""
    requests = _requests(6, seed0=81)

    async def main():
        gateway = StreamGateway(workers=1, backend="process", policy="block")
        async with gateway:
            first = await (await gateway.submit(requests[0]))
            (worker,) = gateway._workers
            os.kill(worker.process.pid, signal.SIGKILL)
            give_up = time.monotonic() + 30
            while (
                gateway.metrics.pool_replacements < 1
                and time.monotonic() < give_up
            ):
                await asyncio.sleep(0.01)
            assert gateway.metrics.pool_replacements == 1, (
                "the gateway never noticed its dead worker"
            )
            futures = [await gateway.submit(r) for r in requests[1:]]
            rest = [await f for f in futures]
        return first, rest, gateway.metrics.pool_replacements

    first, rest, replacements = asyncio.run(
        asyncio.wait_for(main(), timeout=120)
    )
    assert first.status == STATUS_COMPLETED
    assert [s.status for s in rest] == [STATUS_COMPLETED] * 5
    assert replacements == 1


# -- per-worker recovery: one socket per worker process ----------------------


async def _until(predicate, timeout=30.0):
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        await asyncio.sleep(0.005)


def _sequential_digests(requests):
    report = BatchService(workers=0).run_batch(requests)
    assert report.ok
    return [s.digest for s in report.summaries]


def test_kill_spares_the_hop_on_the_other_worker():
    """Two workers, a straggler and a killer dispatched together: each
    goes to its own worker, the kill replaces only the killer's, and the
    straggler completes with its sequential digest."""
    slow, killer = _requests(2, seed0=91)

    async def main():
        gateway = StreamGateway(workers=2, backend="process", policy="block")
        async with gateway:
            futures = [
                await gateway.submit(inject(slow, "slow:300")),
                await gateway.submit(inject(killer, "kill")),
            ]
            summaries = [await f for f in futures]
        return summaries, gateway.metrics

    (slowed, killed), metrics = asyncio.run(
        asyncio.wait_for(main(), timeout=120)
    )
    assert killed.status == STATUS_FAILED
    assert "executor failure: BrokenProcessPool" in killed.error
    assert slowed.status == STATUS_COMPLETED and slowed.ok
    assert [slowed.digest] == _sequential_digests([slow])
    assert metrics.failed == 1
    assert metrics.pool_replacements == 1
    assert metrics.hops == 2


def test_hop_queued_behind_a_killer_is_resent_whole(monkeypatch):
    """One worker, two hops in its socket: the first holds a straggler
    and a killer, the second three requests sent while the straggler
    runs.  The kill fails the first hop, which re-runs its two requests
    alone; the second was never started, so it is resent whole to the
    replacement: neither failed nor split."""
    hops = []
    real = stream_mod.encode_requests

    def counting(requests):
        hops.append(len(requests))
        return real(requests)

    monkeypatch.setattr(stream_mod, "encode_requests", counting)
    slow, killer, *behind = _requests(5, seed0=101)

    async def main():
        gateway = StreamGateway(workers=1, backend="process", policy="block")
        async with gateway:
            # No yield between the two submits: one hop of two.
            first = [
                await gateway.submit(inject(slow, "slow:300")),
                await gateway.submit(inject(killer, "kill")),
            ]
            await _until(lambda: gateway.metrics.hops == 1)
            second = [await gateway.submit(r) for r in behind]
            await _until(lambda: gateway.metrics.hops == 2)
            assert gateway.metrics.pool_replacements == 0  # still slow
            summaries = [await f for f in first + second]
        return summaries, gateway.metrics

    summaries, metrics = asyncio.run(asyncio.wait_for(main(), timeout=120))
    slowed, killed, *resent = summaries
    assert hops == [2, 3, 1, 1]
    assert killed.status == STATUS_FAILED
    assert slowed.status == STATUS_COMPLETED
    assert [s.status for s in resent] == [STATUS_COMPLETED] * 3
    assert [s.digest for s in resent] == _sequential_digests(behind)
    assert metrics.failed == 1
    assert metrics.pool_replacements == 2  # the hop of two, then alone


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("kill_one", [False, True])
def test_close_reaps_every_worker(kill_one):
    """After ``close()`` no worker process is left, replacements and
    the dead one included."""
    requests = _requests(4, seed0=111)

    async def main():
        gateway = StreamGateway(workers=2, backend="process", policy="block")
        pids = []
        async with gateway:
            pids += [w.process.pid for w in gateway._workers]
            if kill_one:
                os.kill(pids[0], signal.SIGKILL)
                await _until(lambda: gateway.metrics.pool_replacements == 1)
                pids += [w.process.pid for w in gateway._workers]
            futures = [await gateway.submit(r) for r in requests]
            summaries = [await f for f in futures]
        return pids, summaries

    pids, summaries = asyncio.run(asyncio.wait_for(main(), timeout=120))
    assert all(s.status == STATUS_COMPLETED for s in summaries)
    assert len(set(pids)) == (3 if kill_one else 2)
    assert [pid for pid in pids if _alive(pid)] == []


def test_envelope_larger_than_the_socket_buffer_does_not_stall():
    """A hop of 1 MiB waits in the socket of a worker busy with a
    straggler; meanwhile the other worker's hops still complete, so
    the write never blocked the event loop."""
    slow_a, slow_b, big, small = _requests(4, seed0=121)
    big = replace(big, tag="x" * (1 << 20))

    async def main():
        gateway = StreamGateway(workers=2, backend="process", policy="block")
        async with gateway:
            busy = await gateway.submit(inject(slow_a, "slow:600"))
            await _until(lambda: gateway.metrics.hops == 1)
            short = await gateway.submit(inject(slow_b, "slow:50"))
            await _until(lambda: gateway.metrics.hops == 2)
            # Both workers have one hop each: the tie goes to the first,
            # whose straggler keeps the envelope in its socket.
            stuck = await gateway.submit(big)
            await _until(lambda: gateway.metrics.hops == 3)
            quick = await gateway.submit(small)
            done, _ = await asyncio.wait(
                {quick, busy}, return_when=asyncio.FIRST_COMPLETED
            )
            assert done == {quick}, "the big envelope stalled the loop"
            summaries = [await f for f in (busy, short, stuck, quick)]
        return summaries

    summaries = asyncio.run(asyncio.wait_for(main(), timeout=120))
    assert all(s.status == STATUS_COMPLETED for s in summaries)
    assert [summaries[2].digest, summaries[3].digest] == (
        _sequential_digests([big, small])
    )


# -- CLI ----------------------------------------------------------------------


def test_chaos_cli_rejects_impossible_plan(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--requests", "3", "--kills", "2", "--poisons", "1"])
    assert exc.value.code == 2
    assert "at least" in capsys.readouterr().err
