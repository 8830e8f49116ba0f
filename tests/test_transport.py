"""Zero-copy transport: envelope codec properties, shm arena, warm plans.

A hypothesis property suite over the columnar envelope round trip (chaos
tags, unset deadlines, failed and digestless summaries included), digest
parity between the shm transport, its forced pickle fallback and the
in-process path on a 256-instance mixed batch, the slot-arena lifecycle,
the PlanCache snapshot pickled-once regression, and capture parity
across transports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunRequest, RunSummary
from repro.core.engine import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
)
from repro.scenarios import mixed_batch
from repro.service import (
    BatchService,
    execute_request,
    inject,
    requests_from_scenarios,
)
from repro.service import stream as stream_mod
from repro.service import transport as transport_mod
from repro.service.recording import Recorder, load_capture
from repro.service.transport import (
    PickleTransport,
    ShmArena,
    decode_requests,
    decode_summaries,
    encode_requests,
    encode_summaries,
    make_transport,
)

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=400):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine
    )


def _refuse_shared_memory(*args, **kwargs):
    """Stand-in arena constructor for a host that cannot create shm."""
    raise OSError("shared memory disabled for this test")


# -- codec property suite -----------------------------------------------------

_I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_F64 = st.floats(allow_nan=False, width=64)
_TEXT = st.text(max_size=16)
_OPT_TEXT = st.one_of(st.none(), _TEXT)
_TAG = st.one_of(
    _TEXT,
    st.sampled_from(["chaos:kill", "chaos:poison", "chaos:slow:25"]),
)
_STATUS = st.one_of(
    _TEXT,
    st.sampled_from([
        STATUS_COMPLETED, STATUS_FAILED, STATUS_REJECTED, STATUS_CANCELLED,
    ]),
)

_REQUEST = st.builds(
    RunRequest,
    kind=_TEXT,
    family=_TEXT,
    n=_I64,
    seed=_I64,
    algorithm=_OPT_TEXT,
    engine=_OPT_TEXT,
    tag=_TAG,
    deadline_ms=st.one_of(st.none(), _F64),
)


def _summary(request, **kw):
    return st.builds(
        RunSummary,
        request=st.just(request),
        ok=st.booleans(),
        engine=_TEXT,
        rounds=_I64,
        total_packets=_I64,
        total_words=_I64,
        max_edge_words=_I64,
        digest=_TEXT,  # "" = never resolved, e.g. STATUS_FAILED rows
        wall_s=_F64,
        shared_cache_hits=_I64,
        shared_cache_misses=_I64,
        error=_TEXT,
        status=_STATUS,
        queue_s=_F64,
        latency_s=_F64,
        **kw,
    )


@settings(max_examples=200)
@given(st.lists(_REQUEST, min_size=1, max_size=20))
def test_request_envelope_round_trips(requests):
    assert decode_requests(encode_requests(requests)) == requests


@settings(max_examples=200)
@given(
    st.lists(_REQUEST, min_size=1, max_size=12).flatmap(
        lambda reqs: st.tuples(
            st.just(reqs),
            st.tuples(*[_summary(r) for r in reqs]),
        )
    )
)
def test_summary_envelope_round_trips(batch):
    requests, summaries = batch
    buf = encode_summaries(list(summaries))
    assert decode_summaries(buf, requests) == list(summaries)


def test_codec_rejects_malformed_envelopes():
    with pytest.raises(ValueError, match="empty"):
        encode_requests([])
    with pytest.raises(ValueError, match="empty"):
        encode_summaries([])
    requests = _requests(2)
    buf = encode_requests(requests)
    with pytest.raises(ValueError, match="magic"):
        decode_requests(b"XXXX" + bytes(buf[4:]))
    with pytest.raises(ValueError, match="kind"):
        decode_summaries(buf, requests)
    summaries = [execute_request(r) for r in requests]
    with pytest.raises(ValueError, match="2 rows"):
        decode_summaries(encode_summaries(summaries), requests[:1])


def test_failed_digestless_summaries_round_trip():
    requests = _requests(3)
    summaries = [
        RunSummary(
            request=r,
            ok=False,
            status=STATUS_FAILED,
            error="worker pool died mid-batch: BrokenProcessPool: dead",
        )
        for r in requests
    ]
    decoded = decode_summaries(encode_summaries(summaries), requests)
    assert decoded == summaries
    assert all(not s.resolved for s in decoded)


# -- transport digest parity (the acceptance batch) ---------------------------


def test_shm_pickle_and_inprocess_digests_match_on_256_mixed(monkeypatch):
    """The headline parity gate: the same 256-instance mixed batch must
    produce byte-identical digests through the shm transport, through the
    pickle fallback the pool takes when shared memory cannot be created,
    and in-process."""
    requests = _requests(256, seed0=0)
    sequential = BatchService(workers=0).run_batch(requests)
    assert sequential.ok

    reports = {}
    for transport in ("shm", "pickle"):
        with monkeypatch.context() as m:
            if transport == "pickle":
                m.setattr(transport_mod, "ShmArena", _refuse_shared_memory)
            report = BatchService(workers=2, warmup=False).run_batch(requests)
        assert report.ok, report.failures[:3]
        assert report.transport == transport
        reports[transport] = report
    assert reports["shm"].fallback_reason == ""
    assert "shared memory unavailable" in reports["pickle"].fallback_reason

    assert (
        reports["shm"].batch_digest()
        == reports["pickle"].batch_digest()
        == sequential.batch_digest()
    )
    seq_digests = [s.digest for s in sequential.summaries]
    for report in reports.values():
        assert [s.digest for s in report.summaries] == seq_digests


# -- shm arena lifecycle ------------------------------------------------------


def test_arena_slot_lifecycle_and_leak_accounting():
    before = set(ShmArena.live_segments())
    arena = ShmArena(slots=2, slot_bytes=4096)
    try:
        created = set(ShmArena.live_segments()) - before
        assert len(created) == 2

        a = arena.acquire(1024)
        b = arena.acquire(1024)
        assert a is not None and b is not None
        assert arena.acquire(1024) is None  # exhausted -> caller falls back
        arena.release(a)
        c = arena.acquire(1024)
        assert c is not None  # released slots are reusable
        arena.release(b)
        arena.release(c)
        arena.release(c)  # release is idempotent

        assert arena.acquire(len(a.shm.buf) + 1) is None  # oversized payload
    finally:
        arena.close()
    assert set(ShmArena.live_segments()) == before
    arena.close()  # close is idempotent


def test_make_transport_names_and_validation(monkeypatch):
    shm = make_transport(slots=2, slot_bytes=4096)
    try:
        assert shm.name in ("shm", "pickle")  # pickle iff shm unavailable
        if shm.name == "pickle":
            assert "shared memory unavailable" in shm.fallback_reason
    finally:
        shm.close()
    monkeypatch.setattr(transport_mod, "ShmArena", _refuse_shared_memory)
    pkl = make_transport(slots=2, slot_bytes=4096)
    assert isinstance(pkl, PickleTransport)
    assert "shared memory disabled" in pkl.fallback_reason
    pkl.close()


# -- PlanCache snapshot pickled once (satellite regression) -------------------


def test_plan_snapshot_pickled_once_across_pool_respawns(monkeypatch):
    """Regression: the warm-plan snapshot used to be re-pickled for every
    pool (re)build; two mid-batch worker kills now reuse the one blob."""
    calls = []
    real = stream_mod._pickle_plans

    def counting(plans):
        calls.append(len(plans))
        return real(plans)

    monkeypatch.setattr(stream_mod, "_pickle_plans", counting)
    requests = _requests(10, seed0=70)
    requests[1] = inject(requests[1], "kill")
    requests[9] = inject(requests[9], "kill")
    report = BatchService(workers=2, warmup=False, chunk=2).run_batch(
        requests
    )
    assert report.pool_replacements >= 2
    assert len(calls) == 1, (
        f"plan snapshot pickled {len(calls)} times for "
        f"{report.pool_replacements} pool replacements"
    )


# -- capture parity across transports -----------------------------------------


def test_captures_identical_across_transports(tmp_path, monkeypatch):
    """Captures of the same batch in-process, over shm and over the
    forced pickle fallback are identical."""
    requests = _requests(8, seed0=55)
    captures = {}
    for transport, workers in (("", 0), ("shm", 2), ("pickle", 2)):
        path = str(tmp_path / f"capture-{transport or 'inprocess'}.jsonl")
        service = BatchService(workers=workers, warmup=False)
        with monkeypatch.context() as m:
            if transport == "pickle":
                m.setattr(transport_mod, "ShmArena", _refuse_shared_memory)
            with Recorder(path, meta={"transport": transport}) as recorder:
                report = recorder.record_batch(service, requests)
        assert report.ok
        assert report.transport == transport
        assert bool(report.fallback_reason) == (transport == "pickle")
        captures[transport] = load_capture(path)

    seq, shm, pkl = captures[""], captures["shm"], captures["pickle"]
    assert seq.requests == shm.requests == pkl.requests == requests
    assert seq.statuses() == shm.statuses() == pkl.statuses()
    assert seq.capture_digest() == shm.capture_digest() == pkl.capture_digest()
    assert (
        [s.digest for s in seq.resolved_summaries()]
        == [s.digest for s in shm.resolved_summaries()]
        == [s.digest for s in pkl.resolved_summaries()]
    )
