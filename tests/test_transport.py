"""Envelope transport: codec properties, pool respawns, capture parity.

A hypothesis property suite over the columnar envelope round trip (chaos
tags, unset deadlines, failed and digestless summaries included), a
batch that outlives two pool deaths, and capture parity between the
in-process path and the pooled envelope hop.  Pooled == sequential
digests on a 256-instance mixed batch are checked by
``tests/test_service.py::test_service_vs_direct_differential_256``.
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
from repro.service.recording import Recorder, load_capture
from repro.service.transport import (
    decode_requests,
    decode_summaries,
    encode_requests,
    encode_summaries,
)

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=400):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine
    )


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


# -- pool respawns ------------------------------------------------------------


def test_batch_outlives_two_pool_respawns():
    """Two mid-batch worker kills: the batch returns, and each dead pool
    is replaced."""
    requests = _requests(10, seed0=70)
    requests[1] = inject(requests[1], "kill")
    requests[9] = inject(requests[9], "kill")
    report = BatchService(workers=2).run_batch(requests)
    assert report.pool_replacements >= 2


# -- capture parity: in-process vs pooled ------------------------------------


def test_captures_identical_across_transports(tmp_path):
    """Captures of the same batch in-process and through the pool's
    envelope hop are identical."""
    requests = _requests(8, seed0=55)
    captures = {}
    for workers in (0, 2):
        path = str(tmp_path / f"capture-{workers}.jsonl")
        service = BatchService(workers=workers)
        with Recorder(path, meta={"workers": workers}) as recorder:
            report = recorder.record_batch(service, requests)
        assert report.ok
        captures[workers] = load_capture(path)

    seq, pooled = captures[0], captures[2]
    assert seq.requests == pooled.requests == requests
    assert seq.statuses() == pooled.statuses()
    assert seq.capture_digest() == pooled.capture_digest()
    assert (
        [s.digest for s in seq.resolved_summaries()]
        == [s.digest for s in pooled.resolved_summaries()]
    )
