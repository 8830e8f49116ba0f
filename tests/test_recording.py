"""Record/replay determinism: capture format, CRC framing, replay parity.

The ISSUE 6 tentpole's test spine: a hypothesis round-trip property
(capture a mixed-scenario stream run, replay it, byte-identical digests
and identical per-request status sequences) plus the error paths a
capture reader must not mis-parse — truncation, corruption, foreign
files, version drift.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RunRequest
from repro.scenarios import mixed_batch
from repro.scenarios.generators import recorded_arrivals
from repro.service import (
    BatchService,
    CaptureError,
    Recorder,
    load_capture,
    replay_capture,
    requests_from_scenarios,
    serve,
)
from repro.service.__main__ import main
from repro.service.recording import (
    CAPTURE_VERSION,
    CaptureWriter,
    request_from_doc,
    request_to_doc,
    summary_from_doc,
    summary_to_doc,
)

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=700):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine
    )


def _capture_stream(path, batch=4, seed0=700, arrivals=None):
    requests = _requests(batch, seed0=seed0)
    arrivals = arrivals if arrivals is not None else [0.0] * batch
    report = serve(
        requests,
        arrivals,
        workers=2,
        backend="thread",
        policy="block",
        warmup=False,
        record=str(path),
    )
    return requests, report


# -- round-trip determinism ---------------------------------------------------


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(batch=st.integers(min_value=1, max_value=5), seed0=st.integers(0, 99))
def test_capture_replay_roundtrip_property(tmp_path_factory, batch, seed0):
    """Capture a stream run, replay it: byte-identical digests and the
    same per-request status sequence, every time."""
    path = tmp_path_factory.mktemp("cap") / "trace.jsonl"
    requests, live = _capture_stream(path, batch=batch, seed0=seed0)
    assert live.ok, live.failures

    capture = load_capture(str(path))
    assert capture.requests == requests
    assert capture.capture_digest() == live.stream_digest()

    result = replay_capture(
        capture, workers=2, backend="thread", timescale=0.0, warmup=False
    )
    assert result.digests_match, (
        f"capture {result.capture_digest} != replay {result.replay_digest}"
    )
    assert result.statuses_match
    assert result.replayed_statuses == capture.statuses()


def test_capture_preserves_arrival_offsets(tmp_path):
    path = tmp_path / "trace.jsonl"
    _capture_stream(path, batch=3, arrivals=[0.0, 0.03, 0.06])
    capture = load_capture(str(path))
    offsets = capture.arrivals
    assert offsets[0] == 0.0
    assert offsets == sorted(offsets)
    # The recorded gaps reflect the replay clock, not completion order.
    assert offsets[2] >= 0.05
    normalized = recorded_arrivals(offsets)
    assert normalized[0] == 0.0
    assert normalized == sorted(normalized)
    assert recorded_arrivals(offsets, timescale=0.0) == [0.0] * 3


def test_batch_recording_tap(tmp_path):
    path = tmp_path / "batch.jsonl"
    requests = _requests(5)
    with Recorder(str(path), meta={"source": "batch"}) as recorder:
        report = recorder.record_batch(BatchService(workers=0), requests)
    assert report.ok
    capture = load_capture(str(path))
    assert capture.meta["source"] == "batch"
    assert len(capture.events) == len(requests)
    assert capture.arrivals == [0.0] * len(requests)
    assert capture.capture_digest() == report.batch_digest()
    assert capture.metrics is not None


def test_batch_capture_replays_without_shedding(tmp_path):
    """Regression: a batch capture records no gateway shape, and its
    replay used to fall back to a 64-slot queue under the reject policy,
    shedding requests the batch never shed (32 of these 100)."""
    path = tmp_path / "batch.jsonl"
    requests = requests_from_scenarios(
        mixed_batch(
            100, seed0=0,
            routing_sizes=(8,), sorting_sizes=(9,), multiplex_sizes=(8,),
        ),
        engine="fast",
    )
    with Recorder(str(path), meta={"source": "batch"}) as recorder:
        recorder.record_batch(BatchService(workers=0), requests)
    result = replay_capture(
        load_capture(str(path)), workers=2, backend="thread", warmup=False
    )
    assert result.stream_report.rejected == []
    assert result.digests_match
    assert result.statuses_match


# -- error paths --------------------------------------------------------------


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_truncated_capture_rejected(tmp_path):
    path = tmp_path / "trace.jsonl"
    _capture_stream(path, batch=2)
    whole = path.read_text(encoding="utf-8")
    torn = tmp_path / "torn.jsonl"
    # Cut mid-record: a crash tore the final line.
    torn.write_text(whole[: len(whole) - 25], encoding="utf-8")
    with pytest.raises(CaptureError, match="truncated|crc"):
        load_capture(str(torn))


def test_corrupt_record_rejected(tmp_path):
    path = tmp_path / "trace.jsonl"
    _capture_stream(path, batch=2)
    lines = path.read_text(encoding="utf-8").splitlines()
    # Flip a field inside the last summary record's payload; the stored
    # CRC no longer matches the canonical encoding.
    idx = max(
        i for i, l in enumerate(lines) if json.loads(l)["kind"] == "sum"
    )
    doc = json.loads(lines[idx])
    doc["summary"]["rounds"] += 1
    lines[idx] = json.dumps(doc, sort_keys=True)
    bad = tmp_path / "bad.jsonl"
    _write_lines(bad, lines)
    with pytest.raises(CaptureError, match="crc mismatch"):
        load_capture(str(bad))


def test_foreign_and_versioned_headers_rejected(tmp_path):
    import zlib

    def framed(doc):
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc = dict(doc, crc=zlib.crc32(body.encode()))
        return json.dumps(doc, sort_keys=True)

    not_capture = tmp_path / "notes.jsonl"
    _write_lines(not_capture, [framed({"kind": "note", "text": "hi"})])
    with pytest.raises(CaptureError, match="header"):
        load_capture(str(not_capture))

    future = tmp_path / "future.jsonl"
    _write_lines(
        future,
        [
            framed(
                {
                    "kind": "header",
                    "format": "repro-capture",
                    "version": CAPTURE_VERSION + 1,
                    "meta": {},
                }
            )
        ],
    )
    with pytest.raises(CaptureError, match="version"):
        load_capture(str(future))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CaptureError, match="empty"):
        load_capture(str(empty))

    missing = tmp_path / "missing.jsonl"
    with pytest.raises(CaptureError, match="cannot open"):
        load_capture(str(missing))


def test_summary_for_unrecorded_seq_rejected(tmp_path):
    path = tmp_path / "trace.jsonl"
    requests, live = _capture_stream(path, batch=1)
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = next(
        json.loads(l) for l in lines if json.loads(l)["kind"] == "sum"
    )
    doc.pop("crc")
    doc["seq"] = 999

    import zlib

    doc["crc"] = zlib.crc32(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    )
    lines.append(json.dumps(doc, sort_keys=True))
    bad = tmp_path / "orphan.jsonl"
    _write_lines(bad, lines)
    with pytest.raises(CaptureError, match="unrecorded seq"):
        load_capture(str(bad))


def test_closed_writer_refuses_records(tmp_path):
    writer = CaptureWriter(str(tmp_path / "w.jsonl"))
    writer.close()
    with pytest.raises(CaptureError, match="closed"):
        writer.write_metrics({})


# -- envelope docs ------------------------------------------------------------


def test_envelope_docs_roundtrip_and_reject_unknown_fields(tmp_path):
    req = RunRequest(
        kind="routing", family="balanced", n=16, seed=3, engine="fast",
        tag="chaos:slow:5", deadline_ms=125.0,
    )
    assert request_from_doc(request_to_doc(req)) == req
    with pytest.raises(CaptureError, match="unknown fields"):
        request_from_doc({**request_to_doc(req), "priority": 9})

    path = tmp_path / "trace.jsonl"
    _, live = _capture_stream(path, batch=1)
    summary = live.summaries[0]
    assert summary_from_doc(summary_to_doc(summary)) == summary
    with pytest.raises(CaptureError, match="unknown fields"):
        summary_from_doc({**summary_to_doc(summary), "extra": 1})
    with pytest.raises(CaptureError, match="request"):
        summary_from_doc({"ok": True})


# -- CLI ----------------------------------------------------------------------


def test_recording_cli_info_and_replay(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    _capture_stream(path, batch=3)
    assert main(["capture", "info", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["requests"] == 3
    assert doc["resolved"] == 3

    code = main(
        ["capture", "replay", str(path), "--backend", "thread",
         "--timescale", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "match" in out


def test_recording_cli_rejects_corrupt_capture(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n", encoding="utf-8")
    assert main(["capture", "info", str(bad)]) == 2
    assert "capture error" in capsys.readouterr().err
