"""Append-only versioned traffic capture and deterministic replay.

Production services answer incidents with traces, not anecdotes: this
module records every :class:`~repro.core.engine.RunRequest` /
:class:`~repro.core.engine.RunSummary` envelope that crosses the batch
service or the streaming gateway — plus the observed arrival offsets —
into a versioned, append-only capture file, and replays a capture
deterministically afterwards (same arrivals, same engine choices,
byte-identical digests).  Modeled on the recording/replaying-client
pattern from acconeer's exploration tool: versioned capture files
replayed through the live service.

Capture format (``repro-capture`` v1)
-------------------------------------

One JSON object per line (JSONL), so a capture is appendable with O(1)
cost per event and remains readable after a crash truncates the tail:

* line 1 — ``{"kind": "header", "format": "repro-capture", "version": 1,
  "meta": {...}, "crc": ...}``
* ``{"kind": "req", "seq": N, "arrival_s": T, "request": {...}, "crc"}``
  — one per submission, ``arrival_s`` is the offset from the first
  recorded event.
* ``{"kind": "sum", "seq": N, "summary": {...}, "crc"}`` — one per
  resolution, linked to its request by ``seq`` (summaries may arrive out
  of submission order; the link is explicit, not positional).
* ``{"kind": "metrics", "metrics": {...}, "crc"}`` — optional rollup.

Every record carries a CRC32 over its canonical JSON encoding (sorted
keys, minimal separators, ``crc`` field excluded), so corruption is
detected per record and a torn final line is reported as truncation
rather than silently dropped.

Replay
------

:func:`replay_capture` re-feeds the recorded requests through a live
:func:`~repro.service.stream.serve` run at the recorded arrival offsets
and compares digests.  A stream capture replays under the gateway shape
its header recorded; a batch capture names none (a batch never sheds
load), so it replays under the ``block`` policy with a queue that holds
the whole capture.

Command line::

    python -m repro.service capture info capture.jsonl
    python -m repro.service capture replay capture.jsonl --workers 2

See DESIGN.md section 9 for the semantics.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from ..core.engine import RunRequest, RunSummary
from ..scenarios.generators import recorded_arrivals
from .batch import summaries_digest

__all__ = [
    "CAPTURE_FORMAT",
    "CAPTURE_VERSION",
    "Capture",
    "CaptureError",
    "CaptureWriter",
    "Recorder",
    "load_capture",
    "replay_capture",
]

CAPTURE_FORMAT = "repro-capture"
CAPTURE_VERSION = 1


class CaptureError(RuntimeError):
    """A capture file is corrupt, truncated, or from an unknown format."""


# -- envelope (de)serialization ----------------------------------------------


def request_to_doc(req: RunRequest) -> Dict[str, Any]:
    """JSON-ready form of a request envelope (field-complete)."""
    return asdict(req)


def request_from_doc(doc: Dict[str, Any]) -> RunRequest:
    """Rebuild a request envelope; unknown fields are a format error."""
    known = {f.name for f in fields(RunRequest)}
    extra = set(doc) - known
    if extra:
        raise CaptureError(
            f"request record carries unknown fields {sorted(extra)}"
        )
    try:
        return RunRequest(**doc)
    except TypeError as exc:
        raise CaptureError(f"malformed request record: {exc}") from None


def summary_to_doc(summary: RunSummary) -> Dict[str, Any]:
    """JSON-ready form of a summary envelope (request nested verbatim)."""
    return asdict(summary)


def summary_from_doc(doc: Dict[str, Any]) -> RunSummary:
    """Rebuild a summary envelope from :func:`summary_to_doc` output."""
    if "request" not in doc:
        raise CaptureError("summary record lacks its request envelope")
    body = dict(doc)
    req = request_from_doc(body.pop("request"))
    known = {f.name for f in fields(RunSummary)} - {"request"}
    extra = set(body) - known
    if extra:
        raise CaptureError(
            f"summary record carries unknown fields {sorted(extra)}"
        )
    try:
        return RunSummary(request=req, **body)
    except TypeError as exc:
        raise CaptureError(f"malformed summary record: {exc}") from None


# -- framing ------------------------------------------------------------------


def _canonical(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _stamp_crc(doc: Dict[str, Any]) -> Dict[str, Any]:
    doc = dict(doc)
    doc.pop("crc", None)
    doc["crc"] = zlib.crc32(_canonical(doc))
    return doc


def _check_crc(doc: Dict[str, Any], lineno: int) -> None:
    body = dict(doc)
    crc = body.pop("crc", None)
    if crc is None:
        raise CaptureError(f"line {lineno}: record has no crc field")
    if zlib.crc32(_canonical(body)) != crc:
        raise CaptureError(
            f"line {lineno}: crc mismatch (corrupt or hand-edited record)"
        )


class CaptureWriter:
    """Append-only writer for one capture file.

    Creates the file and writes the header eagerly, then appends one
    framed record per event, flushing after each — a crash loses at most
    the torn final line, which :func:`load_capture` reports as
    truncation instead of mis-parsing.
    """

    def __init__(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self.path = path
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8")
        self._write(
            {
                "kind": "header",
                "format": CAPTURE_FORMAT,
                "version": CAPTURE_VERSION,
                "meta": meta or {},
            }
        )

    def _write(self, doc: Dict[str, Any]) -> None:
        if self._fh is None:
            raise CaptureError(f"capture {self.path} is already closed")
        self._fh.write(json.dumps(_stamp_crc(doc), sort_keys=True) + "\n")
        self._fh.flush()

    def write_request(
        self, seq: int, arrival_s: float, request: RunRequest
    ) -> None:
        self._write(
            {
                "kind": "req",
                "seq": seq,
                "arrival_s": round(float(arrival_s), 9),
                "request": request_to_doc(request),
            }
        )

    def write_summary(self, seq: int, summary: RunSummary) -> None:
        self._write(
            {"kind": "sum", "seq": seq, "summary": summary_to_doc(summary)}
        )

    def write_metrics(self, metrics: Dict[str, Any]) -> None:
        self._write({"kind": "metrics", "metrics": metrics})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- reading ------------------------------------------------------------------


@dataclass
class Capture:
    """A fully parsed, CRC-verified capture."""

    version: int
    meta: Dict[str, Any]
    #: ``(seq, arrival_s, request)`` in recorded submission order.
    events: List[Tuple[int, float, RunRequest]]
    #: resolved summaries keyed by their request's ``seq``.
    summaries: Dict[int, RunSummary] = field(default_factory=dict)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def requests(self) -> List[RunRequest]:
        return [req for _, _, req in self.events]

    @property
    def arrivals(self) -> List[float]:
        return [arrival for _, arrival, _ in self.events]

    def statuses(self) -> List[str]:
        """Per-request status sequence in submission order (``""`` if the
        capture ended before the request resolved)."""
        return [
            self.summaries[seq].status if seq in self.summaries else ""
            for seq, _, _ in self.events
        ]

    def resolved_summaries(self) -> List[RunSummary]:
        """Recorded summaries that executed to a judged end, in seq order."""
        return [
            self.summaries[seq]
            for seq, _, _ in self.events
            if seq in self.summaries and self.summaries[seq].resolved
        ]

    def capture_digest(self) -> str:
        """Order-independent digest over the resolved recorded runs —
        directly comparable to a replay's stream/batch digest."""
        return summaries_digest(self.resolved_summaries())


def load_capture(path: str) -> Capture:
    """Parse and verify a capture file.

    Raises :class:`CaptureError` on a missing/foreign header, a version
    this reader does not speak, any per-record CRC mismatch, an unparsable
    (torn) line, or a summary that references an unrecorded request.
    """
    events: List[Tuple[int, float, RunRequest]] = []
    summaries: Dict[int, RunSummary] = {}
    metrics: Optional[Dict[str, Any]] = None
    header: Optional[Dict[str, Any]] = None
    seen_seqs: set = set()
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CaptureError(f"cannot open capture {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                doc = json.loads(stripped)
            except json.JSONDecodeError:
                raise CaptureError(
                    f"line {lineno}: unparsable record (truncated capture "
                    f"or non-capture file)"
                ) from None
            if not isinstance(doc, dict):
                raise CaptureError(f"line {lineno}: record is not an object")
            _check_crc(doc, lineno)
            kind = doc.get("kind")
            if lineno == 1:
                if kind != "header":
                    raise CaptureError(
                        "capture does not start with a header record"
                    )
                if doc.get("format") != CAPTURE_FORMAT:
                    raise CaptureError(
                        f"not a {CAPTURE_FORMAT} file "
                        f"(format={doc.get('format')!r})"
                    )
                if doc.get("version") != CAPTURE_VERSION:
                    raise CaptureError(
                        f"capture version {doc.get('version')!r} is not "
                        f"supported (this reader speaks "
                        f"v{CAPTURE_VERSION})"
                    )
                header = doc
            elif kind == "req":
                seq = int(doc["seq"])
                if seq in seen_seqs:
                    raise CaptureError(f"line {lineno}: duplicate seq {seq}")
                seen_seqs.add(seq)
                events.append(
                    (
                        seq,
                        float(doc["arrival_s"]),
                        request_from_doc(doc["request"]),
                    )
                )
            elif kind == "sum":
                seq = int(doc["seq"])
                if seq not in seen_seqs:
                    raise CaptureError(
                        f"line {lineno}: summary for unrecorded seq {seq}"
                    )
                summaries[seq] = summary_from_doc(doc["summary"])
            elif kind == "metrics":
                metrics = doc.get("metrics")
            else:
                raise CaptureError(
                    f"line {lineno}: unknown record kind {kind!r}"
                )
    if header is None:
        raise CaptureError(f"capture {path} is empty")
    return Capture(
        version=int(header["version"]),
        meta=dict(header.get("meta") or {}),
        events=events,
        summaries=summaries,
        metrics=metrics,
    )


# -- recording taps -----------------------------------------------------------


class Recorder:
    """Event tap: assigns seqs, stamps arrival offsets, frames records.

    One recorder per capture file.  Attach it to a live
    :class:`~repro.service.stream.StreamGateway` with :meth:`attach`
    (submissions and resolutions are recorded transparently) or wrap a
    batch service with :meth:`record_batch`.
    """

    def __init__(
        self, path: str, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self._writer = CaptureWriter(path, meta=meta)
        self._next_seq = 0
        self._t0: Optional[float] = None

    @property
    def path(self) -> str:
        return self._writer.path

    def _offset(self) -> float:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    def record_request(
        self, request: RunRequest, arrival_s: Optional[float] = None
    ) -> int:
        """Record one submission; returns the seq linking its summary."""
        seq = self._next_seq
        self._next_seq += 1
        offset = self._offset() if arrival_s is None else float(arrival_s)
        self._writer.write_request(seq, offset, request)
        return seq

    def record_summary(self, seq: int, summary: RunSummary) -> None:
        self._writer.write_summary(seq, summary)

    def record_metrics(self, metrics: Any) -> None:
        doc = metrics.to_dict() if hasattr(metrics, "to_dict") else metrics
        self._writer.write_metrics(doc)

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- taps ----------------------------------------------------------------

    def attach(self, gateway: Any) -> "_RecordingGateway":
        """Wrap a stream gateway: every ``submit`` records the request at
        its observed arrival offset, every resolution its summary."""
        return _RecordingGateway(gateway, self)

    def record_batch(
        self, service: Any, requests: Sequence[RunRequest]
    ) -> Any:
        """Run a batch through ``service`` with every envelope recorded.

        Batch arrivals are all offset 0 — the batch regime has no arrival
        clock; replaying such a capture through the stream gateway is the
        saturated-arrival case.  Returns the service's ``BatchReport``.
        """
        seqs = [self.record_request(req, arrival_s=0.0) for req in requests]
        report = service.run_batch(requests)
        for seq, summary in zip(seqs, report.summaries):
            self.record_summary(seq, summary)
        self.record_metrics(report.to_dict())
        return report


class _RecordingGateway:
    """Transparent ``submit`` proxy over a live stream gateway."""

    def __init__(self, gateway: Any, recorder: Recorder) -> None:
        self._gateway = gateway
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._gateway, name)

    async def submit(self, request: RunRequest) -> Any:
        seq = self._recorder.record_request(request)
        future = await self._gateway.submit(request)
        future.add_done_callback(
            lambda f: (
                self._recorder.record_summary(seq, f.result())
                if not f.cancelled() and f.exception() is None
                else None
            )
        )
        return future


# -- replay -------------------------------------------------------------------


@dataclass
class ReplayReport:
    """Outcome of re-feeding a capture through a live gateway."""

    capture_digest: str
    replay_digest: str
    recorded_statuses: List[str]
    replayed_statuses: List[str]
    stream_report: Any

    @property
    def digests_match(self) -> bool:
        return self.capture_digest == self.replay_digest

    @property
    def statuses_match(self) -> bool:
        return self.recorded_statuses == self.replayed_statuses

    @property
    def ok(self) -> bool:
        return self.digests_match

    def to_dict(self) -> Dict[str, Any]:
        return {
            "capture_digest": self.capture_digest,
            "replay_digest": self.replay_digest,
            "digests_match": self.digests_match,
            "statuses_match": self.statuses_match,
            "stream": self.stream_report.to_dict(),
        }


def replay_capture(
    capture: Capture,
    *,
    workers: int = 2,
    backend: str = "process",
    timescale: float = 1.0,
) -> ReplayReport:
    """Re-feed a capture through a live stream gateway deterministically.

    The recorded requests are submitted at their recorded arrival offsets
    (scaled by ``timescale``; ``0`` collapses the timeline into a
    saturated replay) with their recorded engine choices.  The gateway
    takes its shape from the capture's header; a header that records
    none (a batch capture) replays under ``block`` with room for every
    request, so the replay sheds nothing the recording did not.  The
    report compares the digest over the replay's completed runs against
    the capture's own digest over resolved recorded runs — byte equality
    is the determinism gate.
    """
    from .stream import serve

    meta = capture.meta
    report = serve(
        capture.requests,
        recorded_arrivals(capture.arrivals, timescale),
        workers=workers,
        engine=str(meta.get("engine", "fast")),
        backend=backend,
        queue_cap=int(meta.get("queue_cap", max(1, len(capture.requests)))),
        policy=str(meta.get("policy", "block")),
        deadline_ms=None,  # deadlines depend on wall clock, not the trace
    )
    return ReplayReport(
        capture_digest=capture.capture_digest(),
        replay_digest=report.stream_digest(),
        recorded_statuses=capture.statuses(),
        replayed_statuses=[s.status for s in report.summaries],
        stream_report=report,
    )
