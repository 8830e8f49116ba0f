"""Execution service layer: offline batches and online streams.

Two front ends share the same envelopes, judgement and digests:

* :mod:`repro.service.batch` — *offline*: callers enqueue
  :class:`~repro.core.engine.RunRequest` envelopes (any registered
  routing/sorting/extension algorithm x workload x engine); the
  :class:`BatchService` runs them in-process (the sequential baseline)
  or, after a structural prefetch pass that warms worker plan caches,
  on a process-backed stream gateway, and returns judged
  :class:`~repro.core.engine.RunSummary` records in request order with
  batch aggregates.
* :mod:`repro.service.stream` — *online*: the :class:`StreamGateway`
  accepts a continuous request stream behind a bounded queue with
  explicit backpressure (reject or block), enforces per-request
  deadlines, and records tail-latency histograms; judged on sustained
  throughput and p50/p95/p99, not batch wall-time.  It is the one
  owner of a worker pool: its build, warm-up, envelope hop and recovery
  from pool death serve both front ends.

Two operational companions ride on the same envelopes:

* :mod:`repro.service.recording` — append-only versioned traffic
  captures (every request/summary plus arrival offsets) and
  deterministic replay through a live gateway: trace-driven load tests,
  forensics.
* :mod:`repro.service.chaos` — fault injection (worker kills, poison
  requests, stragglers) against live gateways, gated on recovery,
  digest correctness, and bounded p99.
* :mod:`repro.service.transport` — the columnar envelope codec: one
  request envelope and one summary envelope per process-pool hop, shipped
  as plain bytes.
* :mod:`repro.service.net` — the networked front end: a versioned
  length-prefixed binary protocol over TCP whose payloads are the
  transport's columnar envelopes; asyncio server fronting the stream
  gateway, blocking :class:`Client` and in-memory :class:`MockClient`.

Command line (one parser, :mod:`repro.service.__main__`)::

    python -m repro.service batch --requests 256 --workers 4 --engine fast
    python -m repro.service stream --rate 8 --duration 2 --workers 2
    python -m repro.service chaos --requests 24 --kills 1 --poisons 2
    python -m repro.service capture replay capture.jsonl
    python -m repro.service serve --port 7707 --workers 4

See DESIGN.md sections 6 (batch), 7 (stream), 9 (recording/chaos) and
12 (network service).
"""

from .batch import (
    CHAOS_TAG_PREFIX,
    BatchReport,
    BatchService,
    execute_request,
    requests_from_scenarios,
    structural_warmup,
    summaries_digest,
)

#: Submodule names re-exported lazily (PEP 562), for import cost: a
#: caller that needs only the batch front end does not load the gateway,
#: capture, chaos and network modules.  A fresh interpreter running
#: ``import repro.service`` took 159-169 ms with lazy exports and
#: 205-211 ms with every submodule imported (median of 9 runs, measured
#: twice, 2-vCPU host, Python 3.11.7).
_STREAM_EXPORTS = (
    "STATUS_CANCELLED",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_REJECTED",
    "StreamGateway",
    "StreamMetrics",
    "StreamReport",
    "replay",
    "serve",
)

_RECORDING_EXPORTS = (
    "Capture",
    "CaptureError",
    "CaptureWriter",
    "Recorder",
    "load_capture",
    "replay_capture",
)

_CHAOS_EXPORTS = (
    "ChaosFault",
    "ChaosPlan",
    "ChaosReport",
    "apply_fault",
    "build_chaos_plan",
    "inject",
    "run_chaos",
)

_NET_EXPORTS = (
    "Client",
    "CommonClient",
    "MockClient",
    "NetServer",
    "ServerThread",
)

_TRANSPORT_EXPORTS = (
    "decode_requests",
    "decode_summaries",
    "encode_requests",
    "encode_summaries",
)


def __getattr__(name: str):
    if name in _STREAM_EXPORTS:
        from . import stream

        return getattr(stream, name)
    if name in _RECORDING_EXPORTS:
        from . import recording

        return getattr(recording, name)
    if name in _CHAOS_EXPORTS:
        from . import chaos

        return getattr(chaos, name)
    if name in _TRANSPORT_EXPORTS:
        from . import transport

        return getattr(transport, name)
    if name in _NET_EXPORTS:
        from . import net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CHAOS_TAG_PREFIX",
    "BatchReport",
    "BatchService",
    "execute_request",
    "requests_from_scenarios",
    "structural_warmup",
    "summaries_digest",
    *_STREAM_EXPORTS,
    *_RECORDING_EXPORTS,
    *_CHAOS_EXPORTS,
    *_TRANSPORT_EXPORTS,
    *_NET_EXPORTS,
]
