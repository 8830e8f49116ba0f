"""Helpers shared by the benchmark workloads: names, seeds, statistics,
the span recorder, the output checks and the result line.

Nothing here imports :mod:`repro` at module level, so the helpers (and
their tests) load even where the package is missing; :func:`run.main`
calls :func:`require_source` first and fails cleanly when it is.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("lenzen-large", "rpc-mixed", "rpc-small-burst")

#: End-to-end metrics, reported with tracing off by every workload.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p95": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics, reported by the traced run of every workload.  A
#: layer a workload never crosses reports 0: no time is spent there.
LAYER_METRICS: Dict[str, str] = {
    "scenarios.build_ms": "ms",
    "engine.run_ms": "ms",
    "engine.us_per_word": "us",
    "engine.rounds": "count",
    "engine.packets": "count",
    "engine.words": "count",
    "engine.max_edge_words": "count",
    "judge.ms": "ms",
    "plan_cache.hit_ratio": "frac",
    "plan_cache.misses": "count",
    "plan_cache.size": "count",
    "shared_cache.hit_ratio": "frac",
    "transport.encode_requests_us": "us",
    "transport.decode_requests_us": "us",
    "transport.encode_summaries_us": "us",
    "transport.decode_summaries_us": "us",
    "transport.request_bytes": "B",
    "transport.summary_bytes": "B",
    "framing.encode_us": "us",
    "framing.decode_us": "us",
    "client.submit_us": "us",
    "client.collect_ms": "ms",
    "net.wire_ms": "ms",
    "net.bytes_per_req": "B",
    "gateway.queue_ms.p50": "ms",
    "gateway.queue_ms.p99": "ms",
    "gateway.exec_overhead_ms": "ms",
    "gateway.service_ms.p50": "ms",
    "gateway.service_ms.p99": "ms",
    "gateway.queue_depth_mean": "count",
    "gateway.queue_depth_max": "count",
    "gateway.rejected": "count",
    "gateway.cancelled": "count",
    "gateway.failed": "count",
    "gateway.pool_replacements": "count",
    "route_s.n64": "s",
    "route_s.n80": "s",
    "route_s.n100": "s",
    "sort_s.n64": "s",
    "sort_s.n100": "s",
    "fail_frac": "frac",
    "unattributed_ms": "ms",
    "unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Development runs use seeds below this one; ``--seed 999983`` is kept
#: back so a later claim can be rechecked on inputs nobody tuned against.
HOLDOUT_SEED = 999_983
MAX_SEED = 1 << 40
_SEED_STRIDE = 1_000_000
_WARM_OFFSET = 500_000


def timed_seed0(seed: int) -> int:
    """First instance seed of the timed window for workload seed ``seed``."""
    return seed * _SEED_STRIDE


def warm_seed0(seed: int) -> int:
    """First instance seed of the warm-up pass: disjoint from the timed
    range while either side draws fewer than 500 000 instance seeds."""
    return seed * _SEED_STRIDE + _WARM_OFFSET


def require_source() -> None:
    """Put ``src/`` on the import path, or exit 2 if the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package source under {SRC}; run from the root "
            f"of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> Dict[str, str]:
    """Environment for child interpreters that import the package."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(samples: int) -> Optional[float]:
    """Highest percentile with at least ten samples beyond it, or None."""
    for p in _PERCENTILES:
        if samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def thirds(done_at: Sequence[float], start: float, end: float) -> List[float]:
    """Completions per second in each third of the window [start, end]."""
    span = (end - start) / 3.0
    counts = [0, 0, 0]
    for t in done_at:
        counts[min(2, max(0, int((t - start) / span)))] += 1
    return [c / span for c in counts]


def drift_frac(rates: Sequence[float]) -> float:
    """Spread of the per-third rates as a share of their median."""
    mid = median(rates)
    return (max(rates) - min(rates)) / mid if mid else 0.0


# -- span recorder --------------------------------------------------------------


@dataclass
class Span:
    """One timed interval: name, request id, parent span, bounds in ns."""

    id: int
    name: str
    request: int
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """In-memory span store for the traced windows.

    The span model follows Dapper (Sigelman et al., 2010): every span has
    a name, start, end and parent, and the spans of one request share its
    id.  ``entered`` counts every span opened or added; untraced windows
    get no recorder, and :func:`assert_untraced` checks the count did not
    move across them.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.entered = 0
        # Client threads share one recorder.
        self._lock = threading.Lock()

    @contextmanager
    def span(
        self, name: str, request: int, parent: Optional[int] = None
    ) -> Iterator[Span]:
        sp = self._open(name, request, parent, time.perf_counter_ns())
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()

    def add(
        self,
        name: str,
        request: int,
        parent: Optional[int],
        start_ns: int,
        end_ns: int,
    ) -> Span:
        """Record a span whose bounds were measured elsewhere."""
        sp = self._open(name, request, parent, start_ns)
        sp.end_ns = end_ns
        return sp

    def _open(
        self, name: str, request: int, parent: Optional[int], start_ns: int
    ) -> Span:
        with self._lock:
            self.entered += 1
            sp = Span(len(self.spans), name, request, parent, start_ns)
            self.spans.append(sp)
        return sp

    def durations_ms(self, name: str) -> List[float]:
        return [s.ms for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))


def assert_untraced(rec: SpanRecorder, since: int = 0) -> None:
    """Fail loudly if an untraced window touched the recorder, which had
    been entered ``since`` times when the window began."""
    if rec.entered != since:
        raise AssertionError(
            f"untraced window entered the span recorder "
            f"{rec.entered - since} times"
        )


# -- output checks ----------------------------------------------------------------


@dataclass
class CheckReport:
    """What the output check found, request by request."""

    attempted: int
    not_ok: List[str] = field(default_factory=list)
    over_bound: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    digest: str = ""
    reference_digest: str = ""

    @property
    def failed(self) -> int:
        return len(set(self.not_ok) | set(self.over_bound) | set(self.mismatched))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.digest == self.reference_digest


def round_bound(kind: str) -> Optional[int]:
    """The paper's round bound for a kind's default algorithm, if any."""
    from repro.analysis.bounds import ROUTING_ROUNDS, SORTING_ROUNDS

    return {"routing": ROUTING_ROUNDS, "sorting": SORTING_ROUNDS}.get(kind)


def check_summaries(summaries, reference) -> CheckReport:
    """Judge measured summaries against an in-process sequential pass.

    Every summary must be a completed ``ok`` run within the paper's round
    bound, its output digest must equal the reference run of the same
    request, and the order-independent batch digests must agree.
    """
    from repro.core.engine import STATUS_COMPLETED
    from repro.service.batch import summaries_digest

    if len(summaries) != len(reference):
        raise ValueError(
            f"{len(summaries)} summaries against {len(reference)} references"
        )
    report = CheckReport(attempted=len(summaries))
    for got, want in zip(summaries, reference):
        name = got.request.name
        if name != want.request.name:
            raise ValueError(f"reference out of order at {name}")
        if not got.ok or got.status != STATUS_COMPLETED:
            report.not_ok.append(name)
        bound = round_bound(got.request.kind)
        if bound is not None and got.rounds > bound:
            report.over_bound.append(name)
        if not want.digest or got.digest != want.digest:
            report.mismatched.append(name)
    report.digest = summaries_digest(summaries)
    report.reference_digest = summaries_digest(reference)
    return report


def reference_pass(requests) -> list:
    """Sequential in-process ``execute_request`` over ``requests``."""
    from repro.service.batch import execute_request

    return [execute_request(r) for r in requests]


def print_check(check: CheckReport) -> None:
    """Print the check verdict, naming the first few bad requests."""
    print(
        f"check: {check.attempted} requests, digest {check.digest} vs "
        f"sequential {check.reference_digest}, {len(check.not_ok)} not ok, "
        f"{len(check.over_bound)} over the round bound, "
        f"{len(check.mismatched)} digest mismatches"
    )
    for label, names in (
        ("not ok", check.not_ok),
        ("over bound", check.over_bound),
        ("mismatch", check.mismatched),
    ):
        for name in names[:5]:
            print(f"check FAILED ({label}): {name}", file=sys.stderr)


# -- the traced execution path ------------------------------------------------------


class TracedExecutor:
    """``execute_request`` split at its layer boundaries, with spans.

    Builds the scenario (``Scenario.build``), runs and judges it
    (``ScenarioRunner.run(..., workload=prebuilt)``) and folds the outcome
    into the same :class:`RunSummary` ``execute_request`` returns.  The
    engine's own time comes from ``ScenarioOutcome.wall_s``; the rest of
    the runner span is judging: verification, bound checks and digest.
    Plan-cache counters are sampled around each call.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        from repro.scenarios import ScenarioRunner

        self.rec = rec
        self.runner = ScenarioRunner(engines=("fast",))
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_size = 0

    def __call__(self, req, rid: int):
        from repro.core.context import plan_cache
        from repro.core.engine import STATUS_COMPLETED, RunSummary
        from repro.scenarios import Scenario

        rec = self.rec
        hits0, misses0, _ = plan_cache().stats()
        with rec.span("request", rid) as root:
            with rec.span("scenarios.build", rid, root.id):
                scenario = Scenario(req.kind, req.family, req.n, req.seed)
                workload = scenario.build()
            with rec.span("scenarios.runner.run", rid, root.id) as run:
                outcome = self.runner.run(
                    scenario,
                    algorithm=req.algorithm,
                    engine=req.engine or "reference",
                    workload=workload,
                )
            rec.add(
                "engine.run", rid, run.id, run.start_ns,
                run.start_ns + int(outcome.wall_s * 1e9),
            )
            summary = RunSummary(
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
        hits1, misses1, self.plan_size = plan_cache().stats()
        self.plan_hits += hits1 - hits0
        self.plan_misses += misses1 - misses0
        return summary

    def layer_metrics(self, requests: int) -> Dict[str, float]:
        """Build, engine and judge means plus plan-cache counts."""
        rec = self.rec
        build = rec.total_ms("scenarios.build")
        engine = rec.total_ms("engine.run")
        judge = rec.total_ms("scenarios.runner.run") - engine
        lookups = self.plan_hits + self.plan_misses
        return {
            "scenarios.build_ms": build / requests,
            "engine.run_ms": engine / requests,
            "judge.ms": judge / requests,
            "plan_cache.hit_ratio": self.plan_hits / lookups if lookups else 0.0,
            "plan_cache.misses": self.plan_misses / requests,
            "plan_cache.size": float(self.plan_size),
        }


def engine_counts(summaries) -> Dict[str, float]:
    """Mean per-request engine counts and the shared-cache hit ratio."""
    count = len(summaries)
    words = sum(s.total_words for s in summaries)
    hits = sum(s.shared_cache_hits for s in summaries)
    lookups = hits + sum(s.shared_cache_misses for s in summaries)
    return {
        "engine.rounds": sum(s.rounds for s in summaries) / count,
        "engine.packets": sum(s.total_packets for s in summaries) / count,
        "engine.words": words / count,
        "engine.max_edge_words": (
            sum(s.max_edge_words for s in summaries) / count
        ),
        "engine.us_per_word": (
            sum(s.wall_s for s in summaries) * 1e6 / words if words else 0.0
        ),
        "shared_cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


def print_layers(
    parts_ms: Dict[str, float], latency_ms: float, overhead: float
) -> None:
    """The traced run's reconciliation: each layer's mean milliseconds per
    request and its share of the mean latency.  ``parts_ms`` ends with
    ``unattributed``, so the shares add up to 100%."""
    print(f"layers: mean latency per request {latency_ms:.4f} ms")
    for name, ms in parts_ms.items():
        print(
            f"layer {name:<24} {ms:11.4f} ms {100.0 * ms / latency_ms:6.1f}%"
        )
    print(f"layers: trace.overhead_frac {overhead:.4f}")


# -- host record and result line ----------------------------------------------------


def host_record(load_before: float, **extra: object) -> Dict[str, object]:
    """CPU count, 1-minute load before/after, interpreter, plus ``extra``."""
    doc: Dict[str, object] = {
        "cpus": os.cpu_count(),
        "load1_before": round(load_before, 2),
        "load1_after": round(os.getloadavg()[0], 2),
        "python": platform.python_version(),
        "holdout_seed": HOLDOUT_SEED,
    }
    doc.update(extra)
    return doc


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    trace: bool,
) -> str:
    """The final JSON line; refuses missing, extra or non-finite metrics."""
    table = LAYER_METRICS if trace else E2E_METRICS
    if set(values) != set(table):
        missing = sorted(set(table) - set(values))
        extra = sorted(set(values) - set(table))
        raise ValueError(
            f"metric set mismatch: missing {missing}, extra {extra}"
        )
    if attempted < 1:
        raise ValueError("a run must attempt at least one request")
    metrics = {}
    for name, unit in table.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def e2e_bound(name: str) -> float:
    """The regression bound ``BENCHMARK.json`` fixes for metric ``name``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in doc["end_to_end"] if m["name"] == name)


def layer_defaults() -> Dict[str, float]:
    """Every per-layer metric at 0, for the layers a workload skips."""
    return {name: 0.0 for name in LAYER_METRICS}


@dataclass
class Outcome:
    """What one workload run hands back to :mod:`run`."""

    check: CheckReport
    metrics: Dict[str, float]
    host: Dict[str, object] = field(default_factory=dict)
    #: False when a server did not exit cleanly on SIGINT.
    clean_exit: bool = True
