"""Workload ``lenzen-large``: Lenzen routing and sorting at n = 64..100.

One thread, in process, closed loop: each instance goes through
``execute_request`` on the fast engine and the next starts when it
returns.  No service layer runs, so the per-node protocol bodies, the
engine round loop, the columnar wire and the Koenig colorings do nearly
all the work.  Every instance has a fresh seed, which keeps its colorings
out of the plan cache as they are for a user solving new instances; the
size-only plans stay warm from the warm-up pass.
"""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import benchlib as bl

#: One cycle of the closed loop.  n = 80 is the only non-square size and
#: the only one that takes Theorem 3.7's three-channel overlay; Lenzen
#: sorting needs a square n.
TYPES: Tuple[Tuple[str, str, int], ...] = tuple(
    [
        ("routing", family, n)
        for n in (64, 80, 100)
        for family in ("balanced", "skewed", "adversarial")
    ]
    + [
        ("sorting", family, n)
        for n in (64, 100)
        for family in ("uniform", "duplicates")
    ]
)

#: One instance per size warms imports and the size-only plans.  The
#: warm-up draws no adversarial instance: that family has only n - 1
#: distinct inputs, and a warm one would replay its colorings.
WARM_TYPES = (
    ("routing", "balanced", 64),
    ("routing", "balanced", 80),
    ("routing", "balanced", 100),
    ("sorting", "uniform", 64),
    ("sorting", "uniform", 100),
)

#: Fresh interpreters launched to time start-up; the median is reported.
LAUNCHES = 3

SIZE_METRICS = {
    ("routing", 64): "route_s.n64",
    ("routing", 80): "route_s.n80",
    ("routing", 100): "route_s.n100",
    ("sorting", 64): "sort_s.n64",
    ("sorting", 100): "sort_s.n100",
}


def _request(kind: str, family: str, n: int, seed: int):
    from repro.core.engine import RunRequest

    return RunRequest(kind=kind, family=family, n=n, seed=seed, engine="fast")


def _launch_s() -> float:
    """Seconds for a fresh interpreter to import the execution path."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.service.batch"],
        env=bl.source_env(),
        cwd=bl.ROOT,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


def _setup(seed: int) -> float:
    """Median interpreter launch plus one warm-up pass in this process."""
    launch = bl.median([_launch_s() for _ in range(LAUNCHES)])
    seed0 = bl.warm_seed0(seed)
    t0 = time.perf_counter()
    for j, (kind, family, n) in enumerate(WARM_TYPES):
        summary = bl.reference_pass([_request(kind, family, n, seed0 + j)])[0]
        if not summary.ok:
            raise RuntimeError(f"warm-up run failed: {summary.error}")
    return launch + time.perf_counter() - t0


def _size_medians(requests, latencies) -> Dict[str, float]:
    by_size: Dict[str, List[float]] = {name: [] for name in SIZE_METRICS.values()}
    for req, lat in zip(requests, latencies):
        by_size[SIZE_METRICS[(req.kind, req.n)]].append(lat)
    return {name: bl.median(xs) for name, xs in by_size.items()}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(seed: int, seconds: float, trace: bool) -> bl.Outcome:
    from repro.service.batch import execute_request

    setup_s = _setup(seed)
    seed0 = bl.timed_seed0(seed)
    # Whole cycles only, so every run weighs the instance types alike.
    requests: List = []
    latencies: List[float] = []
    summaries: List = []
    traced: List[Tuple[object, object]] = []
    rec = bl.SpanRecorder()
    executor = bl.TracedExecutor(rec) if trace else None
    # Start every run from the same collector state: the warm-up's garbage
    # would otherwise land a seed-dependent full collection in the window.
    gc.collect()
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        for j, (kind, family, n) in enumerate(TYPES):
            index = cycle * len(TYPES) + j
            if trace:
                index *= 2
            req = _request(kind, family, n, seed0 + index)
            t0 = time.perf_counter()
            summaries.append(execute_request(req))
            latencies.append(time.perf_counter() - t0)
            requests.append(req)
            if executor is not None:
                # Same type, next seed: paired with the untraced run above
                # so the overhead ratio compares like with like.
                twin = _request(kind, family, n, seed0 + index + 1)
                traced.append((twin, executor(twin, len(traced))))
        cycle += 1
        if cycle == 1:
            # After one cycle, not at the end: the plan cache grows with
            # every instance, and a faster engine fits more cycles in.
            rss_mb = _rss_mb()
    elapsed = time.perf_counter() - start
    if executor is None:
        bl.assert_untraced(rec)

    check = bl.check_summaries(
        summaries + [s for _, s in traced],
        bl.reference_pass(requests + [r for r, _ in traced]),
    )
    sizes = _size_medians(requests, latencies)
    print(
        "lenzen-large: "
        + ", ".join(f"{k} {v:.4f} s" for k, v in sizes.items())
        + f" (median per instance, {cycle} cycles of {len(TYPES)})"
    )
    host = {"cycles": cycle, "instances": len(requests)}
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "throughput_rps": len(requests) / elapsed,
            "latency_ms.p50": bl.median(latencies) * 1e3,
            "latency_ms.p95": bl.percentile(latencies, 95.0) * 1e3,
            "peak_rss_mb": rss_mb,
        }
        host["latency_samples"] = len(latencies)
        host["latency_rule_percentile"] = bl.supported_percentile(len(latencies))
        return bl.Outcome(check, metrics, host)

    count = len(traced)
    metrics = bl.layer_defaults()
    metrics.update(sizes)
    metrics.update(executor.layer_metrics(count))
    metrics.update(bl.engine_counts([s for _, s in traced]))
    request_ms = rec.total_ms("request") / count
    attributed = (
        metrics["scenarios.build_ms"]
        + metrics["engine.run_ms"]
        + metrics["judge.ms"]
    )
    metrics["unattributed_ms"] = request_ms - attributed
    metrics["unattributed_frac"] = metrics["unattributed_ms"] / request_ms
    metrics["trace.overhead_frac"] = (
        rec.total_ms("request") / (sum(latencies) * 1e3) - 1.0
    )
    metrics["fail_frac"] = check.failed / check.attempted
    bl.print_layers(
        {
            "scenarios.build": metrics["scenarios.build_ms"],
            "engine.run": metrics["engine.run_ms"],
            "judge": metrics["judge.ms"],
            "unattributed": metrics["unattributed_ms"],
        },
        request_ms, metrics["trace.overhead_frac"],
    )
    return bl.Outcome(check, metrics, host)
