"""E15: batch-service throughput — sharded workers vs the sequential baseline.

The ISSUE 3 acceptance gate: a >= 256-instance mixed batch on 4 workers
must run >= 2x faster wall-clock than the 1-worker sequential backend,
with output digests byte-identical to direct ``engine.execute`` runs.

Correctness is asserted unconditionally (every backend's per-run digests
must equal the direct-execution digests, and the two backends' batch
digests must match).  The *speedup* gate only means something when the
hardware can actually run 4 workers — on fewer than 4 CPUs the row is
recorded and the assertion is skipped (CI's runners have >= 4 vCPUs, so
the gate is enforced where it is measured meaningfully).

Results land in ``BENCH_engines.json`` under the ``service`` section.
"""

import os

from repro.scenarios import Scenario, mixed_batch, output_digest
from repro.scenarios.runner import ALGORITHMS, default_algorithm
from repro.service import BatchService, requests_from_scenarios

#: the acceptance-gate shape: >= 256 mixed instances, 4 workers, >= 2x.
BATCH = 256
WORKERS = 4
SPEEDUP_TARGET = 2.0
ENGINE = "fast"

#: best-of-N timing to shrug off CI-runner noise.
REPEAT = 2

SIZES = dict(routing_sizes=(25,), sorting_sizes=(25,), multiplex_sizes=(16,))


def _requests():
    return requests_from_scenarios(
        mixed_batch(BATCH, seed0=0, **SIZES), engine=ENGINE
    )


def _direct_digests(requests):
    """Plain engine.execute runs through the algorithm registry."""
    digests = []
    for req in requests:
        scenario = Scenario(req.kind, req.family, req.n, req.seed)
        spec = ALGORITHMS[
            (req.kind, req.algorithm or default_algorithm(req.kind))
        ]
        result = spec.run(scenario.build(), req.engine, req.seed)
        digests.append(output_digest(req.kind, result.outputs))
    return digests


def _best_report(service, requests, repeat=REPEAT):
    best = None
    for _ in range(repeat):
        report = service.run_batch(requests)
        if best is None or report.wall_s < best.wall_s:
            best = report
    return best


def _measure():
    requests = _requests()
    direct = _direct_digests(requests)  # also warms the parent plan cache

    sequential = _best_report(BatchService(workers=1, engine=ENGINE), requests)
    pooled = _best_report(
        BatchService(workers=WORKERS, engine=ENGINE), requests
    )

    for label, report in (("sequential", sequential), ("pool", pooled)):
        assert report.ok, f"{label}: {report.failures[:3]}"
        got = [s.digest for s in report.summaries]
        assert got == direct, (
            f"{label} backend digests diverge from direct engine.execute"
        )
    assert sequential.batch_digest() == pooled.batch_digest()

    speedup = sequential.wall_s / pooled.wall_s
    rows = []
    for report, speed in ((sequential, 1.0), (pooled, speedup)):
        rows.append([
            report.backend,
            report.workers,
            len(report.summaries),
            report.wall_s,
            report.throughput,
            speed,
            report.batch_digest(),
        ])
    return rows


def test_bench_service_throughput(benchmark, table_printer, bench_json):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    from repro.analysis import render_table

    cpus = os.cpu_count() or 1
    enforced = cpus >= WORKERS
    table_printer(
        render_table(
            f"E15  batch service - {BATCH} mixed instances, engine={ENGINE} "
            f"(best-of-{REPEAT}, {cpus} cpus)",
            ["backend", "workers", "batch", "wall s", "inst/s", "speedup",
             "digest"],
            [
                [b, w, n, f"{t:.2f}", f"{r:.1f}", f"{s:.2f}x", d]
                for b, w, n, t, r, s, d in rows
            ],
        )
    )
    payload = {
        "description": (
            f"{BATCH}-instance mixed batch (routing/sorting/multiplex) "
            f"on the batch service; speedup = sequential wall / pooled "
            f"wall; digests cross-checked against direct engine.execute"
        ),
        "engine": ENGINE,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_gate_enforced": enforced,
        "rows": [
            {
                "backend": b,
                "workers": w,
                "batch": n,
                "wall_s": round(t, 3),
                "instances_per_s": round(r, 2),
                "speedup": round(s, 3),
                "gated": enforced and w > 1,
                "batch_digest": d,
            }
            for b, w, n, t, r, s, d in rows
        ],
    }
    if not enforced:
        payload["gate_skip_reason"] = (
            f"host has {cpus} cpu(s) < {WORKERS} workers; parallel speedup "
            f"is unmeasurable here (see top-level meta)"
        )
    bench_json("service", payload)
    speedup = rows[-1][5]
    if enforced:
        assert speedup >= SPEEDUP_TARGET, (
            f"{WORKERS}-worker batch speedup {speedup:.2f}x below target "
            f"{SPEEDUP_TARGET}x on {cpus} cpus"
        )
    else:
        print(
            f"\n[bench_service] {cpus} cpu(s) < {WORKERS} workers: "
            f"recorded {speedup:.2f}x, speedup gate not enforced"
        )


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
