"""E17: chaos harness — tail latency and recovery under injected faults.

A live process-backed gateway survives a SIGKILLed worker process and
poison requests (the dead worker replaced, requests submitted after the
kill still complete, and only the planted faults fail), the digests of
the surviving runs are byte-identical to a sequential re-execution of
exactly those requests, and p99 under injected stragglers degrades
*boundedly*:

    p99_chaos <= P99_FACTOR * (p99_clean + straggler_ms) + P99_SLACK_MS

The clean twin of the workload runs first on an identical gateway to
anchor the bound.  Results land in ``BENCH_engines.json`` under the
``chaos`` section (no ``speedup_target`` — the bench enforces its own
gates; ``check_regression`` reads the section for trend context only).
"""

import os

from repro.scenarios import mixed_batch
from repro.service import requests_from_scenarios, run_chaos
from repro.service.chaos import ChaosPlan, inject

BATCH = 48
WORKERS = 4
ENGINE = "fast"
KILLS = 1
POISONS = 2
STRAGGLER_MS = 120.0
STRAGGLER_EVERY = 5  # every 5th clean request is slowed
P99_FACTOR = 4.0
P99_SLACK_MS = 500.0

SIZES = dict(routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,))


def _plan():
    clean = requests_from_scenarios(
        mixed_batch(BATCH, seed0=0, **SIZES), engine=ENGINE
    )
    armed = list(clean)
    kill_indices = [BATCH // 3]
    poison_indices = [BATCH // 2, (3 * BATCH) // 4]
    taken = set(kill_indices + poison_indices)
    straggler_indices = [
        i for i in range(0, BATCH, STRAGGLER_EVERY) if i not in taken
    ]
    for i in kill_indices:
        armed[i] = inject(armed[i], "kill")
    for i in poison_indices:
        armed[i] = inject(armed[i], "poison")
    for i in straggler_indices:
        armed[i] = inject(armed[i], f"slow:{STRAGGLER_MS:g}")
    return ChaosPlan(
        requests=armed,
        clean=clean,
        kill_indices=kill_indices,
        poison_indices=poison_indices,
        straggler_indices=straggler_indices,
    )


def _measure():
    report = run_chaos(
        _plan(),
        workers=WORKERS,
        straggler_ms=STRAGGLER_MS,
        p99_factor=P99_FACTOR,
        p99_slack_ms=P99_SLACK_MS,
        compare_clean=True,
    )
    return report


def test_bench_chaos_gates(benchmark, table_printer, bench_json):
    report = benchmark.pedantic(_measure, rounds=1, iterations=1)
    from repro.analysis import render_table

    cpus = os.cpu_count() or 1
    c = report.counts
    rows = [
        {
            "config": "clean-twin",
            "workers": WORKERS,
            "offered": BATCH,
            "completed": BATCH,
            "failed": 0,
            "pool_replacements": 0,
            "p99_ms": report.p99_clean_ms,
        },
        {
            "config": (
                f"chaos[{c['kills']}k/{c['poisons']}p/"
                f"{c['stragglers']}s@{STRAGGLER_MS:g}ms]"
            ),
            "workers": WORKERS,
            "offered": c["offered"],
            "completed": c["completed"],
            "failed": c["failed"],
            "pool_replacements": report.pool_replacements,
            "p99_ms": report.p99_chaos_ms,
        },
    ]
    table_printer(
        render_table(
            f"E17  chaos harness - {BATCH} mixed instances, "
            f"engine={ENGINE} ({cpus} cpus)",
            ["config", "workers", "offered", "done", "failed",
             "pool swaps", "p99 ms"],
            [
                [
                    r["config"],
                    r["workers"],
                    r["offered"],
                    r["completed"],
                    r["failed"],
                    r["pool_replacements"],
                    f"{r['p99_ms']:.1f}",
                ]
                for r in rows
            ],
        )
    )
    bench_json(
        "chaos",
        {
            "description": (
                f"fault-injection gates on the {WORKERS}-worker process "
                f"gateway: worker kill + poison requests + stragglers "
                f"({STRAGGLER_MS:g}ms); p99 bound = "
                f"{P99_FACTOR:g}*(clean_p99+straggler_ms)+{P99_SLACK_MS:g}; "
                f"digests of surviving runs byte-checked against a "
                f"sequential re-execution"
            ),
            "engine": ENGINE,
            "gates": dict(report.gates),
            "counts": dict(c),
            "p99_clean_ms": report.p99_clean_ms,
            "p99_chaos_ms": report.p99_chaos_ms,
            "p99_bound_ms": report.p99_bound_ms,
            "pool_replacements": report.pool_replacements,
            "chaos_digest": report.chaos_digest,
            "baseline_digest": report.baseline_digest,
            "rows": rows,
        },
    )
    failed_gates = [g for g, ok in report.gates.items() if not ok]
    assert not failed_gates, (
        f"chaos gates failed: {failed_gates} "
        f"(p99 chaos {report.p99_chaos_ms:.1f}ms vs bound "
        f"{report.p99_bound_ms:.1f}ms, "
        f"{report.pool_replacements} pool replacement(s))"
    )


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
