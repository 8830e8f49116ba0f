"""Batch service CLI: ``python -m repro.service [options]``.

Generates a deterministic mixed batch from the scenario taxonomy, executes
it on the selected backend, and prints per-family rollups plus aggregate
throughput.  Exits non-zero if any run fails verification/bounds or (with
``--selfcheck``) if the parallel backend's batch digest diverges from the
sequential baseline's.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis import render_table
from ..core.engine import available_engines
from ..scenarios.generators import DEFAULT_MIX, mixed_batch
from .batch import BatchReport, BatchService, requests_from_scenarios


def _render(report: BatchReport) -> str:
    rows = []
    for (kind, family), agg in sorted(report.by_family().items()):
        runs = int(agg["runs"])
        rows.append([
            f"{kind}/{family}",
            runs,
            int(agg["ok"]),
            int(agg["rounds"]),
            int(agg["packets"]),
            f"{agg['wall_s'] * 1e3:.1f}",
        ])
    table = render_table(
        f"batch service [{report.backend}, workers={report.workers}]",
        ["workload", "runs", "ok", "rounds", "packets", "run ms"],
        rows,
    )
    hits, misses, size = report.plan_cache_stats
    lines = [
        table,
        f"batch: {len(report.summaries)} runs in {report.wall_s:.2f}s "
        f"({report.throughput:.1f} instances/s), digest "
        f"{report.batch_digest()}",
        f"caches: shared hit rate {report.shared_cache_hit_rate:.1%}; "
        f"parent plans {size} resident ({hits} hits / {misses} misses), "
        f"{report.warmed_plans} shipped to workers via "
        f"{report.prefetch_runs} prefetch runs",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Sharded batch execution of mixed routing/sorting/multiplex "
            "workloads on the congested-clique simulator."
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="W",
        help="0/1: in-process sequential backend; >=2: process pool of W",
    )
    parser.add_argument(
        "--batch", type=int, default=64, metavar="B",
        help="number of instances in the batch (default 64)",
    )
    parser.add_argument(
        "--scenario-mix", default=DEFAULT_MIX, metavar="MIX",
        help=(
            "weighted kind/family:weight mix, comma-separated "
            f"(default: {DEFAULT_MIX!r})"
        ),
    )
    parser.add_argument(
        "--engine", default="fast", choices=available_engines(),
        help="execution engine for every run (default: fast)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; request i uses seed+i (default 0)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of tables",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help=(
            "re-run the batch on the sequential backend and require "
            "byte-identical batch digests (CI smoke mode)"
        ),
    )
    parser.add_argument(
        "--no-warmup", action="store_true",
        help="skip the structural prefetch / worker plan-cache warmup",
    )
    parser.add_argument(
        "--record", default=None, metavar="PATH",
        help=(
            "append every request/summary envelope to a capture file "
            "(replay with python -m repro.service.recording)"
        ),
    )
    args = parser.parse_args(argv)

    try:
        scenarios = mixed_batch(
            args.batch, mix=args.scenario_mix, seed0=args.seed
        )
    except ValueError as exc:
        parser.error(str(exc))
    requests = requests_from_scenarios(scenarios, engine=args.engine)

    service = BatchService(
        workers=args.workers,
        engine=args.engine,
        warmup=not args.no_warmup,
    )
    if args.record is not None:
        from .recording import Recorder

        with Recorder(
            args.record,
            meta={
                "source": "batch",
                "workers": args.workers,
                "engine": args.engine,
            },
        ) as recorder:
            report = recorder.record_batch(service, requests)
    else:
        report = service.run_batch(requests)

    doc = report.to_dict()
    selfcheck_ok = True
    if args.selfcheck:
        baseline = BatchService(workers=0, engine=args.engine).run_batch(
            requests
        )
        selfcheck_ok = (
            baseline.ok and baseline.batch_digest() == report.batch_digest()
        )
        doc["selfcheck"] = {
            "sequential_digest": baseline.batch_digest(),
            "match": selfcheck_ok,
        }

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_render(report))
        if args.selfcheck:
            status = "match" if selfcheck_ok else "MISMATCH"
            print(
                f"selfcheck: sequential backend digest "
                f"{doc['selfcheck']['sequential_digest']} -> {status}"
            )

    if not report.ok:
        for s in report.failures:
            print(f"FAIL {s.request.name}: {s.error}", file=sys.stderr)
        return 1
    if not selfcheck_ok:
        print(
            "selfcheck FAILED: backends disagree on batch digest",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
