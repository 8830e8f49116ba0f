"""Command-line demo: ``python -m repro [n] [--engine E] [--repeat K]``.

Runs the paper's two headline algorithms on an ``n``-node simulated clique
(default 25) and prints the measured round budgets next to the theorem
bounds.  ``--engine`` selects the engine that runs the round loop
(``reference`` or ``fast``); ``--repeat`` re-runs every algorithm K
times so repeated instances warm the process-wide plan cache — the
table then reports first-run and best wall time side by side, showing
the cross-run amortization the wire data plane provides.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from . import (
    route_lenzen,
    route_optimized,
    sort_lenzen,
    uniform_instance,
    uniform_sort_instance,
    verify_delivery,
    verify_sorted_batches,
)
from .analysis import render_table
from .core import available_engines, plan_cache
from .core.topology import is_perfect_square


def _timed_repeats(run, verify, repeat: int):
    """Run ``run()`` ``repeat`` times; verify once; return (result, times)."""
    times: List[float] = []
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    verify(result)
    return result, times


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Demo of Lenzen (PODC 2013) routing and sorting on a simulated "
            "congested clique."
        ),
        epilog=(
            "For batched throughput over many instances, see "
            "`python -m repro.service batch`; for the differential scenario "
            "sweep, `python -m repro.scenarios`."
        ),
    )
    parser.add_argument(
        "n", nargs="?", type=int, default=25,
        help="number of nodes (default 25; square n unlocks all algorithms)",
    )
    parser.add_argument(
        "--engine", default=None, choices=available_engines(),
        help="execution engine (default: the fully-audited reference engine)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help=(
            "run each algorithm K times; the second run stores its plans "
            "(colorings, partitions, header tables), later runs replay "
            "them; reports best time"
        ),
    )
    args = parser.parse_args(argv)
    n, engine, repeat = args.n, args.engine, args.repeat

    rows = []

    def row(label, bound, result, times):
        cells = [label, n, result.rounds, bound, "verified"]
        if repeat > 1:
            cells.append(f"{times[0] * 1e3:.1f}")
            cells.append(f"{min(times) * 1e3:.1f}")
        rows.append(cells)

    inst = uniform_instance(n, seed=0)
    res, times = _timed_repeats(
        lambda: route_lenzen(inst, engine=engine),
        lambda r: verify_delivery(inst, r.outputs),
        repeat,
    )
    row("routing (Thm 3.7)", 16, res, times)

    if is_perfect_square(n):
        opt, times = _timed_repeats(
            lambda: route_optimized(inst, engine=engine),
            lambda r: verify_delivery(inst, r.outputs),
            repeat,
        )
        row("routing (Thm 5.4)", 12, opt, times)

        sinst = uniform_sort_instance(n, seed=0)
        sres, times = _timed_repeats(
            lambda: sort_lenzen(sinst, engine=engine),
            lambda r: verify_sorted_batches(sinst, r.outputs),
            repeat,
        )
        row("sorting (Thm 4.5)", 37, sres, times)
    else:
        pad = ["-", "-"] if repeat > 1 else []
        rows.append(
            ["routing (Thm 5.4)", n, "-", 12, "needs square n"] + pad
        )
        rows.append(
            ["sorting (Thm 4.5)", n, "-", 37, "needs square n"] + pad
        )

    headers = ["algorithm", "n", "rounds", "paper", "output"]
    if repeat > 1:
        headers += ["first ms", "best ms"]
    engine_name = engine or "reference"
    print(
        render_table(
            f"Lenzen (PODC 2013) on a simulated congested clique "
            f"[engine={engine_name}, repeat={repeat}]",
            headers,
            rows,
        )
    )
    if repeat > 1:
        hits, misses, size = plan_cache().stats()
        print(
            f"plan cache: {hits} hits, {misses} misses, {size} plans "
            f"resident"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
