"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lenzen-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics and how they add up.  Every run checks its outputs against an
in-process sequential ``execute_request`` pass; the last line of stdout
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``)
and the exit code is 1 when any check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import benchlib as bl


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=bl.WORKLOADS)
    parser.add_argument(
        "--seed", type=int, required=True,
        help=f"workload seed, 0 <= seed < 2**40 "
             f"(holdout: {bl.HOLDOUT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="length of the measured window",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < bl.MAX_SEED:
        parser.error(f"--seed must be in [0, 2**40), got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    bl.require_source()
    load_before = os.getloadavg()[0]
    if args.workload == "lenzen-large":
        import lenzen_large

        outcome = lenzen_large.run(args.seed, args.seconds, bool(args.trace))
    else:
        import rpc

        runner = rpc.run_mixed if args.workload == "rpc-mixed" else rpc.run_burst
        outcome = runner(args.seed, args.seconds, bool(args.trace))

    check = outcome.check
    bl.print_check(check)
    host = bl.host_record(
        load_before, workload=args.workload, seed=args.seed,
        trace=args.trace, **outcome.host,
    )
    print("host " + json.dumps(host, sort_keys=True))
    bound = bl.e2e_bound("throughput_rps")
    if outcome.host.get("drift_frac", 0.0) > bound:
        print(
            f"drift: throughput per third of the window "
            f"{outcome.host['throughput_thirds_rps']} moved more than the "
            f"{bound} bound; one rate for the whole window hides it"
        )
    correct = check.correct and outcome.clean_exit
    units = bl.LAYER_METRICS if args.trace else bl.E2E_METRICS
    print(f"fail_frac = {check.failed / check.attempted:.6g}")
    for name, value in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(bl.result_line(
        correct, check.attempted, check.failed, outcome.metrics,
        bool(args.trace),
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
