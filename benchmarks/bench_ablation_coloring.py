"""Ablation — footnote 3: greedy (<= 2d-1 colors) inside Corollary 3.3.

DESIGN.md calls out the coloring algorithm as the key substitutable design
choice.  The exact Koenig coloring uses the fewest intermediates (d); the
greedy coloring is asymptotically cheaper to compute but may use up to
2d-1 colors, forcing an extra lane (doubled message size) when d is close
to n.  Both deliver correctly in exactly 2 rounds; the table contrasts the
color counts and the local computation cost.
"""

import time

from repro.analysis import render_table
from repro.core import plan_cache, run_protocol
from repro.routing.primitives import _color_map, route_known


def _run(n, w, scheme):
    groups = tuple(tuple(range(g * w, (g + 1) * w)) for g in range(n // w))

    def prog(ctx):
        g, r = divmod(ctx.node_id, w)
        items = [(b, (ctx.node_id, b)) for b in range(w)]
        demand = tuple(tuple(1 for _ in range(w)) for _ in range(w))
        got = yield from route_known(
            ctx, groups, g, r, items, demand, "abl",
            item_width=2, coloring=scheme,
        )
        assert len(got) == w
        return None

    return run_protocol(n, prog, capacity=8)


def _measure():
    rows = []
    for n, w in [(36, 6), (64, 8), (100, 10)]:
        demand = tuple(tuple(2 for _ in range(w)) for _ in range(w))
        # Time the computation, not a replay: an earlier bench in the same
        # process may have cached this demand's coloring.
        with plan_cache().bypassed():
            t0 = time.perf_counter()
            _, d_koenig = _color_map(demand, "koenig")
            t_koenig = time.perf_counter() - t0
            t0 = time.perf_counter()
            _, d_greedy = _color_map(demand, "greedy")
            t_greedy = time.perf_counter() - t0

        r_koenig = _run(n, w, "koenig").rounds
        r_greedy = _run(n, w, "greedy").rounds
        assert r_koenig == r_greedy == 2
        rows.append(
            [
                n,
                w,
                d_koenig,
                d_greedy,
                2 * d_koenig - 1,
                r_koenig,
                r_greedy,
                f"{t_koenig / max(t_greedy, 1e-9):.1f}x",
            ]
        )
    return rows


def test_bench_ablation_coloring(benchmark, table_printer):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table_printer(
        render_table(
            "Ablation  Koenig vs greedy coloring inside Cor. 3.3 "
            "(footnote 3)",
            [
                "n",
                "|W|",
                "Koenig colors",
                "greedy colors",
                "2d-1",
                "rounds K",
                "rounds G",
                "Koenig/greedy time",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
