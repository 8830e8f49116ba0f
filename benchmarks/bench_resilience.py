"""E20: the resilience layer under injected faults — recovery and goodput.

A threaded server behind the wire-level fault proxy
(:mod:`repro.service.net.faultproxy`), driven by the reconnecting
:class:`~repro.service.net.client.Client`.  Three kinds of
rows land in ``BENCH_engines.json`` under the ``resilience`` section:

* **recovery** — time from a forced mid-session disconnect (the proxy
  severs every live connection) to the next completed request, i.e. the
  reconnect + RESUME + resubmit path end to end, sampled over several
  flaps.
* **clean** — the through-proxy batch run with no toxics: the baseline
  the degraded run is compared against, on the same proxied path so the
  ratio isolates the *fault* cost, not the proxy hop.
* **corrupt_1pct** — the same batch with a 1%-per-chunk corruption
  toxic: every flipped byte is caught by the v2 CRC, the connection is
  torn down, and the client reconnects and resubmits under its
  idempotency keys.  ``goodput_ratio`` is degraded/clean throughput.

The only *gate* is correctness: both remote digests must match the
sequential in-process re-execution byte-for-byte, and the corrupted run
must not execute any request twice (the gateway's ``offered`` counter
equals the unique request count).  The timing rows are explicitly
ungated (``"gated": False``) — like E19, loopback recovery latency
measures the host scheduler as much as the protocol and is not portable
across CI runners.
"""

import time

from repro.scenarios import remote_selfcheck_batch
from repro.service import requests_from_scenarios
from repro.service.batch import execute_request, summaries_digest
from repro.service.net import Client, ServerThread
from repro.service.net.faultproxy import ProxyThread
from repro.service.net.resilience import BackoffPolicy, CircuitBreaker

BATCH = 48
ENGINE = "fast"
WORKERS = 2

#: forced disconnects sampled for the recovery rows.
FLAPS = 5

#: per-chunk byte-flip probability for the degraded run.
CORRUPT_PROB = 0.01

#: the clean/degraded comparison runs single-request envelopes, several
#: passes — enough frames through the proxy that a 1% per-chunk toxic
#: actually fires instead of rounding to zero events.
GOODPUT_PASSES = 2
GOODPUT_CHUNK = 1


def _percentile(sorted_values, q):
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return None
    rank = max(0, min(len(sorted_values) - 1,
                      round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _client(proxy):
    return Client(
        proxy.host,
        proxy.port,
        timeout=5,
        backoff=BackoffPolicy(base_s=0.01, max_s=0.2, deadline_s=60),
        breaker=CircuitBreaker(threshold=50),
        seed=0,
    )


def _measure():
    requests = requests_from_scenarios(
        remote_selfcheck_batch(BATCH, seed0=0), engine=ENGINE
    )
    sequential_digest = summaries_digest(
        execute_request(r) for r in requests
    )

    with ServerThread(workers=WORKERS, engine=ENGINE, queue_cap=256) as st:
        # -- recovery: forced flap -> next completed request ----------------
        with ProxyThread(st.host, st.port) as proxy:
            with _client(proxy) as client:
                client.collect(client.submit(requests[:2]))  # warm path
                recovery_ms = []
                for i in range(FLAPS):
                    proxy.drop_connections()
                    t0 = time.perf_counter()
                    client.collect(client.submit([requests[i % BATCH]]))
                    recovery_ms.append((time.perf_counter() - t0) * 1e3)
                recovery_reconnects = client.reconnects
        recovery_ms.sort()

        # -- clean through-proxy baseline -----------------------------------
        with ProxyThread(st.host, st.port) as proxy:
            with _client(proxy) as client:
                t0 = time.perf_counter()
                for _ in range(GOODPUT_PASSES):
                    clean_summaries = client.run(
                        requests, chunk=GOODPUT_CHUNK
                    )
                clean_wall = time.perf_counter() - t0
        clean_digest = summaries_digest(clean_summaries)
        assert clean_digest == sequential_digest, (
            f"clean remote digest {clean_digest} != sequential "
            f"{sequential_digest}"
        )

        # -- degraded: 1% per-chunk corruption ------------------------------
        with ProxyThread(
            st.host, st.port, toxics=[f"corrupt:{CORRUPT_PROB}"], seed=0
        ) as proxy:
            with _client(proxy) as client:
                t0 = time.perf_counter()
                for _ in range(GOODPUT_PASSES):
                    summaries = client.run(requests, chunk=GOODPUT_CHUNK)
                corrupt_wall = time.perf_counter() - t0
                metrics = client.metrics()
                stats = client.stats()
            proxy_stats = proxy.stats()
        corrupt_digest = summaries_digest(summaries)
        assert corrupt_digest == sequential_digest, (
            f"corrupted-path digest {corrupt_digest} != sequential "
            f"{sequential_digest}"
        )
        offered = metrics["gateway"]["offered"]
        # recovery run + clean passes + corrupted passes each executed
        # the requests they submitted exactly once on the shared gateway.
        expected_offered = (2 + FLAPS) + 2 * GOODPUT_PASSES * BATCH
        assert offered == expected_offered, (
            f"gateway offered {offered} != {expected_offered}: a resubmit "
            f"was re-executed instead of answered from the lineage cache"
        )

    rows = [
        {
            "row": "recovery",
            "flaps": FLAPS,
            "p50_ms": round(_percentile(recovery_ms, 50), 3),
            "max_ms": round(recovery_ms[-1], 3),
            "reconnects": recovery_reconnects,
            "gated": False,
        },
        {
            "row": "clean",
            "requests": GOODPUT_PASSES * BATCH,
            "wall_s": round(clean_wall, 4),
            "throughput_rps": round(GOODPUT_PASSES * BATCH / clean_wall, 2),
            "digest_match": True,
            "gated": False,
        },
        {
            "row": "corrupt_1pct",
            "requests": GOODPUT_PASSES * BATCH,
            "wall_s": round(corrupt_wall, 4),
            "throughput_rps": round(
                GOODPUT_PASSES * BATCH / corrupt_wall, 2
            ),
            "goodput_ratio": round(clean_wall / corrupt_wall, 3),
            "corrupted_chunks": proxy_stats["corrupted"],
            "reconnects": stats["reconnects"],
            "resubmits": stats["resubmits"],
            "cache_hits": stats["cache_hits"],
            "digest_match": True,
            "duplicate_executions": 0,
            "gated": False,
        },
    ]
    return rows


def test_bench_resilience_faulty_wire(benchmark, table_printer, bench_json):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    from repro.analysis import render_table

    recovery = next(r for r in rows if r["row"] == "recovery")
    clean = next(r for r in rows if r["row"] == "clean")
    corrupt = next(r for r in rows if r["row"] == "corrupt_1pct")
    table_printer(
        render_table(
            f"E20  resilience - {BATCH} mixed instances through the fault "
            f"proxy ({WORKERS} workers, {GOODPUT_PASSES} goodput passes)",
            ["row", "req/s", "recov p50 ms", "recov max ms",
             "reconnects", "goodput ratio"],
            [
                [
                    "recovery", "-",
                    f"{recovery['p50_ms']:.1f}",
                    f"{recovery['max_ms']:.1f}",
                    f"{recovery['reconnects']}", "-",
                ],
                [
                    "clean",
                    f"{clean['throughput_rps']:.1f}",
                    "-", "-", "-", "-",
                ],
                [
                    "corrupt_1pct",
                    f"{corrupt['throughput_rps']:.1f}",
                    "-", "-",
                    f"{corrupt['reconnects']}",
                    f"{corrupt['goodput_ratio']:.2f}",
                ],
            ],
        )
    )
    bench_json(
        "resilience",
        {
            "description": (
                f"{BATCH}-instance full-taxonomy batch driven by "
                f"the reconnecting Client through the wire-level fault "
                f"proxy; recovery rows time forced-disconnect -> next completed "
                f"request ({FLAPS} flaps); corrupt_1pct flips one byte "
                f"per proxied chunk with p={CORRUPT_PROB} over "
                f"{GOODPUT_PASSES} single-request-envelope passes and "
                f"reports degraded/clean goodput; digest parity vs a "
                f"sequential "
                f"re-execution and zero duplicate executions are the "
                f"only gates (loopback timing is host-scheduler-bound, "
                f"deliberately ungated like E19)"
            ),
            "engine": ENGINE,
            "rows": rows,
        },
    )
    assert clean["digest_match"] and corrupt["digest_match"]
    assert corrupt["duplicate_executions"] == 0


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
