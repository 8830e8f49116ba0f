"""Network service CLI: ``python -m repro.service.net <command>``.

Five subcommands::

    serve      run a NetServer in the foreground (Ctrl-C to stop)
    client     connect to a running server, execute a mixed batch
    selfcheck  loopback server + client in one process; digests must
               match the sequential baseline (CI smoke mode)
    soak       reconnect soak: loopback server behind a flapping fault
               proxy, resilient client under poisson load; gates on
               digest parity, zero stranded futures, zero duplicate
               executions, bounded retries
    bench      loopback round-trip latency + per-request wire bytes

``client --selfcheck`` re-executes the batch on the in-process
sequential baseline and requires byte-identical digests — the same
gate CI's ``net-smoke`` job runs against a real two-process serve.
``client``/``selfcheck`` accept ``--resilient`` (use the reconnecting
:class:`~repro.service.net.resilience.ResilientClient`) and repeatable
``--toxic SPEC`` flags, which interpose the wire-level fault proxy —
CI's ``net-fault-smoke`` job is ``selfcheck --resilient --toxic ...``
with the same digest gate plus a bounded-retries gate.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import sys
import threading
import time
from typing import Dict, List, Optional

from ..batch import BatchService, requests_from_scenarios, summaries_digest
from .client import Client, CommonClient
from .faultproxy import ProxyThread
from .framing import MAX_FRAME_BYTES
from .resilience import BackoffPolicy, ResilientClient
from .server import DEFAULT_SESSION_QUOTA, NetServer, ServerThread


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=2, metavar="W",
        help="gateway worker count (default 2)",
    )
    parser.add_argument(
        "--engine", default="fast",
        help="default engine stamped on engine-less requests",
    )
    parser.add_argument(
        "--backend", default="thread", choices=("process", "thread"),
        help="gateway executor backend (default thread)",
    )
    parser.add_argument(
        "--queue-cap", type=int, default=64, metavar="N",
        help="gateway queue capacity (default 64)",
    )
    parser.add_argument(
        "--policy", default="reject", choices=("reject", "block"),
        help="gateway backpressure policy (default reject)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline (default none)",
    )
    parser.add_argument(
        "--quota", type=int, default=DEFAULT_SESSION_QUOTA, metavar="N",
        help=f"per-session queue quota (default {DEFAULT_SESSION_QUOTA})",
    )
    parser.add_argument(
        "--max-frame", type=int, default=MAX_FRAME_BYTES, metavar="BYTES",
        help="maximum frame payload size (default 8 MiB)",
    )


def _add_batch_args(parser: argparse.ArgumentParser) -> None:
    from ...scenarios.generators import DEFAULT_MIX

    parser.add_argument(
        "--batch", type=int, default=64, metavar="B",
        help="number of instances (default 64)",
    )
    parser.add_argument(
        "--scenario-mix", default=DEFAULT_MIX, metavar="MIX",
        help=f"kind/family:weight mix (default {DEFAULT_MIX!r})",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; request i uses seed+i (default 0)",
    )
    parser.add_argument(
        "--chunk", type=int, default=32, metavar="N",
        help="requests per SUBMIT envelope (default 32)",
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resilient", action="store_true",
        help="use the reconnecting ResilientClient",
    )
    parser.add_argument(
        "--toxic", action="append", default=[], metavar="SPEC",
        help=(
            "interpose the fault proxy with this toxic (repeatable): "
            "latency:MS, jitter:MS, rate:KBPS, disconnect:BYTES, "
            "blackhole[:MS], corrupt:PROB, each optionally @up/@down"
        ),
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help=(
            "fail if the resilient client resubmitted more than N times "
            "(default: 8 per envelope, the backoff attempt cap)"
        ),
    )


def _server_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        host=args.host,
        port=args.port,
        workers=args.workers,
        engine=args.engine,
        backend=args.backend,
        queue_cap=args.queue_cap,
        policy=args.policy,
        deadline_ms=args.deadline_ms,
        session_quota=args.quota,
        max_frame=args.max_frame,
    )


def _batch_requests(args: argparse.Namespace):
    from ...scenarios.generators import mixed_batch

    scenarios = mixed_batch(
        args.batch, mix=args.scenario_mix, seed0=args.seed
    )
    return requests_from_scenarios(scenarios, engine=args.engine)


def _cmd_serve(args: argparse.Namespace) -> int:
    async def _run() -> None:
        server = NetServer(**_server_kwargs(args))
        await server.start()
        print(
            f"repro.service.net serving on {server.host}:{server.port} "
            f"(engine {args.engine}, backend {args.backend}, "
            f"quota {args.quota})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            raise
        finally:
            await server.close()

    # A shell without job control starts `serve &` with SIGINT ignored,
    # and Python then installs no KeyboardInterrupt handler: restore it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _make_client(
    args: argparse.Namespace, host: str, port: int
) -> CommonClient:
    if getattr(args, "resilient", False):
        return ResilientClient(
            host, port, timeout=args.timeout, seed=args.seed
        )
    return Client(host, port, timeout=args.timeout)


def _retry_bound(args: argparse.Namespace, envelopes: int) -> int:
    if args.max_retries is not None:
        return int(args.max_retries)
    return BackoffPolicy().max_attempts * max(1, envelopes)


def _run_client(args: argparse.Namespace, host: str, port: int) -> int:
    requests = _batch_requests(args)
    toxics = list(getattr(args, "toxic", []))
    proxy: Optional[ProxyThread] = None
    if toxics:
        proxy = ProxyThread(host, port, toxics=toxics, seed=args.seed)
        proxy.start()
        host, port = proxy.host, proxy.port
    stats: Dict[str, int] = {}
    try:
        with _make_client(args, host, port) as client:
            t0 = time.perf_counter()
            summaries = client.run(requests, chunk=args.chunk)
            wall = time.perf_counter() - t0
            info = client.server_info
            version = client.protocol_version
            cache_hits = client.cache_hits
            sent = getattr(client, "bytes_sent", 0)
            received = getattr(client, "bytes_received", 0)
            if isinstance(client, ResilientClient):
                stats = client.stats()
    finally:
        if proxy is not None:
            proxy.close()
    digest = summaries_digest(summaries)
    ok = all(s.ok for s in summaries)
    envelopes = math.ceil(len(requests) / max(1, args.chunk))
    retries_ok = (
        not stats or stats["resubmits"] <= _retry_bound(args, envelopes)
    )
    doc = {
        "server": info.get("server"),
        "protocol": version,
        "requests": len(requests),
        "ok": ok,
        "wall_s": round(wall, 4),
        "digest": digest,
        "bytes_sent": sent,
        "bytes_received": received,
        "cache_hits": cache_hits,
    }
    if toxics:
        doc["toxics"] = toxics
    if stats:
        doc["resilience"] = dict(stats)
        doc["retries_bounded"] = retries_ok
    selfcheck_ok = True
    if args.selfcheck:
        baseline = BatchService(workers=0, engine=args.engine).run_batch(
            requests
        )
        selfcheck_ok = baseline.batch_digest() == digest
        doc["selfcheck"] = {
            "sequential_digest": baseline.batch_digest(),
            "match": selfcheck_ok,
        }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"net client: {len(requests)} requests over protocol v{version} "
            f"in {wall:.2f}s — digest {digest}"
        )
        print(
            f"wire: {sent} bytes sent, {received} received "
            f"({(sent + received) / max(1, len(requests)):.0f} B/request)"
        )
        if stats:
            print(
                f"resilience: {stats['reconnects']} reconnects, "
                f"{stats['resubmits']} resubmits, "
                f"{stats['retry_afters']} retry-afters, "
                f"{stats['cache_hits']} cache hits"
            )
        if args.selfcheck:
            status = "match" if selfcheck_ok else "MISMATCH"
            print(f"selfcheck: sequential digest -> {status}")
    if not ok:
        for s in summaries:
            if not s.ok:
                print(f"FAIL {s.request.name}: {s.error}", file=sys.stderr)
        return 1
    if not selfcheck_ok:
        print(
            "selfcheck FAILED: remote and sequential digests disagree",
            file=sys.stderr,
        )
        return 1
    if not retries_ok:
        print(
            f"retry gate FAILED: {stats['resubmits']} resubmits exceeds "
            f"the bound of {_retry_bound(args, envelopes)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    return _run_client(args, args.host, args.port)


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    args.selfcheck = True
    with ServerThread(**_server_kwargs(args)) as st:
        return _run_client(args, st.host, st.port)


def _cmd_soak(args: argparse.Namespace) -> int:
    """Reconnect soak: flapping proxy, poisson load, four gates.

    The proxy drops every live connection every ``--flap-every``
    seconds (jittered) while a :class:`ResilientClient` pushes a
    poisson-arrival workload through it.  Gates:

    1. every submitted envelope is collected (zero stranded futures);
    2. the digest matches the sequential baseline byte-for-byte;
    3. the gateway executed each request exactly once (its ``offered``
       counter equals the unique request count — resubmits after flaps
       were answered by the idempotency cache, not re-executed);
    4. retries stayed bounded (resubmits <= the backoff attempt cap
       per envelope).
    """
    from ...scenarios.generators import (
        flap_times,
        mixed_batch,
        poisson_arrivals,
    )

    count = max(1, int(args.rate * args.duration))
    scenarios = mixed_batch(count, mix=args.scenario_mix, seed0=args.seed)
    requests = requests_from_scenarios(scenarios, engine=args.engine)
    arrivals = poisson_arrivals(args.rate, count, seed=args.seed)
    flaps = flap_times(
        args.flap_every, args.duration, jitter_frac=0.2, seed=args.seed
    )

    with ServerThread(**_server_kwargs(args)) as st:
        with ProxyThread(
            st.host, st.port, toxics=args.toxic, seed=args.seed
        ) as proxy:
            backoff = BackoffPolicy(
                base_s=0.05,
                max_s=1.0,
                deadline_s=max(60.0, 3.0 * args.duration),
            )
            client = ResilientClient(
                proxy.host,
                proxy.port,
                timeout=args.timeout,
                backoff=backoff,
                seed=args.seed,
            )
            client.connect()
            stop = threading.Event()
            t0 = time.perf_counter()

            def flapper() -> None:
                for at in flaps:
                    delay = at - (time.perf_counter() - t0)
                    if delay > 0 and stop.wait(delay):
                        return
                    proxy.drop_connections()

            flap_thread = threading.Thread(target=flapper, daemon=True)
            flap_thread.start()
            window = max(1, client.session_quota // 2)
            order: List[int] = []
            inflight: List[int] = []
            collected: Dict[int, List] = {}
            try:
                for request, at in zip(requests, arrivals):
                    delay = at - (time.perf_counter() - t0)
                    if delay > 0:
                        time.sleep(delay)
                    while len(inflight) >= window:
                        oldest = inflight.pop(0)
                        collected[oldest] = client.collect(oldest)
                    channel = client.submit([request])
                    order.append(channel)
                    inflight.append(channel)
                for channel in inflight:
                    collected[channel] = client.collect(channel)
            finally:
                stop.set()
                flap_thread.join(timeout=10.0)
            stranded = client.pending
            metrics = client.metrics()
            stats = client.stats()
            client.close()
            proxy_stats = proxy.stats()

    summaries = [s for channel in order for s in collected[channel]]
    digest = summaries_digest(summaries)
    baseline = BatchService(workers=0, engine=args.engine).run_batch(requests)
    gateway = metrics.get("gateway", {})
    offered = gateway.get("offered") if isinstance(gateway, dict) else None
    gates = {
        "all_collected": len(summaries) == count and stranded == 0,
        "digest_match": baseline.batch_digest() == digest,
        "no_duplicate_execution": offered == count,
        "bounded_retries": (
            stats["resubmits"] <= _retry_bound(args, count)
        ),
    }
    doc = {
        "requests": count,
        "duration_s": args.duration,
        "rate": args.rate,
        "flaps": len(flaps),
        "stranded": stranded,
        "gateway_offered": offered,
        "digest": digest,
        "baseline_digest": baseline.batch_digest(),
        "resilience": dict(stats),
        "proxy": dict(proxy_stats),
        "idempotency": metrics.get("idempotency"),
        "gates": gates,
        "ok": all(gates.values()),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"soak: {count} requests over {args.duration:.0f}s, "
            f"{len(flaps)} connection flaps -> "
            f"{stats['reconnects']} reconnects, "
            f"{stats['resubmits']} resubmits, "
            f"{stats['cache_hits']} cache hits, {stranded} stranded"
        )
        print(
            f"executions: gateway offered {offered} for {count} unique "
            f"requests; digest {digest} "
            f"({'match' if gates['digest_match'] else 'MISMATCH'})"
        )
        for gate, passed in gates.items():
            print(f"gate {gate}: {'pass' if passed else 'FAIL'}")
    if not all(gates.values()):
        failed = [g for g, p in gates.items() if not p]
        print(f"soak gates FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    requests = _batch_requests(args)
    with ServerThread(**_server_kwargs(args)) as st:
        with Client(st.host, st.port, timeout=args.timeout) as client:
            lat_ms: List[float] = []
            for i in range(0, len(requests), args.chunk):
                envelope = requests[i:i + args.chunk]
                t0 = time.perf_counter()
                channel = client.submit(envelope)
                client.collect(channel)
                lat_ms.append((time.perf_counter() - t0) * 1e3)
            sent, received = client.bytes_sent, client.bytes_received
    lat_ms.sort()

    def pct(p: float) -> float:
        return lat_ms[min(len(lat_ms) - 1, int(p * len(lat_ms)))]

    per_req = (sent + received) / max(1, len(requests))
    print(
        f"net bench: {len(requests)} requests in {len(lat_ms)} envelopes "
        f"of <= {args.chunk}"
    )
    print(
        f"envelope round-trip ms: p50 {pct(0.50):.2f} "
        f"p95 {pct(0.95):.2f} p99 {pct(0.99):.2f}"
    )
    print(
        f"wire bytes: {sent} sent, {received} received "
        f"({per_req:.0f} B/request)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.net",
        description="Binary RPC front end for the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a server in the foreground")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7707)
    _add_gateway_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser("client", help="run a batch against a server")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7707)
    p_client.add_argument("--timeout", type=float, default=60.0)
    p_client.add_argument(
        "--engine", default="fast",
        help="engine stamped on every request (default fast)",
    )
    p_client.add_argument(
        "--selfcheck", action="store_true",
        help="compare the remote digest against the sequential baseline",
    )
    p_client.add_argument("--json", action="store_true")
    _add_batch_args(p_client)
    _add_fault_args(p_client)
    p_client.set_defaults(func=_cmd_client)

    p_self = sub.add_parser(
        "selfcheck", help="loopback server+client digest check (CI smoke)"
    )
    p_self.add_argument("--host", default="127.0.0.1")
    p_self.add_argument("--port", type=int, default=0)
    p_self.add_argument("--timeout", type=float, default=60.0)
    p_self.add_argument("--json", action="store_true")
    _add_gateway_args(p_self)
    _add_batch_args(p_self)
    _add_fault_args(p_self)
    from ...scenarios.generators import REMOTE_SELFCHECK_MIX

    # the selfcheck differential defaults to full-taxonomy coverage
    p_self.set_defaults(func=_cmd_selfcheck, scenario_mix=REMOTE_SELFCHECK_MIX)

    p_soak = sub.add_parser(
        "soak",
        help="reconnect soak: flapping fault proxy + resilient client",
    )
    p_soak.add_argument("--host", default="127.0.0.1")
    p_soak.add_argument("--port", type=int, default=0)
    p_soak.add_argument("--timeout", type=float, default=30.0)
    p_soak.add_argument(
        "--duration", type=float, default=60.0, metavar="S",
        help="soak length in seconds (default 60)",
    )
    p_soak.add_argument(
        "--rate", type=float, default=4.0, metavar="R",
        help="poisson arrival rate per second (default 4)",
    )
    p_soak.add_argument(
        "--flap-every", type=float, default=3.0, metavar="S",
        help="drop every proxied connection this often (default 3s)",
    )
    p_soak.add_argument("--json", action="store_true")
    _add_gateway_args(p_soak)
    _add_batch_args(p_soak)
    _add_fault_args(p_soak)
    p_soak.set_defaults(
        func=_cmd_soak,
        scenario_mix=REMOTE_SELFCHECK_MIX,
        policy="block",
        resilient=True,
    )

    p_bench = sub.add_parser(
        "bench", help="loopback latency / wire-bytes micro-bench"
    )
    p_bench.add_argument("--host", default="127.0.0.1")
    p_bench.add_argument("--port", type=int, default=0)
    p_bench.add_argument("--timeout", type=float, default=60.0)
    _add_gateway_args(p_bench)
    _add_batch_args(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
