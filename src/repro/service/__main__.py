"""Service command line: ``python -m repro.service <verb> [options]``.

Verbs::

    batch           run a mixed batch; per-family rollups
    stream          open-loop stream through the gateway; tail latency
    chaos           worker kills, poison requests and stragglers against
                    a live gateway; four gates
    capture info    print a capture's header and counts
    capture replay  re-feed a capture through a live gateway; the
                    digests must match
    serve           run a NetServer in the foreground (Ctrl-C to stop)
    client          run a mixed batch against a running server
    selfcheck       loopback server + client (CI smoke mode)
    soak            flapping fault proxy + reconnecting client; four gates

Every flag is declared once, in :data:`_FLAGS`, and each verb picks the
ones it reads.  ``--selfcheck`` (always on for the ``selfcheck`` verb)
re-runs the same requests in-process and requires the sequential batch
digest.  A verb prints text lines, or its report's ``to_dict()`` under
``--json``; it exits 1 unless the report is ok, every gate holds and the
selfcheck digest matches, and 2 on a usage error.  A network failure
the client gives up on (a dead address, an open circuit breaker) is one
line on stderr and exit 1.

See DESIGN.md sections 6 (batch), 7 (stream), 9 (capture, chaos) and 12
(serve, client, selfcheck, soak).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import signal
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ..analysis import render_table
from ..core.engine import RunRequest, available_engines
from ..scenarios.generators import (
    DEFAULT_MIX,
    REMOTE_SELFCHECK_MIX,
    arrival_times,
    flap_times,
    mixed_batch,
    parse_mix,
    poisson_arrivals,
)
from .batch import BatchService, requests_from_scenarios, summaries_digest
from .chaos import run_chaos
from .net.client import Client
from .net.faultproxy import ProxyThread
from .net.framing import NetError
from .net.resilience import BackoffPolicy
from .net.server import NetServer, ServerThread
from .recording import (
    CAPTURE_FORMAT,
    CaptureError,
    Recorder,
    load_capture,
    replay_capture,
)
from .stream import BACKENDS, POLICIES, serve


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _mix(spec: str) -> str:
    try:
        parse_mix(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


#: Every flag of every verb.  A verb's own default overrides the one here.
_FLAGS: Dict[str, Dict[str, Any]] = {
    # the gateway group
    "workers": dict(
        type=int, default=2, metavar="W",
        help="gateway workers; 0 or 1 runs a batch in-process",
    ),
    "engine": dict(
        default="fast", choices=available_engines(), help="execution engine",
    ),
    "backend": dict(
        default="process", choices=BACKENDS, help="gateway executor backend",
    ),
    "queue_cap": dict(
        type=_positive, default=64, metavar="N", help="gateway queue bound",
    ),
    "policy": dict(
        default="reject", choices=POLICIES,
        help="what a full gateway queue does with a request",
    ),
    "deadline_ms": dict(
        type=float, metavar="MS", help="per-request latency budget",
    ),
    # the workload group
    "requests": dict(
        type=_positive, default=64, metavar="N", help="instance count",
    ),
    "scenario_mix": dict(
        type=_mix, default=DEFAULT_MIX, metavar="MIX",
        help="weighted kind/family:weight mix, comma-separated",
    ),
    "seed": dict(type=int, default=0, help="request i uses seed+i"),
    # reports
    "json": dict(action="store_true", help="print the JSON report"),
    "selfcheck": dict(
        action="store_true",
        help="re-run the requests in-process; the digests must match",
    ),
    "record": dict(
        metavar="PATH", help="append the traffic to a capture file",
    ),
    # arrivals
    "rate": dict(
        type=float, default=8.0, metavar="R",
        help="arrivals per second; 0 = saturated (all at t=0)",
    ),
    "duration": dict(
        type=float, default=2.0, metavar="S",
        help="seconds of arrivals; requests = rate * duration",
    ),
    "arrivals": dict(
        default="poisson",
        choices=("poisson", "uniform", "saturated", "bursty"),
        help="arrival process (--rate 0 forces saturated)",
    ),
    # faults
    "kills": dict(type=int, default=1, help="worker-kill faults"),
    "poisons": dict(type=int, default=2, help="engine-crash requests"),
    "straggler_frac": dict(
        type=float, default=0.25, metavar="F",
        help="fraction of clean requests slowed down",
    ),
    "straggler_ms": dict(
        type=float, default=100.0, metavar="MS", help="straggler delay",
    ),
    "toxic": dict(
        action="append", default=[], metavar="SPEC",
        help=(
            "dial through the fault proxy with this toxic (repeatable): "
            "latency:MS, jitter:MS, rate:KBPS, disconnect:BYTES, "
            "blackhole[:MS], corrupt:PROB, each optionally @up/@down"
        ),
    ),
    "flap_every": dict(
        type=float, default=3.0, metavar="S",
        help="drop every proxied connection this often",
    ),
    # the network
    "host": dict(default="127.0.0.1", help="server address"),
    "port": dict(type=int, default=7707, help="server port; 0 = any free"),
    "timeout": dict(
        type=float, default=60.0, metavar="S", help="client socket timeout",
    ),
    "chunk": dict(
        type=_positive, default=32, metavar="N",
        help="requests per SUBMIT envelope",
    ),
    "timescale": dict(
        type=float, default=1.0, metavar="X",
        help="arrival-offset multiplier; 0 = saturated replay",
    ),
}

_GATEWAY = "workers engine backend queue_cap deadline_ms"
_WORKLOAD = "requests scenario_mix seed"


def _add_flags(parser: argparse.ArgumentParser, names: str) -> None:
    for name in names.split():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, **_FLAGS[name])


# -- the shared pieces --------------------------------------------------------


def _requests(
    args: argparse.Namespace, count: Optional[int] = None
) -> List[RunRequest]:
    scenarios = mixed_batch(
        count or args.requests, mix=args.scenario_mix, seed0=args.seed
    )
    return requests_from_scenarios(scenarios, engine=args.engine)


def _sequential_check(
    requests: Sequence[RunRequest], digest: str, engine: str
) -> Dict[str, object]:
    """Re-run ``requests`` in-process, in order; compare batch digests."""
    baseline = BatchService(workers=0, engine=engine).run_batch(requests)
    return {
        "sequential_digest": baseline.batch_digest(),
        "match": baseline.ok and baseline.batch_digest() == digest,
    }


def _emit(
    args: argparse.Namespace, doc: Dict[str, Any], lines: List[str]
) -> int:
    """Print ``doc`` (``--json``) or ``lines``; return the exit code."""
    check = doc.get("selfcheck") or {}
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if check:
            status = "match" if check["match"] else "MISMATCH"
            lines.append(
                f"selfcheck: sequential digest -> {status} "
                f"({check['sequential_digest']})"
            )
        print("\n".join(lines))
    verdicts = {
        "ok": doc.get("ok"),
        **doc.get("gates", {}),
        "selfcheck": check.get("match"),
        "digests_match": doc.get("digests_match"),
        "retries_bounded": doc.get("retries_bounded"),
    }
    failed = [name for name, passed in verdicts.items() if passed is False]
    for f in doc.get("failures", ()):
        print(f"FAIL {f['request']}: {f['error']}", file=sys.stderr)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


# -- in-process verbs ---------------------------------------------------------


def _batch(args: argparse.Namespace) -> int:
    requests = _requests(args)
    service = BatchService(workers=args.workers, engine=args.engine)
    if args.record is None:
        report = service.run_batch(requests)
    else:
        meta = {"source": "batch", "workers": args.workers,
                "engine": args.engine}
        with Recorder(args.record, meta=meta) as recorder:
            report = recorder.record_batch(service, requests)
    doc = report.to_dict()
    if args.selfcheck:
        doc["selfcheck"] = _sequential_check(
            requests, report.batch_digest(), args.engine
        )
    rows = [
        [f"{kind}/{family}", int(agg["runs"]), int(agg["ok"]),
         int(agg["rounds"]), int(agg["packets"]),
         f"{agg['wall_s'] * 1e3:.1f}"]
        for (kind, family), agg in sorted(report.by_family().items())
    ]
    hits, misses, size = report.plan_cache_stats
    return _emit(args, doc, [
        render_table(
            f"batch service [{report.backend}, workers={report.workers}]",
            ["workload", "runs", "ok", "rounds", "packets", "run ms"],
            rows,
        ),
        f"batch: {len(report.summaries)} runs in {report.wall_s:.2f}s "
        f"({report.throughput:.1f} instances/s), digest "
        f"{report.batch_digest()}",
        f"caches: shared hit rate {report.shared_cache_hit_rate:.1%}; "
        f"parent plans {size} resident ({hits} hits / {misses} misses)",
    ])


def _stream(args: argparse.Namespace) -> int:
    if args.requests is None and args.rate <= 0:
        raise ValueError(
            "--rate 0 (saturated mode) has no arrival clock to derive a "
            "request count from; give an explicit --requests"
        )
    count = args.requests or int(args.rate * args.duration)
    if count < 1:
        raise ValueError("need at least one request (--requests or "
                         "rate * duration)")
    process = "saturated" if args.rate <= 0 else args.arrivals
    arrivals = arrival_times(
        process, max(args.rate, 1e-9), count, seed=args.seed
    )
    report = serve(
        _requests(args, count),
        arrivals,
        workers=args.workers,
        engine=args.engine,
        backend=args.backend,
        queue_cap=args.queue_cap,
        policy=args.policy,
        deadline_ms=args.deadline_ms,
        record=args.record,
    )
    doc = report.to_dict()
    if args.selfcheck:
        doc["selfcheck"] = _sequential_check(
            [s.request for s in report.completed],
            report.stream_digest(),
            args.engine,
        )
    metrics = doc["metrics"]
    rows = []
    for label in ("latency", "queue_wait", "service"):
        h = metrics[label]
        rows.append([label, h["count"]] + [
            f"{h[key]:.1f}" for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms")
        ])
    return _emit(args, doc, [
        render_table(
            f"stream gateway [{report.backend}, workers={report.workers}, "
            f"queue<={report.queue_cap}, policy={report.policy}]",
            ["metric", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            rows,
        ),
        f"stream: {doc['offered']} offered ({process} @ {args.rate:g}/s) "
        f"-> {doc['completed']} completed, {doc['rejected']} rejected, "
        f"{doc['cancelled']} cancelled, {doc['failed']} failed in "
        f"{report.wall_s:.2f}s ({report.throughput:.1f} instances/s "
        f"sustained)",
        f"queue depth: max {metrics['queue_depth_max']}, "
        f"mean {metrics['queue_depth_mean']}; digest "
        f"{doc['stream_digest']}",
    ])


def _chaos(args: argparse.Namespace) -> int:
    report = run_chaos(
        count=args.requests,
        workers=args.workers,
        engine=args.engine,
        kills=args.kills,
        poisons=args.poisons,
        straggler_frac=args.straggler_frac,
        straggler_ms=args.straggler_ms,
        rate=args.rate,
        mix=args.scenario_mix,
        seed=args.seed,
        record=args.record,
    )
    c = report.counts
    return _emit(args, report.to_dict(), [
        f"chaos: {c['offered']} offered ({c['kills']} kills, "
        f"{c['poisons']} poisons, {c['stragglers']} stragglers) -> "
        f"{c['completed']} completed, {c['failed']} failed, "
        f"{report.pool_replacements} pool replacement(s), "
        f"{c['post_kill_completed']} completions after the last kill",
        f"p99: clean {report.p99_clean_ms:.1f}ms, chaos "
        f"{report.p99_chaos_ms:.1f}ms (bound {report.p99_bound_ms:.1f}ms)",
        f"digest: chaos {report.chaos_digest or '-'} vs sequential "
        f"baseline {report.baseline_digest or '-'}",
        *(f"gate {gate}: {'pass' if passed else 'FAIL'}"
          for gate, passed in report.gates.items()),
    ])


def _capture_info(args: argparse.Namespace) -> int:
    capture = load_capture(args.capture)
    statuses = capture.statuses()
    doc = {
        "format": CAPTURE_FORMAT,
        "version": capture.version,
        "meta": capture.meta,
        "requests": len(capture.events),
        "summaries": len(capture.summaries),
        "resolved": len(capture.resolved_summaries()),
        "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
        "capture_digest": capture.capture_digest(),
        "has_metrics": capture.metrics is not None,
    }
    return _emit(args, doc, [f"{key}: {value}" for key, value in doc.items()])


def _capture_replay(args: argparse.Namespace) -> int:
    capture = load_capture(args.capture)
    report = replay_capture(
        capture,
        workers=args.workers,
        backend=args.backend,
        timescale=args.timescale,
    )
    status = "match" if report.digests_match else "MISMATCH"
    return _emit(args, report.to_dict(), [
        f"replayed {len(capture.events)} requests: capture digest "
        f"{report.capture_digest} vs replay {report.replay_digest} -> "
        f"{status}"
    ])


# -- network verbs ------------------------------------------------------------


def _server_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    if args.workers < 1:
        raise ValueError(
            f"--workers must be >= 1 to start a server, got {args.workers}"
        )
    return {name: getattr(args, name) for name in ("host", "port",
                                                   *_GATEWAY.split())}


def _serve(args: argparse.Namespace) -> int:
    async def _run() -> None:
        server = NetServer(**_server_kwargs(args))
        await server.start()
        print(
            f"repro.service serving on {server.host}:{server.port} "
            f"(engine {args.engine}, backend {args.backend}, "
            f"quota {server.session_quota})",
            flush=True,
        )
        try:
            await server.serve_forever()
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


def _retry_bound(envelopes: int) -> int:
    """Resubmits a client run may need: the backoff attempt cap per
    envelope."""
    return BackoffPolicy().max_attempts * max(1, envelopes)


def _client(args: argparse.Namespace) -> int:
    requests = _requests(args)
    host, port = args.host, args.port
    with contextlib.ExitStack() as stack:
        if args.toxic:
            proxy = stack.enter_context(
                ProxyThread(host, port, toxics=args.toxic, seed=args.seed)
            )
            host, port = proxy.host, proxy.port
        client = stack.enter_context(
            Client(host, port, timeout=args.timeout, seed=args.seed)
        )
        t0 = time.perf_counter()
        summaries = client.run(requests, chunk=args.chunk)
        wall = time.perf_counter() - t0
        version = client.protocol_version
        sent, received = client.bytes_sent, client.bytes_received
        stats = client.stats()
        doc: Dict[str, Any] = {
            "server": client.server_info.get("server"),
            "protocol": version,
            "requests": len(requests),
            "ok": all(s.ok for s in summaries),
            "wall_s": round(wall, 4),
            "digest": summaries_digest(summaries),
            "bytes_sent": sent,
            "bytes_received": received,
            "cache_hits": client.cache_hits,
            "failures": [
                {"request": s.request.name, "error": s.error}
                for s in summaries if not s.ok
            ],
            "resilience": stats,
            "retries_bounded": stats["resubmits"] <= _retry_bound(
                math.ceil(len(requests) / args.chunk)
            ),
        }
    lines = [
        f"net client: {len(requests)} requests over protocol v{version} "
        f"in {wall:.2f}s — digest {doc['digest']}",
        f"wire: {sent} bytes sent, {received} received "
        f"({(sent + received) / len(requests):.0f} B/request)",
        f"resilience: {stats['reconnects']} reconnects, "
        f"{stats['resubmits']} resubmits, "
        f"{stats['retry_afters']} retry-afters, "
        f"{stats['cache_hits']} cache hits",
    ]
    if args.toxic:
        doc["toxics"] = args.toxic
    if args.selfcheck:
        doc["selfcheck"] = _sequential_check(
            requests, doc["digest"], args.engine
        )
    return _emit(args, doc, lines)


def _selfcheck(args: argparse.Namespace) -> int:
    with ServerThread(**_server_kwargs(args)) as st:
        args.host, args.port = st.host, st.port
        return _client(args)


def _soak(args: argparse.Namespace) -> int:
    """Reconnect soak: flapping proxy, poisson load, four gates.

    The proxy drops every live connection every ``--flap-every``
    seconds (jittered) while a :class:`Client` pushes a poisson-arrival
    workload through it, one request per envelope.
    Gates:

    1. every submitted envelope is collected (zero stranded futures);
    2. the digest matches the sequential baseline byte-for-byte;
    3. the gateway executed each request exactly once (its ``offered``
       counter equals the unique request count — resubmits after flaps
       were answered by the idempotency cache, not re-executed);
    4. retries stayed bounded (resubmits <= the backoff attempt cap
       per envelope).
    """
    count = max(1, int(args.rate * args.duration))
    requests = _requests(args, count)
    arrivals = poisson_arrivals(args.rate, count, seed=args.seed)
    flaps = flap_times(
        args.flap_every, args.duration, jitter_frac=0.2, seed=args.seed
    )

    with ServerThread(**_server_kwargs(args)) as st, ProxyThread(
        st.host, st.port, toxics=args.toxic, seed=args.seed
    ) as proxy:
        backoff = BackoffPolicy(
            base_s=0.05, max_s=1.0, deadline_s=max(60.0, 3.0 * args.duration)
        )
        client = Client(
            proxy.host, proxy.port, backoff=backoff, seed=args.seed
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
    check = _sequential_check(requests, digest, args.engine)
    gateway = metrics.get("gateway", {})
    offered = gateway.get("offered") if isinstance(gateway, dict) else None
    gates = {
        "all_collected": len(summaries) == count and stranded == 0,
        "digest_match": check["match"],
        "no_duplicate_execution": offered == count,
        "bounded_retries": stats["resubmits"] <= _retry_bound(count),
    }
    doc = {
        "requests": count,
        "duration_s": args.duration,
        "rate": args.rate,
        "flaps": len(flaps),
        "stranded": stranded,
        "gateway_offered": offered,
        "digest": digest,
        "baseline_digest": check["sequential_digest"],
        "resilience": dict(stats),
        "proxy": dict(proxy_stats),
        "idempotency": metrics.get("idempotency"),
        "gates": gates,
        "ok": all(gates.values()),
    }
    return _emit(args, doc, [
        f"soak: {count} requests over {args.duration:.0f}s, "
        f"{len(flaps)} connection flaps -> {stats['reconnects']} "
        f"reconnects, {stats['resubmits']} resubmits, "
        f"{stats['cache_hits']} cache hits, {stranded} stranded",
        f"executions: gateway offered {offered} for {count} unique "
        f"requests; digest {digest} "
        f"({'match' if gates['digest_match'] else 'MISMATCH'})",
        *(f"gate {gate}: {'pass' if passed else 'FAIL'}"
          for gate, passed in gates.items()),
    ])


# -- the parser ---------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Run Lenzen's routing and sorting through the service tier: "
            "batches, streams, faults, captures and the RPC server."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(parent: Any, name: str, run: Any, flags: str, help: str,
             **defaults: object) -> argparse.ArgumentParser:
        p = parent.add_parser(
            name, help=help, description=help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        _add_flags(p, flags)
        p.set_defaults(run=run, error=p.error, **defaults)
        return p

    verb(verbs, "batch", _batch,
         f"workers engine {_WORKLOAD} json selfcheck record",
         "run a mixed batch; per-family rollups", workers=0)
    verb(verbs, "stream", _stream,
         f"rate duration arrivals {_GATEWAY} policy {_WORKLOAD} "
         "json selfcheck record",
         "open-loop stream through the gateway; tail latency",
         requests=None)
    verb(verbs, "chaos", _chaos,
         f"workers engine {_WORKLOAD} kills poisons straggler_frac "
         "straggler_ms rate json record",
         "kills, poison requests and stragglers; four gates",
         requests=24, rate=0.0)
    capture = verbs.add_parser(
        "capture", help="inspect or replay a repro-capture file"
    ).add_subparsers(dest="capture_verb", required=True, metavar="VERB")
    for name, run, flags, help in (
        ("info", _capture_info, "json", "print a capture's header and counts"),
        ("replay", _capture_replay, "workers backend timescale json",
         "re-feed a capture through a live gateway; digests must match"),
    ):
        verb(capture, name, run, flags, help).add_argument(
            "capture", help="capture file path"
        )
    verb(verbs, "serve", _serve, f"host port {_GATEWAY}",
         "run a server in the foreground (Ctrl-C to stop)",
         backend="thread")
    verb(verbs, "client", _client,
         f"host port timeout engine {_WORKLOAD} chunk toxic json selfcheck",
         "run a mixed batch against a running server")
    loopback = dict(
        backend="thread", port=0, scenario_mix=REMOTE_SELFCHECK_MIX
    )
    verb(verbs, "selfcheck", _selfcheck,
         f"host port {_GATEWAY} {_WORKLOAD} chunk toxic json",
         "loopback server + client; the digests must match",
         selfcheck=True, timeout=60.0, **loopback)
    verb(verbs, "soak", _soak,
         f"host port {_GATEWAY} scenario_mix seed duration rate flap_every "
         "toxic json",
         "flapping fault proxy + reconnecting client; four gates",
         duration=60.0, rate=4.0, **loopback)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    try:
        return int(args.run(args))
    except CaptureError as exc:
        print(f"capture error: {exc}", file=sys.stderr)
        return 2
    except NetError as exc:  # the client gave up, e.g. on a dead address
        print(f"net error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a value only the verb can check, such as
        args.error(str(exc))  # an impossible chaos plan: exit 2 with usage


if __name__ == "__main__":
    raise SystemExit(main())
