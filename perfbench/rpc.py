"""Workloads ``rpc-mixed`` and ``rpc-small-burst``: the RPC service.

Both start ``python -m repro.service.net serve --port 0`` in its own
process and drive it from this one, closed loop:

* ``rpc-mixed`` — thread backend at CLI defaults; two client threads,
  each with its own blocking :class:`Client`, send one request per
  envelope and wait for its summary before the next.  Requests follow
  ``mixed_batch`` at its default mix and sizes (n = 16..25).
* ``rpc-small-burst`` — ``--backend process`` (two pool workers, shm
  transport); one client pushes bursts of sub-millisecond multiplex
  instances through ``Client.run(requests, chunk=16)``, which keeps the
  session quota and so the gateway queue full.

The only public client blocks per connection, so an open loop from one
process would need more threads than a two-CPU host has.
"""

from __future__ import annotations

import re
import resource
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import benchlib as bl

#: Server start-ups per run; the median start-up time is reported.
SPAWNS = 3
CLIENT_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

MIXED_CALLERS = 2
#: Two turns of ``DEFAULT_MIX``'s ten-family cycle: every family at every
#: default size runs once before timing starts.
MIXED_WARM_PER_CALLER = 12
BURST = 960
BURST_CHUNK = 16
BURST_WARM_BURSTS = 2
#: Alternating untraced/traced blocks in a traced run, so drift over the
#: window biases neither side.
TRACE_BLOCKS = 4

_READY = re.compile(r"serving on (\S+):(\d+)")


class Serve:
    """One ``serve`` process: start until ready, stop with SIGINT."""

    def __init__(self, backend: str) -> None:
        self.args = [
            sys.executable, "-m", "repro.service.net", "serve",
            "--port", "0", "--backend", backend,
        ]
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Spawn and wait until a client completes a handshake; seconds."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.args,
            stdout=subprocess.PIPE,
            env=bl.source_env(),
            cwd=bl.ROOT,
            text=True,
        )
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(READY_TIMEOUT_S):
                raise RuntimeError("serve printed no address in time")
        line = self.proc.stdout.readline()
        match = _READY.search(line)
        if match is None:
            raise RuntimeError(f"serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.client().close()
        return time.perf_counter() - t0

    def client(self):
        from repro.service.net import Client

        return Client(self.host, self.port, timeout=CLIENT_TIMEOUT_S).connect()

    def stop(self) -> bool:
        """SIGINT, wait; True when the process exited with code 0."""
        proc, self.proc = self.proc, None
        if proc is None:
            return True
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("serve did not stop on SIGINT; killed", file=sys.stderr)
            return False
        if proc.returncode != 0:
            print(f"serve exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode == 0

    def __enter__(self) -> "Serve":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.proc is not None:
            self.stop()


def _start(backend: str, spawns: int) -> "tuple[Serve, float, bool]":
    """Start ``spawns`` servers, keep the last; median start-up seconds."""
    times = []
    clean = True
    for _ in range(spawns - 1):
        with Serve(backend) as probe:
            times.append(probe.start())
            clean = probe.stop() and clean
    serve = Serve(backend)
    try:
        times.append(serve.start())
    except BaseException:
        serve.stop()
        raise
    return serve, bl.median(times), clean


def _children_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process: the server, or
    one of its pool workers, which it waits for at shutdown."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Window:
    """Per-request results of one measured stretch, in request order."""

    summaries: List = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    #: measured seconds of the blocks folded in by :meth:`extend`.
    busy_s: float = 0.0

    def extend(self, other: "Window") -> None:
        self.summaries += other.summaries
        self.latency_s += other.latency_s
        self.done_at += other.done_at
        self.busy_s += other.seconds

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Completions per measured second."""
        return len(self.summaries) / (self.busy_s or self.seconds)


# -- rpc-mixed -------------------------------------------------------------------


def _mixed_requests(seed0: int, count: int) -> List:
    from repro.scenarios.generators import DEFAULT_MIX, mixed_batch
    from repro.service.batch import requests_from_scenarios

    return requests_from_scenarios(
        mixed_batch(count, mix=DEFAULT_MIX, seed0=seed0), engine="fast"
    )


def _closed_loop(clients, requests, offset, seconds, rec=None) -> Window:
    """Each client thread takes the next request, waits for its summary.

    Starts at ``requests[offset]`` and hands out no new request once
    ``seconds`` have passed; every request handed out completes, so the
    results cover one contiguous slice.
    """
    lock = threading.Lock()
    next_index = [offset]
    results: Dict[int, tuple] = {}
    errors: List[BaseException] = []
    window = Window(start=time.perf_counter())
    deadline = window.start + seconds

    def caller(client) -> None:
        try:
            while time.perf_counter() < deadline:
                with lock:
                    i = next_index[0]
                    next_index[0] += 1
                if i >= len(requests):
                    return
                req = requests[i]
                if rec is None:
                    t0 = time.perf_counter()
                    (summary,) = client.collect(client.submit([req]))
                    t1 = time.perf_counter()
                else:
                    with rec.span("client.request", i) as root:
                        with rec.span("client.submit", i, root.id):
                            channel = client.submit([req])
                        with rec.span("client.collect", i, root.id):
                            (summary,) = client.collect(channel)
                    t0, t1 = root.start_ns / 1e9, root.end_ns / 1e9
                results[i] = (summary, t1 - t0, time.perf_counter())
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=caller, args=(c,), daemon=True)
        for c in clients
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(CLIENT_TIMEOUT_S + min(seconds, 600.0))
        if t.is_alive():
            raise RuntimeError("client thread did not finish")
    if errors:
        raise errors[0]
    for i in sorted(results):
        summary, lat, done = results[i]
        window.summaries.append(summary)
        window.latency_s.append(lat)
        window.done_at.append(done)
    window.end = max(window.done_at, default=time.perf_counter())
    return window


def _bytes(clients) -> int:
    return sum(c.bytes_sent + c.bytes_received for c in clients)


def run_mixed(seed: int, seconds: float, trace: bool) -> bl.Outcome:
    spawns = 1 if trace else SPAWNS
    serve, spawn_s, clean = _start("thread", spawns)
    requests = _mixed_requests(bl.timed_seed0(seed), max(4000, int(400 * seconds)))
    warm = _mixed_requests(bl.warm_seed0(seed), MIXED_WARM_PER_CALLER * MIXED_CALLERS)
    rec = bl.SpanRecorder()
    clients: List = []
    gateway = None
    try:
        clients = [serve.client() for _ in range(MIXED_CALLERS)]
        t0 = time.perf_counter()
        _closed_loop(clients, warm, 0, float("inf"))
        warm_s = time.perf_counter() - t0
        bytes0 = _bytes(clients)
        if not trace:
            window = _closed_loop(clients, requests, 0, seconds)
            bl.assert_untraced(rec)
            untraced, traced = window, None
        else:
            untraced, traced, window = _alternate(
                lambda offset, secs, r: _closed_loop(
                    clients, requests, offset, secs, r
                ),
                seconds, rec,
            )
            gateway = clients[0].metrics()["gateway"]
        wire_bytes = _bytes(clients) - bytes0
    finally:
        for c in clients:
            c.close()
        clean = serve.stop() and clean
    return _finish(
        "rpc-mixed", window, untraced, traced, rec, (spawn_s, warm_s), clean,
        envelope=1, wire_bytes=wire_bytes,
        gateway=gateway,
    )


def _alternate(measure, seconds, rec):
    """Alternate untraced and traced blocks of ``seconds / TRACE_BLOCKS``.

    Returns (untraced, traced, all) windows; asserts the untraced blocks
    never entered the span recorder.
    """
    untraced, traced = Window(), Window()
    whole = Window(start=time.perf_counter())
    offset = 0
    for block in range(TRACE_BLOCKS):
        tracing = block % 2 == 1
        entered = rec.entered
        part = measure(offset, seconds / TRACE_BLOCKS, rec if tracing else None)
        offset += len(part.summaries)
        if not tracing:
            bl.assert_untraced(rec, entered)
        (traced if tracing else untraced).extend(part)
        whole.extend(part)
    whole.end = time.perf_counter()
    return untraced, traced, whole


# -- rpc-small-burst ---------------------------------------------------------------


def _burst_requests(seed0: int, count: int) -> List:
    from repro.scenarios.generators import mixed_batch
    from repro.service.batch import requests_from_scenarios

    return requests_from_scenarios(
        mixed_batch(
            count, mix="multiplex/bursty", multiplex_sizes=(8, 12), seed0=seed0
        ),
        engine="fast",
    )


def _bursts(client, requests, offset, seconds, rec=None) -> Window:
    """``Client.run`` over bursts of :data:`BURST` until ``seconds`` pass.

    Wraps the client's ``submit``/``collect`` from outside to time each
    envelope: a request's latency is its envelope's submit -> collected.
    """
    window = Window(start=time.perf_counter())
    deadline = window.start + seconds
    submit, collect = client.submit, client.collect
    opened: Dict[int, float] = {}
    ids: Dict[int, int] = {}

    def timed_submit(reqs, **kw):
        t0 = time.perf_counter()
        if rec is None:
            channel = submit(reqs, **kw)
        else:
            with rec.span("client.submit", offset + len(opened)) as sp:
                channel = submit(reqs, **kw)
            ids[channel] = sp.request
        opened[channel] = t0
        return channel

    def timed_collect(channel):
        if rec is None:
            out = collect(channel)
        else:
            with rec.span("client.collect", ids[channel]):
                out = collect(channel)
        t1 = time.perf_counter()
        window.latency_s.extend([t1 - opened[channel]] * len(out))
        window.done_at.extend([t1] * len(out))
        return out

    client.submit, client.collect = timed_submit, timed_collect
    try:
        i = offset
        while i < len(requests) and (i == offset or time.perf_counter() < deadline):
            burst = requests[i:i + BURST]
            window.summaries += client.run(burst, chunk=BURST_CHUNK)
            i += len(burst)
    finally:
        del client.submit, client.collect
    window.end = time.perf_counter()
    return window


def run_burst(seed: int, seconds: float, trace: bool) -> bl.Outcome:
    spawns = 1 if trace else SPAWNS
    serve, spawn_s, clean = _start("process", spawns)
    requests = _burst_requests(
        bl.timed_seed0(seed), max(40 * BURST, int(2000 * seconds))
    )
    warm = _burst_requests(bl.warm_seed0(seed), BURST_WARM_BURSTS * BURST)
    rec = bl.SpanRecorder()
    client = None
    gateway = None
    try:
        client = serve.client()
        t0 = time.perf_counter()
        for k in range(BURST_WARM_BURSTS):
            _bursts(client, warm, k * BURST, 0.0)
        warm_s = time.perf_counter() - t0
        bytes0 = _bytes([client])
        if not trace:
            window = _bursts(client, requests, 0, seconds)
            bl.assert_untraced(rec)
            untraced, traced = window, None
        else:
            untraced, traced, window = _alternate(
                lambda offset, secs, r: _bursts(client, requests, offset, secs, r),
                seconds, rec,
            )
            gateway = client.metrics()["gateway"]
        wire_bytes = _bytes([client]) - bytes0
    finally:
        if client is not None:
            client.close()
        clean = serve.stop() and clean
    return _finish(
        "rpc-small-burst", window, untraced, traced, rec, (spawn_s, warm_s),
        clean,
        envelope=BURST_CHUNK, wire_bytes=wire_bytes,
        gateway=gateway,
    )


# -- shared reporting ----------------------------------------------------------------


def _finish(
    name, window, untraced, traced, rec, setup, clean, *,
    envelope, wire_bytes, gateway,
) -> bl.Outcome:
    spawn_s, warm_s = setup
    summaries = window.summaries
    requests = [s.request for s in summaries]
    if traced is None:
        reference = bl.reference_pass(requests)
    else:
        executor = bl.TracedExecutor(bl.SpanRecorder())
        reference = [executor(r, i) for i, r in enumerate(requests)]
    check = bl.check_summaries(summaries, reference)
    rates = bl.thirds(window.done_at, window.start, window.end)
    # Requests of one envelope share its latency: one sample per envelope.
    samples = len(window.latency_s) // envelope
    host = {
        "spawn_s": round(spawn_s, 4),
        "warm_s": round(warm_s, 4),
        "requests": len(summaries),
        "window_s": round(window.seconds, 3),
        "throughput_thirds_rps": [round(r, 2) for r in rates],
        "drift_frac": round(bl.drift_frac(rates), 4),
        "latency_samples": samples,
        "latency_rule_percentile": bl.supported_percentile(samples),
        "latency_ms_p90_p99": [
            round(bl.percentile(window.latency_s, p) * 1e3, 3) for p in (90, 99)
        ],
    }
    statuses: Dict[str, int] = {}
    for s in summaries:
        statuses[s.status] = statuses.get(s.status, 0) + 1
    host["statuses"] = statuses
    if traced is None:
        metrics = {
            "setup_s": spawn_s + warm_s,
            "throughput_rps": window.rate,
            "latency_ms.p50": bl.median(window.latency_s) * 1e3,
            "latency_ms.p95": bl.percentile(window.latency_s, 95.0) * 1e3,
            "peak_rss_mb": _children_rss_mb(),
        }
        return bl.Outcome(check, metrics, host, clean_exit=clean)
    metrics = _layers(
        name, window, untraced, traced, rec, executor, reference, check,
        envelope=envelope, wire_bytes=wire_bytes, gateway=gateway,
    )
    return bl.Outcome(check, metrics, host, clean_exit=clean)


def _codec_us(requests, summaries, envelope) -> Dict[str, float]:
    """Per-request RENV codec and per-frame framing costs, timed offline
    on this workload's own requests and summaries at its envelope size."""
    from repro.service.net.framing import (
        FRAME_SUBMIT, Frame, FrameDecoder, encode_frame, pack_channel,
    )
    from repro.service.transport import (
        decode_requests, decode_summaries, encode_requests, encode_summaries,
    )

    reqs = [requests[i:i + envelope] for i in range(0, len(requests), envelope)]
    sums = [summaries[i:i + envelope] for i in range(0, len(summaries), envelope)]
    reqs, sums = reqs[:256], sums[:256]
    n_req = sum(len(r) for r in reqs)

    def per(fn, items, per_count, repeat=3) -> float:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            for item in items:
                fn(item)
            best = min(best, time.perf_counter() - t0)
        return best * 1e6 / per_count

    req_blobs = [encode_requests(r) for r in reqs]
    sum_blobs = [encode_summaries(s) for s in sums]
    frames = [Frame(FRAME_SUBMIT, pack_channel(1, b)) for b in req_blobs]
    wire = [encode_frame(f) for f in frames]

    def decode_frame(data: bytes) -> None:
        dec = FrameDecoder()
        dec.feed(data)
        dec.next_frame()

    return {
        "transport.encode_requests_us": per(encode_requests, reqs, n_req),
        "transport.decode_requests_us": per(decode_requests, req_blobs, n_req),
        "transport.encode_summaries_us": per(encode_summaries, sums, n_req),
        "transport.decode_summaries_us": per(
            lambda pair: decode_summaries(*pair),
            list(zip(sum_blobs, reqs)), n_req,
        ),
        "transport.request_bytes": sum(map(len, req_blobs)) / n_req,
        "transport.summary_bytes": sum(map(len, sum_blobs)) / n_req,
        "framing.encode_us": per(encode_frame, frames, len(frames)),
        "framing.decode_us": per(decode_frame, wire, len(wire)),
    }


def _layers(
    name, window, untraced, traced, rec, executor, reference, check, *,
    envelope, wire_bytes, gateway,
) -> Dict[str, float]:
    metrics = bl.layer_defaults()
    count = len(window.summaries)
    metrics.update(executor.layer_metrics(count))
    metrics.update(bl.engine_counts(traced.summaries))
    # Engine time is the server's own measurement of the remote runs.
    metrics["engine.run_ms"] = bl.mean([s.wall_s for s in traced.summaries]) * 1e3
    metrics.update(_codec_us(
        [s.request for s in window.summaries], reference, envelope
    ))

    # Per request: client latency = wire + queue + exec overhead + engine.
    wire, queue, overhead = [], [], []
    for s, lat in zip(traced.summaries, traced.latency_s):
        parts = (lat - s.latency_s, s.queue_s, s.latency_s - s.queue_s - s.wall_s)
        if min(parts) < -1e-6 or abs(sum(parts) + s.wall_s - lat) > 1e-9:
            raise AssertionError(
                f"latency identity broken for {s.request.name}: {parts}"
            )
        wire.append(parts[0])
        queue.append(parts[1])
        overhead.append(parts[2])
    latency_ms = bl.mean(traced.latency_s) * 1e3
    metrics["net.wire_ms"] = bl.mean(wire) * 1e3
    metrics["gateway.queue_ms.p50"] = bl.median(queue) * 1e3
    metrics["gateway.queue_ms.p99"] = bl.percentile(queue, 99.0) * 1e3
    metrics["gateway.exec_overhead_ms"] = bl.mean(overhead) * 1e3
    metrics["net.bytes_per_req"] = wire_bytes / count

    envelopes = max(1, len(rec.durations_ms("client.submit")))
    metrics["client.submit_us"] = rec.total_ms("client.submit") * 1e3 / envelopes
    metrics["client.collect_ms"] = rec.total_ms("client.collect") / envelopes

    service = gateway["service"]
    metrics["gateway.service_ms.p50"] = float(service["p50_ms"])
    metrics["gateway.service_ms.p99"] = float(service["p99_ms"])
    for key in (
        "queue_depth_mean", "queue_depth_max", "rejected", "cancelled",
        "failed", "pool_replacements",
    ):
        metrics[f"gateway.{key}"] = float(gateway[key])

    # What the spans and counters cover on one request's path: the
    # client's submit (which encodes), the server's frame and RENV decode
    # of the whole envelope, the gateway queue, executor overhead and
    # engine, the server's RENV and frame encode, the client's frame and
    # RENV decode.  The codec share is timed offline by _codec_us.
    codec_ms = (
        envelope * (
            metrics["transport.decode_requests_us"]
            + metrics["transport.encode_summaries_us"]
            + metrics["transport.decode_summaries_us"]
        )
        + 2 * metrics["framing.decode_us"]
        + metrics["framing.encode_us"]
    ) / 1e3
    parts = {
        "client.submit": metrics["client.submit_us"] / 1e3,
        "transport+framing": codec_ms,
        "gateway.queue": bl.mean(queue) * 1e3,
        "gateway.exec_overhead": metrics["gateway.exec_overhead_ms"],
        "engine.run": metrics["engine.run_ms"],
    }
    parts["unattributed"] = latency_ms - sum(parts.values())
    metrics["unattributed_ms"] = parts["unattributed"]
    metrics["unattributed_frac"] = metrics["unattributed_ms"] / latency_ms
    metrics["trace.overhead_frac"] = untraced.rate / traced.rate - 1.0
    metrics["fail_frac"] = check.failed / check.attempted
    bl.print_layers(parts, latency_ms, metrics["trace.overhead_frac"])
    print(
        f"{name}: latency = net.wire + gateway.queue + "
        f"gateway.exec_overhead + engine.run held for each of "
        f"{len(traced.summaries)} traced requests; means "
        f"{metrics['net.wire_ms']:.4f} + {parts['gateway.queue']:.4f} + "
        f"{parts['gateway.exec_overhead']:.4f} + {parts['engine.run']:.4f} "
        f"= {latency_ms:.4f} ms"
    )
    return metrics
