"""The fault-tolerance layer: reconnect, idempotent resume, fault proxy.

The backoff/circuit-breaker machinery in isolation, the toxic-spec
grammar, the protocol codec's CRC armour, the parametrized
:class:`CommonClient` contract suite over the two public clients and the
private single-socket connection, the through-proxy differential (digest
parity under injected faults, zero duplicate executions), the server's
admission control and lineage cache semantics, the client's one retry
loop (its dials and backoff sleeps counted, not timed), and the
cleanup / idempotent-close contracts on every error path.
"""

import json
import socket
import struct
import threading
import time
import types
import zlib

import pytest

from repro.core.engine import STATUS_COMPLETED
from repro.scenarios.generators import (
    flap_times,
    mixed_batch,
    remote_selfcheck_batch,
)
from repro.scenarios.runner import ALGORITHMS, AlgorithmSpec, register_algorithm
from repro.service import BatchService, requests_from_scenarios, summaries_digest
from repro.service.batch import execute_request
from repro.service.chaos import ChaosFault
from repro.service.net import (
    CorruptFrame,
    NetError,
    SessionClosed,
    TruncatedFrame,
)
from repro.service.net import client as client_module
from repro.service.net import protocol
from repro.service.net.client import (
    Client,
    CommonClient,
    MockClient,
    _Connection,
)
from repro.service.net.faultproxy import (
    FaultProxy,
    ProxyThread,
    Toxic,
    parse_toxic,
)
from repro.service.net.framing import (
    FRAME_ACCEPT,
    FRAME_HELLO,
    FRAME_NEGOTIATE,
    FRAME_SUBMIT,
    FRAME_SUMMARY,
    Frame,
    FrameDecoder,
    HandshakeError,
    ServerError,
    control_payload,
    encode_frame,
)
from repro.service.net.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    CircuitOpen,
    QuotaExceeded,
    RetriesExhausted,
)
from repro.service.net.server import ServerThread
from repro.service.transport import encode_summaries

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=1300, **kwargs):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine, **kwargs
    )


def _free_port():
    """A port that was just free — for dead-server and recovery tests."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture
def sleepy_algorithm():
    """A routing algorithm that sleeps before delegating to ``naive`` —
    guarantees requests are genuinely in flight when faults strike."""
    name = "test-resilience-sleepy"
    naive = ALGORITHMS[("routing", "naive")]

    def run(inst, engine, seed):
        time.sleep(0.1)
        return naive.run(inst, engine, seed)

    register_algorithm(AlgorithmSpec(kind="routing", name=name, run=run))
    yield name
    del ALGORITHMS[("routing", name)]


@pytest.fixture
def retry_log(monkeypatch):
    """The client's dials and backoff sleeps, in order.  The client
    module's ``time.sleep`` is replaced, so a backoff returns at once
    and the tests count sleeps instead of timing them."""
    log = []
    dial = _Connection.connect

    def logged_dial(self):
        log.append("dial")
        return dial(self)

    monkeypatch.setattr(_Connection, "connect", logged_dial)
    monkeypatch.setattr(
        client_module,
        "time",
        types.SimpleNamespace(
            monotonic=time.monotonic, sleep=lambda s: log.append("sleep")
        ),
    )
    return log


def _sleepy_requests(batch, sleepy, seed0=88):
    scenarios = mixed_batch(
        batch, mix="routing/balanced:1", seed0=seed0, **SMALL_SIZES
    )
    return requests_from_scenarios(
        scenarios, engine="fast", algorithm=sleepy
    )


# -- backoff policy ----------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = BackoffPolicy(base_s=0.1, factor=2.0, max_s=0.5, jitter_frac=0.0)
    rng = __import__("random").Random(0)
    assert policy.delay_s(1, rng) == pytest.approx(0.1)
    assert policy.delay_s(2, rng) == pytest.approx(0.2)
    assert policy.delay_s(3, rng) == pytest.approx(0.4)
    assert policy.delay_s(4, rng) == pytest.approx(0.5)  # capped
    assert policy.delay_s(50, rng) == pytest.approx(0.5)


def test_backoff_jitter_stays_inside_its_band():
    policy = BackoffPolicy(base_s=0.2, factor=1.0, max_s=1.0, jitter_frac=0.25)
    rng = __import__("random").Random(7)
    delays = [policy.delay_s(1, rng) for _ in range(200)]
    assert all(0.15 <= d <= 0.25 for d in delays)
    assert max(delays) - min(delays) > 0.01  # it actually jitters


def test_backoff_attempt_is_one_based():
    with pytest.raises(ValueError):
        BackoffPolicy().delay_s(0, __import__("random").Random(0))


# -- circuit breaker ---------------------------------------------------------


def test_breaker_opens_after_threshold_and_probes_half_open():
    breaker = CircuitBreaker(threshold=2, reset_s=0.05)
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    time.sleep(0.06)
    assert breaker.state == "half-open"
    assert breaker.allow()  # exactly one probe goes through
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed" and breaker.failures == 0


def test_breaker_reopens_when_the_probe_fails():
    breaker = CircuitBreaker(threshold=1, reset_s=0.05)
    breaker.record_failure()
    assert breaker.state == "open"
    time.sleep(0.06)
    assert breaker.allow()  # the probe
    breaker.record_failure()  # probe failed: re-open for another reset_s
    assert breaker.state == "open"
    assert not breaker.allow()


# -- toxic-spec grammar ------------------------------------------------------


@pytest.mark.parametrize(
    "spec, kind, value, direction",
    [
        ("latency:20", "latency", 20.0, "both"),
        ("jitter:5@up", "jitter", 5.0, "up"),
        ("rate:64@down", "rate", 64.0, "down"),
        ("disconnect:4096", "disconnect", 4096.0, "both"),
        ("blackhole", "blackhole", 0.0, "both"),
        ("blackhole:250@down", "blackhole", 250.0, "down"),
        ("corrupt:0.01", "corrupt", 0.01, "both"),
    ],
)
def test_parse_toxic_grammar(spec, kind, value, direction):
    toxic = parse_toxic(spec)
    assert toxic == Toxic(kind, value, direction)
    # the canonical spec string round-trips through the parser
    assert parse_toxic(toxic.spec) == toxic


@pytest.mark.parametrize(
    "spec",
    [
        "latency",            # missing value
        "bogus:5",            # unknown kind
        "latency:abc",        # non-numeric value
        "latency:-1",         # negative
        "corrupt:1.5",        # probability out of range
        "rate:0",             # non-positive rate
        "disconnect:0",       # non-positive byte budget
        "latency:5@sideways",  # bad direction
    ],
)
def test_malformed_toxic_specs_raise_the_chaos_error(spec):
    with pytest.raises(ChaosFault):
        parse_toxic(spec)


# -- protocol codec: keys and CRC armour -------------------------------------


def test_v2_submit_roundtrip_carries_the_idempotency_key():
    requests = _requests(2)
    frame = protocol.encode_submit(9, requests, "key-abc")
    channel, key, decoded = protocol.decode_submit(frame)
    assert (channel, key) == (9, "key-abc")
    assert decoded == list(requests)


def test_v2_flipped_bit_is_a_typed_corrupt_frame():
    requests = _requests(2)
    submit = protocol.encode_submit(1, requests, "k")
    damaged = bytearray(submit.payload)
    damaged[-1] ^= 0xFF  # envelope tail: covered by the CRC
    with pytest.raises(CorruptFrame):
        protocol.decode_submit(Frame(FRAME_SUBMIT, bytes(damaged)))

    summaries = [execute_request(r) for r in requests]
    summary = protocol.wrap_summary(1, encode_summaries(summaries))
    damaged = bytearray(summary.payload)
    damaged[-1] ^= 0xFF
    with pytest.raises(CorruptFrame):
        protocol.decode_summary(
            Frame(FRAME_SUMMARY, bytes(damaged)), requests
        )


def test_v2_cached_flag_roundtrips_and_preserves_bytes():
    requests = _requests(2)
    envelope = encode_summaries([execute_request(r) for r in requests])
    frame = protocol.wrap_summary(3, envelope, cached=True)
    assert frame.flags == protocol.FLAG_CACHED
    assert protocol.summary_cached(frame)
    assert protocol.summary_channel(frame) == 3
    fresh = protocol.wrap_summary(3, envelope)
    assert not protocol.summary_cached(fresh)
    # both wrap the same envelope bytes — the byte-identical-answer rule
    assert frame.payload == fresh.payload


def test_v2_oversized_key_is_rejected_before_the_wire():
    with pytest.raises(ValueError):
        protocol.encode_submit(1, _requests(1), "k" * 256)


def test_v2_non_ascii_key_is_a_typed_corrupt_frame():
    envelope = b"RENVgarbage"
    payload = (
        struct.pack("<I", 1)
        + struct.pack("<B", 2)
        + b"\xff\xfe"
        + struct.pack("<I", zlib.crc32(envelope) & 0xFFFFFFFF)
        + envelope
    )
    with pytest.raises(CorruptFrame):
        protocol.decode_submit(Frame(FRAME_SUBMIT, payload))


def test_v2_truncated_payloads_are_typed():
    with pytest.raises(TruncatedFrame):
        protocol.decode_submit(Frame(FRAME_SUBMIT, b"\x01"))
    with pytest.raises(TruncatedFrame):
        protocol.summary_channel(Frame(FRAME_SUMMARY, b"\x00"))


# -- the CommonClient contract, over every implementation -------------------


@pytest.fixture(scope="module")
def contract_server():
    """One shared server for the contract suite's wire-backed clients."""
    with ServerThread(workers=2) as st:
        yield st


@pytest.fixture(params=["mock", "tcp", "resilient"])
def make_client(request, contract_server):
    """A factory producing an unconnected client of each implementation:
    ``tcp`` is the single-socket connection, ``resilient`` the public
    reconnecting client."""
    def factory():
        if request.param == "mock":
            return MockClient()
        if request.param == "tcp":
            return _Connection(
                contract_server.host, contract_server.port, timeout=10
            )
        return Client(contract_server.host, contract_server.port, timeout=10)

    return factory


def test_contract_run_matches_the_sequential_digest(make_client):
    requests = _requests(12)
    expected = BatchService(workers=0).run_batch(requests).batch_digest()
    with make_client() as client:
        summaries = client.run(requests, chunk=5)
    assert len(summaries) == len(requests)
    assert summaries_digest(summaries) == expected


def test_contract_submit_collect_rejoins_in_order(make_client):
    requests = _requests(4)
    with make_client() as client:
        channel = client.submit(requests)
        summaries = client.collect(channel)
        assert [s.request for s in summaries] == list(requests)
        assert all(s.status == STATUS_COMPLETED for s in summaries)
        # a channel collects exactly once
        with pytest.raises(NetError):
            client.collect(channel)


def test_contract_unknown_channel_is_a_typed_error(make_client):
    with make_client() as client:
        with pytest.raises(NetError):
            client.collect(987654)


def test_contract_drain_resume_metrics_shapes(make_client):
    with make_client() as client:
        assert isinstance(client.drain(), int)
        keys = client.resume("contract-lineage")
        assert isinstance(keys, list)
        doc = client.metrics()
        assert "gateway" in doc and "engine" in doc


def test_contract_close_is_idempotent_from_every_state(make_client):
    # close without ever connecting
    client = make_client()
    client.close()
    client.close()
    # close twice after a session, then observe the typed closed state
    client = make_client()
    client.connect()
    assert client.connected
    client.close()
    assert not client.connected
    client.close()
    with pytest.raises(SessionClosed):
        client.protocol_version


# -- fault proxy: pass-through parity and each toxic -------------------------


def test_proxy_pass_through_preserves_digests():
    requests = _requests(16, seed0=1410)
    expected = BatchService(workers=0).run_batch(requests).batch_digest()
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port, toxics=["latency:1"]) as proxy:
            with Client(proxy.host, proxy.port, timeout=10) as client:
                summaries = client.run(requests, chunk=8)
            stats = proxy.stats()
    assert summaries_digest(summaries) == expected
    assert stats["connections"] >= 1
    assert stats["bytes_up"] > 0 and stats["bytes_down"] > 0


def test_corrupting_proxy_fails_the_plain_client_with_a_typed_error():
    """Without the resilience layer, corruption is connection-fatal: a
    typed NetError (CorruptFrame end to end, or the decoder's own
    errors when the flip lands in a header), never a hang — and the
    client is hard-closed afterwards."""
    requests = _requests(24, seed0=1420)
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port) as proxy:
            client = _Connection(proxy.host, proxy.port, timeout=3)
            client.connect()
            proxy.set_toxics(["corrupt:1@up"])
            with pytest.raises(NetError):
                client.run(requests, chunk=8)
            assert not client.connected
            with pytest.raises(SessionClosed):
                client.drain()
            client.close()  # idempotent from the aborted state


def test_disconnect_toxic_cuts_mid_frame_with_a_typed_error():
    requests = _requests(48, seed0=1430)
    with ServerThread(workers=2) as st:
        with ProxyThread(
            st.host, st.port, toxics=["disconnect:2048"]
        ) as proxy:
            client = _Connection(proxy.host, proxy.port, timeout=5)
            client.connect()
            with pytest.raises((SessionClosed, TruncatedFrame)):
                client.run(requests, chunk=8)
            assert not client.connected
            assert proxy.stats()["disconnects"] >= 1


def test_blackhole_toxic_surfaces_as_a_client_timeout():
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port, toxics=["blackhole"]) as proxy:
            client = _Connection(proxy.host, proxy.port, timeout=0.3)
            with pytest.raises(NetError):
                client.connect()  # HELLO never arrives
            client.close()


def test_proxy_with_dead_upstream_fails_connections_typed():
    with ProxyThread("127.0.0.1", _free_port()) as proxy:
        client = _Connection(proxy.host, proxy.port, timeout=2)
        with pytest.raises(NetError):
            client.connect()
        client.close()


def test_proxy_thread_close_is_idempotent_and_safe_after_failed_start():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        bad = ProxyThread(
            "127.0.0.1", 1, port=blocker.getsockname()[1]
        )
        with pytest.raises(OSError):
            bad.start()
        bad.close()
        bad.close()
    finally:
        blocker.close()
    good = ProxyThread("127.0.0.1", _free_port()).start()
    good.close()
    good.close()


# -- resilient client: reconnect, dedup, differential ------------------------


def test_resilient_client_survives_flapping_with_digest_parity(
    sleepy_algorithm,
):
    """The reconnect differential's core: connections die repeatedly
    mid-run, yet the digest is byte-identical to the unfailed baseline
    and the gateway executed each request exactly once."""
    requests = _sleepy_requests(24, sleepy_algorithm, seed0=1440)
    expected = BatchService(workers=0).run_batch(requests).batch_digest()
    with ServerThread(workers=2, queue_cap=256) as st:
        with ProxyThread(st.host, st.port) as proxy:
            stop = threading.Event()

            def flapper():
                while not stop.wait(0.12):
                    proxy.drop_connections()

            thread = threading.Thread(target=flapper, daemon=True)
            client = Client(
                proxy.host,
                proxy.port,
                timeout=5,
                backoff=BackoffPolicy(base_s=0.02, max_s=0.2, deadline_s=30),
                breaker=CircuitBreaker(threshold=50),
                seed=1,
            )
            with client:
                thread.start()
                try:
                    summaries = client.run(requests, chunk=4)
                finally:
                    stop.set()
                    thread.join(timeout=2)
                metrics = client.metrics()
                stats = client.stats()
            assert client.pending == 0  # zero stranded futures
    assert len(summaries) == len(requests)
    assert summaries_digest(summaries) == expected
    assert stats["reconnects"] >= 1
    # exactly one execution per request: resubmits after flaps were
    # answered from the lineage cache / coalesced, never re-executed.
    assert metrics["gateway"]["offered"] == len(requests)
    idem = metrics["idempotency"]
    assert idem["hits"] + idem["coalesced"] >= client.cache_hits


def test_through_proxy_differential_256_instances_with_faults():
    """The acceptance differential: the full REMOTE_SELFCHECK_MIX
    through the fault proxy (latency + periodic mid-frame disconnects)
    comes out byte-identical to the sequential baseline, with zero
    duplicate executions."""
    requests = requests_from_scenarios(
        remote_selfcheck_batch(256, seed0=0), engine="fast"
    )
    expected = BatchService(workers=0).run_batch(requests).batch_digest()
    with ServerThread(workers=4, queue_cap=256) as st:
        with ProxyThread(
            st.host, st.port, toxics=["latency:1", "disconnect:65536"]
        ) as proxy:
            client = Client(
                proxy.host,
                proxy.port,
                timeout=10,
                backoff=BackoffPolicy(base_s=0.02, max_s=0.2, deadline_s=60),
                breaker=CircuitBreaker(threshold=50),
                seed=2,
            )
            with client:
                summaries = client.run(requests, chunk=32)
                metrics = client.metrics()
            assert client.pending == 0
    assert summaries_digest(summaries) == expected
    assert metrics["gateway"]["offered"] == len(requests)


def test_resilient_submit_channel_is_stable_across_reconnects():
    requests = _requests(3, seed0=1450)
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port) as proxy:
            with Client(
                proxy.host,
                proxy.port,
                timeout=5,
                backoff=BackoffPolicy(base_s=0.01, max_s=0.1, deadline_s=20),
            ) as client:
                channel = client.submit(requests)
                proxy.drop_connections()  # kill it between submit and collect
                summaries = client.collect(channel)
                assert len(summaries) == len(requests)
                assert client.reconnects >= 1


def test_client_counters_survive_a_reconnect():
    """The counters the benchmark reads (wire bytes, cache hits) keep
    counting across a dropped connection and never go down."""
    names = (
        "bytes_sent", "bytes_received", "cache_hits",
        "reconnects", "resubmits", "retry_afters",
    )
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port) as proxy:
            with Client(
                proxy.host,
                proxy.port,
                timeout=5,
                backoff=BackoffPolicy(base_s=0.01, max_s=0.1, deadline_s=20),
            ) as client:
                snapshots = []

                def snapshot():
                    snapshots.append({n: getattr(client, n) for n in names})

                snapshot()
                client.run(_requests(4, seed0=1455), chunk=2)
                snapshot()
                proxy.drop_connections()
                snapshot()
                client.run(_requests(4, seed0=1456), chunk=2)
                snapshot()
    assert client.reconnects == 1
    before, after = snapshots[2], snapshots[3]
    assert after["bytes_sent"] > before["bytes_sent"]
    assert after["bytes_received"] > before["bytes_received"]
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert all(later[n] >= earlier[n] for n in names), (earlier, later)


def test_server_death_mid_collect_is_typed_and_fast(sleepy_algorithm):
    """The mid-collect cleanup satellite: killing the connection while
    collect() is blocked yields a typed error immediately, and every
    later call on the aborted client fails fast — no hangs, no leaked
    socket state."""
    requests = _sleepy_requests(4, sleepy_algorithm, seed0=1460)
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port) as proxy:
            client = _Connection(proxy.host, proxy.port, timeout=10)
            client.connect()
            channel = client.submit(requests)
            killer = threading.Timer(0.05, proxy.drop_connections)
            killer.start()
            try:
                with pytest.raises((SessionClosed, TruncatedFrame)):
                    client.collect(channel)
            finally:
                killer.cancel()
            assert not client.connected
            t0 = time.perf_counter()
            with pytest.raises(SessionClosed):
                client.collect(channel)
            with pytest.raises(SessionClosed):
                client.drain()
            assert time.perf_counter() - t0 < 0.5
            client.close()
            client.close()


# -- lineage cache semantics (dedup, coalescing, eviction) -------------------


def test_resubmitting_a_key_is_answered_from_the_cache():
    requests = _requests(3, seed0=1470)
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, timeout=10) as client:
            client.resume("lin-dedup")
            first = client.collect(client.submit(requests, key="k1"))
            again = client.collect(client.submit(requests, key="k1"))
            assert client.cache_hits == 1
            assert summaries_digest(first) == summaries_digest(again)
            idem = client.metrics()["idempotency"]
            assert idem["hits"] >= 1 and idem["cached_keys"] >= 1
        # a later connection resuming the same lineage sees the key
        with Client(st.host, st.port, timeout=10) as other:
            assert "k1" in other.resume("lin-dedup")


def test_rebound_lineage_survives_a_redial():
    """A redial RESUMEs the lineage ``resume()`` bound, not the one the
    client was built with: the resubmitted key is a cache hit."""
    requests = _requests(3, seed0=1475)
    with ServerThread(workers=2) as st:
        with ProxyThread(st.host, st.port) as proxy:
            with Client(
                proxy.host,
                proxy.port,
                timeout=10,
                backoff=BackoffPolicy(base_s=0.01, max_s=0.1, deadline_s=20),
            ) as client:
                client.resume("lin-x")
                first = client.collect(client.submit(requests, key="kx"))
                proxy.drop_connections()
                again = client.collect(client.submit(requests, key="kx"))
                offered = client.metrics()["gateway"]["offered"]
                assert client.cache_hits == 1
                assert client.reconnects == 1
    assert offered == len(requests)
    assert summaries_digest(first) == summaries_digest(again)


def test_racing_resubmit_coalesces_onto_the_first_execution(
    sleepy_algorithm,
):
    requests = _sleepy_requests(2, sleepy_algorithm, seed0=1480)
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, timeout=10) as client:
            client.resume("lin-coalesce")
            ch1 = client.submit(requests, key="kc")
            ch2 = client.submit(requests, key="kc")  # races the execution
            first = client.collect(ch1)
            second = client.collect(ch2)
            assert summaries_digest(first) == summaries_digest(second)
            assert client.cache_hits == 1
            idem = client.metrics()["idempotency"]
            assert idem["coalesced"] >= 1


def test_lineage_cache_evicts_lru_past_its_bound():
    requests = _requests(1, seed0=1490)
    with ServerThread(workers=2, idempotency_keys=2) as st:
        with Client(st.host, st.port, timeout=10) as client:
            client.resume("lin-evict")
            for key in ("ka", "kb", "kc"):
                client.collect(client.submit(requests, key=key))
            cached = client.resume("lin-evict")
            assert len(cached) <= 2
            assert "ka" not in cached  # oldest key evicted first
            assert client.metrics()["idempotency"]["evictions"] >= 1


# -- admission control (retry-after) -----------------------------------------


def test_saturated_gateway_refuses_with_retry_after(sleepy_algorithm):
    big = _sleepy_requests(3, sleepy_algorithm, seed0=1500)
    queued = _sleepy_requests(3, sleepy_algorithm, seed0=1505)
    small = _sleepy_requests(2, sleepy_algorithm, seed0=1510)
    with ServerThread(workers=1, queue_cap=3, session_quota=64) as st:
        with _Connection(st.host, st.port, timeout=10) as client, \
                _Connection(st.host, st.port, timeout=10) as other:
            ch_big = client.submit(big)
            # big's rows leave the queue in one hop; a second session's
            # rows then wait behind it and fill the queue.  A METRICS
            # call returns after its session's earlier frames are served.
            while client.metrics()["gateway"]["hops"] < 1:
                time.sleep(0.005)
            ch_queued = other.submit(queued)
            other.metrics()
            ch_small = client.submit(small)
            from repro.service.net import ServerError

            with pytest.raises(ServerError) as info:
                client.collect(ch_small)
            assert info.value.code == "retry-after"
            assert info.value.channel == ch_small
            assert (info.value.retry_after_ms or 0) > 0
            # the refusal is survivable: the session and the other
            # channel are intact, and the envelope retries cleanly.
            assert client.connected
            assert len(client.collect(ch_big)) == len(big)
            retried = client.collect(client.submit(small))
            assert all(s.status == STATUS_COMPLETED for s in retried)
            assert len(other.collect(ch_queued)) == len(queued)


def test_resilient_client_honours_retry_after(sleepy_algorithm):
    big = _sleepy_requests(3, sleepy_algorithm, seed0=1520)
    small = _sleepy_requests(2, sleepy_algorithm, seed0=1530)
    with ServerThread(workers=1, queue_cap=3, session_quota=64) as st:
        with Client(
            st.host,
            st.port,
            timeout=10,
            backoff=BackoffPolicy(base_s=0.02, max_s=0.2, deadline_s=30),
        ) as client:
            ch_big = client.submit(big)
            ch_small = client.submit(small)
            summaries = client.collect(ch_small)  # backs off, resubmits
            assert all(s.status == STATUS_COMPLETED for s in summaries)
            assert client.retry_afters >= 1
            assert len(client.collect(ch_big)) == len(big)


def test_envelope_larger_than_the_quota_fails_at_submit():
    """The server refuses such an envelope on every attempt, so the
    client raises before sending it instead of retrying to its
    deadline."""
    with ServerThread(workers=1, session_quota=4) as st:
        with Client(st.host, st.port, timeout=10) as client:
            sent = client.bytes_sent
            with pytest.raises(QuotaExceeded, match="quota of 4"):
                client.submit(_requests(6, seed0=1535))
            assert client.bytes_sent == sent
            assert client.pending == 0
            assert client.metrics()["gateway"]["offered"] == 0
            assert client.resubmits == client.retry_afters == 0


# -- dial failures: retries exhausted, circuit breaking, recovery ------------


def test_connection_to_a_dead_address_is_a_typed_error():
    """A refused dial is a typed SessionClosed like every later socket
    failure, not a raw ConnectionRefusedError."""
    client = _Connection("127.0.0.1", _free_port(), timeout=2)
    with pytest.raises(SessionClosed):
        client.connect()
    assert not client.connected
    client.close()


def test_dead_server_exhausts_retries_with_a_typed_error():
    client = Client(
        "127.0.0.1",
        _free_port(),
        timeout=0.5,
        backoff=BackoffPolicy(
            base_s=0.005, max_s=0.02, max_attempts=3, deadline_s=5
        ),
        breaker=CircuitBreaker(threshold=100),
    )
    with pytest.raises(RetriesExhausted):
        client.connect()
    client.close()


def test_open_circuit_fails_fast():
    client = Client(
        "127.0.0.1",
        _free_port(),
        timeout=0.5,
        backoff=BackoffPolicy(base_s=0.005, max_s=0.02, deadline_s=5),
        breaker=CircuitBreaker(threshold=2, reset_s=60),
    )
    with pytest.raises(CircuitOpen):
        client.connect()
    t0 = time.perf_counter()
    with pytest.raises(CircuitOpen):
        client.connect()
    assert time.perf_counter() - t0 < 0.1  # no dial, no backoff sleep
    client.close()


def test_half_open_probe_recovers_when_the_server_returns():
    port = _free_port()
    breaker = CircuitBreaker(threshold=1, reset_s=0.15)
    client = Client(
        "127.0.0.1",
        port,
        timeout=2,
        backoff=BackoffPolicy(
            base_s=0.005, max_s=0.01, max_attempts=1, deadline_s=5
        ),
        breaker=breaker,
    )
    with pytest.raises((CircuitOpen, RetriesExhausted)):
        client.connect()
    assert breaker.state == "open"
    with ServerThread(port=port, workers=2) as _:
        time.sleep(0.2)  # past reset_s: the next attempt is the probe
        client.connect()
        assert client.connected
        assert breaker.state == "closed" and breaker.failures == 0
        summaries = client.run(_requests(3, seed0=1540))
        assert len(summaries) == 3
        client.close()


def test_resilient_client_rejects_pre_v2_servers_without_retrying():
    """A server that cannot speak the idempotency dialect is
    configuration, not weather: one typed HandshakeError, no retries."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def v1_only_server():
        conn, _ = listener.accept()
        conn.settimeout(5)
        decoder = FrameDecoder()
        hello = {
            "server": "test-v1-only",
            "versions": [0, 1],
            "max_frame": 65536,
            "engine": "fast",
            "quota": 8,
        }
        conn.sendall(encode_frame(Frame(FRAME_HELLO, control_payload(hello))))
        while True:  # read NEGOTIATE
            frame = decoder.next_frame()
            if frame is not None:
                break
            data = conn.recv(65536)
            if not data:  # the client refused before negotiating
                conn.close()
                return
            decoder.feed(data)
        assert frame.type == FRAME_NEGOTIATE
        accept = {"version": 1, "session": 1, "quota": 8}
        conn.sendall(
            encode_frame(Frame(FRAME_ACCEPT, control_payload(accept)))
        )
        time.sleep(0.2)
        conn.close()

    thread = threading.Thread(target=v1_only_server, daemon=True)
    thread.start()
    try:
        client = Client("127.0.0.1", port, timeout=2)
        t0 = time.perf_counter()
        with pytest.raises(HandshakeError):
            client.connect()
        assert time.perf_counter() - t0 < 1.0  # no backoff loop
        assert client.breaker.failures == 1
        client.close()
    finally:
        thread.join(timeout=5)
        listener.close()


def test_dial_that_opens_the_breaker_raises_without_sleeping(retry_log):
    """``threshold`` failed dials open the breaker; the last one raises
    CircuitOpen at once, so only the ones before it sleep."""
    client = Client("127.0.0.1", _free_port(), timeout=2)
    with pytest.raises(CircuitOpen):
        client.connect()
    threshold = client.breaker.threshold
    assert retry_log == ["dial", "sleep"] * (threshold - 1) + ["dial"]
    client.close()


def test_dead_server_under_a_connected_client_opens_the_circuit(retry_log):
    """One retry loop bounds the call: the lost session and the redials
    share it, and the dial that opens the breaker ends it with
    CircuitOpen."""
    with ServerThread(workers=1) as st:
        client = Client(st.host, st.port, timeout=5)
        client.connect()
    with pytest.raises(CircuitOpen):
        client.metrics()
    threshold = client.breaker.threshold
    # the initial dial, then the failed call and each failed redial
    assert retry_log == ["dial"] + ["sleep", "dial"] * threshold
    client.close()


def test_handshake_error_while_redialling_ends_the_call(
    retry_log, monkeypatch
):
    """A handshake failure is configuration, not weather: met on a
    redial inside a call, it is raised at once."""
    with ServerThread(workers=1) as st:
        client = Client(st.host, st.port, timeout=5)
        client.connect()

        def refuse(self):
            retry_log.append("dial")
            raise HandshakeError("no mutual protocol version")

        monkeypatch.setattr(_Connection, "connect", refuse)
    with pytest.raises(HandshakeError):
        client.metrics()
    assert client.breaker.failures == 1
    assert retry_log == ["dial", "sleep", "dial"]
    client.close()


def test_server_handshake_refusal_ends_the_call(retry_log):
    """The server's ERROR of code ``handshake`` cannot change on a retry
    either: ``resume("")`` raises it at once, with no backoff sleep and
    no redial, and the client keeps its own lineage."""
    with ServerThread(workers=1) as st:
        client = Client(st.host, st.port, timeout=5)
        client.connect()
        lineage = client.lineage
        with pytest.raises(ServerError, match="no lineage") as info:
            client.resume("")
        assert info.value.code == "handshake"
        assert retry_log == ["dial"]
        assert client.reconnects == 0
        assert "gateway" in client.metrics()
        assert client.lineage == lineage
        client.close()


# -- server thread lifecycle satellites --------------------------------------


def test_server_thread_close_is_idempotent_and_safe_after_failed_start():
    st = ServerThread(workers=2)
    st.start()
    st.close()
    st.close()
    bad = ServerThread(session_quota=0)  # invalid: start() must fail
    with pytest.raises(RuntimeError):
        bad.start()
    bad.close()
    bad.close()


# -- flap schedule generator -------------------------------------------------


def test_flap_times_is_deterministic_and_inside_the_window():
    flaps = flap_times(3.0, 60.0, jitter_frac=0.2, seed=7)
    assert flaps == flap_times(3.0, 60.0, jitter_frac=0.2, seed=7)
    assert len(flaps) == 19  # one per period strictly inside (0, 60)
    assert all(0.0 < t < 60.0 for t in flaps)
    assert all(a < b for a, b in zip(flaps, flaps[1:]))
    exact = flap_times(2.0, 10.0)
    assert exact == [2.0, 4.0, 6.0, 8.0]  # jitter defaults to zero


def test_flap_times_validates_its_arguments():
    with pytest.raises(ValueError):
        flap_times(0.0, 10.0)
    with pytest.raises(ValueError):
        flap_times(1.0, -1.0)
    with pytest.raises(ValueError):
        flap_times(1.0, 10.0, jitter_frac=2.0)


# -- CLI ---------------------------------------------------------------------


def test_cli_selfcheck_resilient_through_the_fault_proxy(capsys):
    from repro.service.__main__ import main

    rc = main(
        [
            "selfcheck",
            "--requests", "12",
            "--workers", "2",
            "--toxic", "latency:1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "selfcheck: sequential digest -> match" in out


def test_cli_client_at_a_dead_address_prints_one_line(capsys):
    """The client gives up on a dead address with exit 1 and one stderr
    line naming the typed error, not a traceback."""
    from repro.service.__main__ import main

    assert main(
        ["client", "--port", str(_free_port()), "--requests", "2"]
    ) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("net error ("), lines
    assert "Traceback" not in captured.err


def test_cli_soak_passes_all_four_gates(capsys):
    from repro.service.__main__ import main

    rc = main(
        [
            "soak",
            "--duration", "2",
            "--rate", "4",
            "--flap-every", "1",
            "--workers", "2",
            "--json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] and all(doc["gates"].values())
    assert doc["stranded"] == 0
    assert doc["gateway_offered"] == doc["requests"]


# -- docstring pass over the resilience API ----------------------------------


def test_public_resilience_api_is_documented():
    """The docs satellite's enforcement clause, extended to the new
    layer: every public class, method and property is documented."""
    import inspect

    for cls in (
        BackoffPolicy,
        CircuitBreaker,
        Client,
        Toxic,
        FaultProxy,
        ProxyThread,
    ):
        assert inspect.getdoc(cls), f"{cls.__name__} lacks a docstring"
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert inspect.getdoc(member), (
                f"{cls.__name__}.{name} lacks a docstring"
            )
        for name, member in vars(cls).items():
            if isinstance(member, property) and not name.startswith("_"):
                assert member.__doc__, (
                    f"property {cls.__name__}.{name} lacks a docstring"
                )
