"""The network service: framing, negotiation, parity, shutdown.

Typed errors on every malformed-input path (unknown magic, oversized
frames, mid-frame disconnects, refused protocol versions — never
hangs), the 256-instance digest-parity differential (remote client ==
MockClient == in-process gateway == sequential), the drain test (server
shutdown with in-flight tickets resolves every future), per-session
quotas capped at the gateway queue and survivable refusals, the
docstring pass over the public client API, and the ``serve`` CLI's
SIGINT shutdown when it was started with SIGINT ignored.
"""

import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.engine import STATUS_COMPLETED
from repro.scenarios.generators import (
    REMOTE_SELFCHECK_MIX,
    mixed_batch,
    remote_selfcheck_batch,
)
from repro.scenarios.runner import ALGORITHMS, AlgorithmSpec, register_algorithm
from repro.service import BatchService, requests_from_scenarios, summaries_digest
from repro.service import stream as stream_mod
from repro.service.net import (
    BadMagic,
    Frame,
    FrameDecoder,
    NetError,
    NetTimeout,
    OversizedFrame,
    ServerError,
    SessionClosed,
    TruncatedFrame,
)
from repro.service.net.client import (
    Client,
    CommonClient,
    MockClient,
    _Connection,
)
from repro.service.net.framing import (
    FRAME_ERROR,
    FRAME_GOODBYE,
    FRAME_HELLO,
    FRAME_NEGOTIATE,
    FRAME_SUBMIT,
    FRAME_SUMMARY,
    HEADER,
    MAGIC,
    control_payload,
    encode_frame,
    pack_channel,
    parse_control,
    unpack_channel,
)
from repro.service.net.protocol import VERSION, encode_submit
from repro.service.net.server import NetServer, ServerThread
from repro.service.stream import serve

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch, engine="fast", seed0=900, **kwargs):
    return requests_from_scenarios(
        mixed_batch(batch, seed0=seed0, **SMALL_SIZES), engine=engine, **kwargs
    )


# -- framing: round-trips and typed malformed-input errors -------------------


def test_frame_roundtrip_survives_arbitrary_chunking():
    """The decoder reassembles frames from any byte-chunk schedule —
    including one byte at a time — because TCP never aligns reads with
    frame boundaries.
    """
    frames = [
        Frame(FRAME_HELLO, control_payload({"server": "x", "versions": [0, 1]})),
        Frame(FRAME_SUBMIT, pack_channel(7, b"\x01\x02\x03")),
        Frame(FRAME_GOODBYE, b""),
    ]
    wire = b"".join(encode_frame(f) for f in frames)
    for chunk in (1, 2, 5, len(wire)):
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(wire), chunk):
            decoder.feed(wire[i:i + chunk])
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                out.append(frame)
        decoder.eof()  # clean boundary: must not raise
        assert out == frames
        assert decoder.buffered == 0


def test_bad_magic_is_a_typed_error():
    decoder = FrameDecoder()
    decoder.feed(b"GET / HTTP/1.1\r\n")
    with pytest.raises(BadMagic):
        decoder.next_frame()


def test_oversized_frame_rejected_from_header_alone():
    """The length prefix is validated before the payload is buffered, so
    a corrupt (or hostile) header can never force a giant allocation."""
    decoder = FrameDecoder(max_frame=1024)
    decoder.feed(HEADER.pack(MAGIC, FRAME_SUBMIT, 0, 1 << 30))
    with pytest.raises(OversizedFrame):
        decoder.next_frame()
    with pytest.raises(OversizedFrame):
        encode_frame(Frame(FRAME_SUBMIT, b"x" * 2048), max_frame=1024)


def test_mid_frame_eof_is_a_typed_error():
    full = encode_frame(Frame(FRAME_SUBMIT, pack_channel(1, b"payload")))
    for cut in (1, HEADER.size, len(full) - 1):
        decoder = FrameDecoder()
        decoder.feed(full[:cut])
        assert decoder.next_frame() is None
        with pytest.raises(TruncatedFrame):
            decoder.eof()


def test_control_payloads_are_canonical_and_validated():
    assert control_payload({"b": 1, "a": 2}) == b'{"a":2,"b":1}'
    assert parse_control(b'{"x": 3}') == {"x": 3}
    with pytest.raises(NetError):
        parse_control(b"not json")
    with pytest.raises(NetError):
        parse_control(b"[1,2,3]")  # must be an object


def test_channel_prefix_roundtrip_and_truncation():
    channel, envelope = unpack_channel(pack_channel(41, b"abc"))
    assert (channel, envelope) == (41, b"abc")
    with pytest.raises(TruncatedFrame):
        unpack_channel(b"\x00\x01")  # shorter than the u32 prefix


# -- raw-socket protocol violations: typed errors, never hangs ---------------


def _read_frame(sock, decoder):
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return frame
        data = sock.recv(65536)
        if not data:
            decoder.eof()
            raise AssertionError("peer closed without the expected frame")
        decoder.feed(data)


def _expect_error_then_goodbye(sock, decoder, code):
    frame = _read_frame(sock, decoder)
    assert frame.type == FRAME_ERROR, frame.name
    doc = parse_control(frame.payload)
    assert doc["code"] == code, doc
    assert frame.type == FRAME_ERROR
    bye = _read_frame(sock, decoder)
    assert bye.type == FRAME_GOODBYE


@pytest.fixture(scope="module")
def loopback_server():
    """One shared small server for the raw-socket violation tests."""
    with ServerThread(workers=2, max_frame=65536, session_quota=8) as st:
        yield st


def _dial(st):
    sock = socket.create_connection((st.host, st.port), timeout=10)
    sock.settimeout(10)
    decoder = FrameDecoder()
    hello = _read_frame(sock, decoder)
    assert hello.type == FRAME_HELLO
    return sock, decoder, parse_control(hello.payload)


def test_server_hello_advertises_info(loopback_server):
    sock, decoder, hello = _dial(loopback_server)
    try:
        assert hello["server"] == "repro.service.net"
        assert hello["versions"] == [VERSION]
        assert hello["max_frame"] == 65536
        assert hello["quota"] == 8
    finally:
        sock.close()


def test_garbage_bytes_get_typed_error_and_goodbye(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(b"\x00garbage that is definitely not a frame\x00")
        _expect_error_then_goodbye(sock, decoder, "bad-magic")
    finally:
        sock.close()


def test_oversized_announcement_gets_typed_error(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(HEADER.pack(MAGIC, FRAME_NEGOTIATE, 0, 1 << 30))
        _expect_error_then_goodbye(sock, decoder, "oversized-frame")
    finally:
        sock.close()


@pytest.mark.parametrize("version", [0, 1, 99])
def test_unknown_version_gets_typed_error(loopback_server, version):
    """The server speaks one version; the retired dialects 0 and 1 are
    refused exactly like a version from the future."""
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(
            encode_frame(
                Frame(FRAME_NEGOTIATE, control_payload({"version": version}))
            )
        )
        _expect_error_then_goodbye(sock, decoder, "handshake")
    finally:
        sock.close()


def test_data_frame_before_handshake_gets_typed_error(loopback_server):
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(encode_frame(Frame(FRAME_SUBMIT, pack_channel(1, b"x"))))
        _expect_error_then_goodbye(sock, decoder, "handshake")
    finally:
        sock.close()


def test_mid_frame_disconnect_leaves_server_serving(loopback_server):
    """A peer that dies mid-frame must not wedge the server: the next
    connection gets a normal HELLO and a working session."""
    sock, decoder, _ = _dial(loopback_server)
    frame = encode_frame(
        Frame(FRAME_NEGOTIATE, control_payload({"version": VERSION}))
    )
    sock.sendall(frame[: len(frame) - 3])  # cut the frame short
    sock.close()
    # the server carries on: a fresh client completes a full exchange
    with Client(
        loopback_server.host, loopback_server.port, timeout=10
    ) as client:
        summaries = client.run(_requests(4), chunk=2)
    assert len(summaries) == 4 and all(s.ok for s in summaries)


def test_client_sent_server_frame_gets_unsupported_frame(loopback_server):
    """A frame type a client may not send (here SUMMARY, which only the
    server emits) gets the typed ``unsupported-frame`` error."""
    sock, decoder, _ = _dial(loopback_server)
    try:
        sock.sendall(
            encode_frame(
                Frame(FRAME_NEGOTIATE, control_payload({"version": VERSION}))
            )
        )
        accept = _read_frame(sock, decoder)
        assert parse_control(accept.payload)["version"] == VERSION
        sock.sendall(encode_frame(Frame(FRAME_SUMMARY, pack_channel(1, b""))))
        _expect_error_then_goodbye(sock, decoder, "unsupported-frame")
    finally:
        sock.close()


def test_client_never_hangs_on_a_silent_server():
    """A listener that accepts and says nothing: every client operation
    surfaces a typed NetTimeout within its deadline."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()
    client = _Connection(host, port, timeout=0.3)
    t0 = time.monotonic()
    with pytest.raises(NetTimeout):
        client.connect()
    assert time.monotonic() - t0 < 5.0
    listener.close()



# -- negotiated sessions over real sockets -----------------------------------


def test_v1_session_metrics_and_drain():
    requests = _requests(6)
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, timeout=30) as client:
            assert client.protocol_version == VERSION
            channel = client.submit(requests)
            flushed = client.drain()
            assert flushed >= 0
            doc = client.metrics()
            assert doc["engine"] == "fast"
            assert doc["sessions"] == 1
            gateway = doc["gateway"]
            assert gateway["offered"] == len(requests)
            summaries = client.collect(channel)
    assert all(s.ok for s in summaries)


def test_session_quota_is_enforced_and_survivable():
    """An envelope above the session quota gets a channel-tagged
    ``quota-exceeded`` error; the session stays usable afterwards."""
    requests = _requests(8)
    with ServerThread(workers=2, session_quota=4) as st:
        with _Connection(st.host, st.port, timeout=30) as client:
            assert client.session_quota == 4
            channel = client.submit(requests)  # 8 > quota of 4
            with pytest.raises(ServerError) as excinfo:
                client.collect(channel)
            assert excinfo.value.code == "quota-exceeded"
            assert excinfo.value.channel == channel
            # the same session still serves within-quota envelopes
            ok_channel = client.submit(requests[:3])
            summaries = client.collect(ok_channel)
            assert len(summaries) == 3 and all(s.ok for s in summaries)
            # and run() windows itself under the quota automatically
            summaries = client.run(requests, chunk=8)
            assert len(summaries) == 8 and all(s.ok for s in summaries)


def test_refusal_is_parked_for_its_own_channel():
    """A survivable refusal of one envelope is that channel's answer: it
    never surfaces out of another channel's collect, and collecting the
    refused channel raises it at once, without a read that would wait out
    the socket timeout."""
    requests = _requests(8)
    with ServerThread(workers=2, session_quota=4) as st:
        with _Connection(st.host, st.port, timeout=10) as client:
            refused = client.submit(requests)  # 8 > quota of 4
            ok = client.submit(requests[:3])
            summaries = client.collect(ok)
            assert len(summaries) == 3 and all(s.ok for s in summaries)
            t0 = time.monotonic()
            with pytest.raises(ServerError) as excinfo:
                client.collect(refused)
            assert excinfo.value.code == "quota-exceeded"
            assert excinfo.value.channel == refused
            # the refusal was the channel's one answer
            with pytest.raises(NetError) as again:
                client.collect(refused)
            assert not isinstance(again.value, NetTimeout)
            assert time.monotonic() - t0 < 1.0
            assert client.connected
            assert len(client.run(requests, chunk=4)) == 8


def test_refusal_does_not_leak_into_other_calls():
    """``metrics()`` right after a refused submit returns the metrics
    reply; the refusal waits for its channel's collect, and the session
    stays healthy for the next envelope."""
    requests = _requests(8)
    with ServerThread(workers=2, session_quota=4) as st:
        with _Connection(st.host, st.port, timeout=10) as client:
            refused = client.submit(requests)  # 8 > quota of 4
            doc = client.metrics()
            assert doc["session"] == client.session_id
            assert "gateway" in doc
            with pytest.raises(ServerError) as excinfo:
                client.collect(refused)
            assert excinfo.value.code == "quota-exceeded"
            assert excinfo.value.channel == refused
            assert client.connected
            summaries = client.collect(client.submit(requests[:4]))
            assert len(summaries) == 4 and all(s.ok for s in summaries)


def test_quota_never_exceeds_the_gateway_queue():
    """The server caps the session quota at its queue capacity, so an
    envelope the queue could not hold is refused whole with
    ``quota-exceeded`` instead of being admitted and losing rows to the
    gateway."""
    with ServerThread(workers=1, queue_cap=4) as st:
        with _Connection(st.host, st.port, timeout=30) as client:
            assert client.session_quota == 4
            assert client.server_info["quota"] == 4
            channel = client.submit(_requests(20))
            with pytest.raises(ServerError) as excinfo:
                client.collect(channel)
            assert excinfo.value.code == "quota-exceeded"
            assert client.metrics()["gateway"]["offered"] == 0


def test_no_admitted_row_is_rejected():
    """``Client.run`` through a 4-slot queue: every row executes once,
    the gateway rejects none, and nothing is resubmitted."""
    requests = _requests(20)
    expected = BatchService(workers=0).run_batch(requests).batch_digest()
    with ServerThread(workers=1, queue_cap=4) as st:
        with Client(st.host, st.port, timeout=30) as client:
            summaries = client.run(requests, chunk=20)
            gateway = client.metrics()["gateway"]
            assert client.resubmits == 0
    assert [s.status for s in summaries] == [STATUS_COMPLETED] * 20
    assert gateway["offered"] == gateway["completed"] == 20
    assert gateway["rejected"] == 0
    assert summaries_digest(summaries) == expected


def test_server_runs_an_envelope_as_one_hop(monkeypatch):
    """The gateway behind a server coalesces an envelope's queued rows:
    one worker runs an 8-row envelope as one executor hop, and the
    METRICS frame counts it."""
    hops = []
    real = stream_mod._run_tickets

    def counting(requests):
        hops.append(len(requests))
        return real(requests)

    monkeypatch.setattr(stream_mod, "_run_tickets", counting)
    requests = _requests(8, seed0=960)
    with ServerThread(workers=1) as st:
        with Client(st.host, st.port, timeout=30) as client:
            summaries = client.collect(client.submit(requests))
            gateway = client.metrics()["gateway"]
    assert hops == [8]
    assert gateway["hops"] == 1
    assert [s.status for s in summaries] == [STATUS_COMPLETED] * 8


def test_oversized_summary_is_a_typed_error_not_a_hang():
    """A SUMMARY larger than the server's own ``max_frame`` cannot be
    sent: the client gets a fatal ``oversized-frame`` ERROR naming the
    channel (then GOODBYE) well inside its timeout — the SUBMITs fit
    the cap, their answers do not."""
    requests = _requests(64)
    with ServerThread(workers=2, max_frame=1024) as st:
        client = _Connection(st.host, st.port, timeout=10).connect()
        t0 = time.monotonic()
        with pytest.raises(ServerError) as excinfo:
            client.run(requests, chunk=32)
        assert time.monotonic() - t0 < 5.0
        assert excinfo.value.code == "oversized-frame"
        assert excinfo.value.channel in (1, 2)
        assert not client.connected
        client.close()


def test_sessions_get_distinct_ids():
    with ServerThread(workers=2) as st:
        with Client(st.host, st.port, timeout=30) as a:
            with Client(st.host, st.port, timeout=30) as b:
                assert a.session_id != b.session_id


@pytest.fixture
def sleepy_algorithm():
    """A routing algorithm that sleeps before delegating to ``naive`` —
    guarantees tickets are genuinely in flight when shutdown starts."""
    name = "test-net-sleepy"
    naive = ALGORITHMS[("routing", "naive")]

    def run(inst, engine, seed):
        time.sleep(0.05)
        return naive.run(inst, engine, seed)

    register_algorithm(AlgorithmSpec(kind="routing", name=name, run=run))
    yield name
    del ALGORITHMS[("routing", name)]


def test_graceful_shutdown_resolves_inflight_tickets(sleepy_algorithm):
    """The drain satellite: closing the server with tickets in flight
    flushes every SUMMARY before GOODBYE — no future is dropped."""
    scenarios = mixed_batch(6, mix="routing/balanced:1", seed0=77, **SMALL_SIZES)
    requests = requests_from_scenarios(
        scenarios, engine="fast", algorithm=sleepy_algorithm
    )
    st = ServerThread(workers=2)
    st.start()
    try:
        client = _Connection(st.host, st.port, timeout=30).connect()
        first = client.submit(requests[:3])
        second = client.submit(requests[3:])
        # the metrics round-trip is the acceptance barrier: the read loop
        # answers it only after both SUBMITs, so their tickets are now
        # genuinely in the gateway (and still running — each request
        # sleeps 50ms) when shutdown starts.
        doc = client.metrics()
        assert doc["inflight"] > 0 or doc["gateway"]["offered"] == 6
        st.close()
        summaries = client.collect(first) + client.collect(second)
        assert len(summaries) == len(requests)
        assert all(s.ok for s in summaries), [s.error for s in summaries]
        # after the flush the server is gone: the next exchange says so
        with pytest.raises((SessionClosed, NetError, OSError)):
            client.submit(requests[:1])
            client.collect(3)
        client.close()
    finally:
        st.close()


def test_draining_server_refuses_new_submits():
    """A SUBMIT that lands in the shutdown window gets the typed
    ``draining`` refusal plus GOODBYE rather than silently vanishing."""
    import asyncio

    requests = _requests(1)

    async def _read_frame(reader, decoder):
        while True:
            frame = decoder.next_frame()
            if frame is not None:
                return frame
            data = await reader.read(65536)
            assert data, "server closed before the expected frame"
            decoder.feed(data)

    async def _run():
        server = NetServer(workers=2)
        await server.start()
        assert not server.draining
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        decoder = FrameDecoder()
        hello = await _read_frame(reader, decoder)
        assert hello.type == FRAME_HELLO
        writer.write(
            encode_frame(
                Frame(FRAME_NEGOTIATE, control_payload({"version": VERSION}))
            )
        )
        await writer.drain()
        accept = await _read_frame(reader, decoder)
        assert parse_control(accept.payload)["version"] == VERSION
        # freeze the shutdown window: draining flag up, socket still open
        server._draining = True
        writer.write(encode_frame(encode_submit(1, requests, "k-drain")))
        await writer.drain()
        err = await _read_frame(reader, decoder)
        assert err.type == FRAME_ERROR
        assert parse_control(err.payload)["code"] == "draining"
        bye = await _read_frame(reader, decoder)
        assert bye.type == FRAME_GOODBYE
        writer.close()
        await server.close()
        assert server.sessions == 0

    asyncio.run(_run())


# -- the 256-instance digest-parity differential -----------------------------


def test_256_instance_differential_remote_mock_gateway_sequential():
    """The headline acceptance gate: one 256-instance full-taxonomy
    batch executed four ways — remote Client over loopback TCP,
    MockClient in memory, in-process StreamGateway, sequential
    baseline — must produce byte-identical digests."""
    requests = requests_from_scenarios(
        remote_selfcheck_batch(256, seed0=0), engine="fast"
    )

    sequential = BatchService(workers=0).run_batch(requests)
    assert sequential.ok, sequential.failures
    expected = sequential.batch_digest()

    mock = MockClient().connect()
    mock_digest = summaries_digest(mock.run(requests))
    mock.close()
    assert mock_digest == expected

    gateway_report = serve(
        requests,
        [0.0] * len(requests),
        workers=4,
        backend="thread",
        policy="block",
        queue_cap=64,
    )
    assert gateway_report.ok, gateway_report.failures
    assert summaries_digest(gateway_report.summaries) == expected

    with ServerThread(workers=4, queue_cap=64) as st:
        with Client(st.host, st.port, timeout=120) as client:
            remote = client.run(requests, chunk=32)
    assert len(remote) == len(requests)
    assert all(s.ok for s in remote), [s.error for s in remote if not s.ok]
    assert summaries_digest(remote) == expected


def test_mock_client_mirrors_the_client_surface():
    requests = _requests(5)
    mock = MockClient(engine="fast")
    with pytest.raises(SessionClosed):
        mock.submit(requests)
    with mock as client:
        assert client.protocol_version == VERSION
        assert client.server_info["server"] == MockClient.SERVER
        channel = client.submit(requests)
        summaries = client.collect(channel)
        assert len(summaries) == 5 and all(s.ok for s in summaries)
        with pytest.raises(NetError):
            client.collect(channel)  # each channel collects exactly once
        assert client.drain() == 0
        assert client.metrics()["engine"] == "fast"
    with pytest.raises(SessionClosed):
        mock.drain()


# -- CLI ---------------------------------------------------------------------


def test_cli_selfcheck(capsys):
    from repro.service.__main__ import main

    assert main(["selfcheck", "--requests", "10", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: sequential digest -> match" in out


@pytest.mark.parametrize("verb", ["serve", "selfcheck", "soak"])
def test_server_verbs_take_no_queue_policy(verb, capsys):
    """A server's gateway never sees more rows than its queue holds, so
    the verbs that start one have no ``--policy``; ``stream`` keeps it."""
    from repro.service.__main__ import _parser

    with pytest.raises(SystemExit) as exc:
        _parser().parse_args([verb, "--policy", "block"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --policy block" in capsys.readouterr().err
    args = _parser().parse_args(["stream", "--policy", "block"])
    assert args.policy == "block"


def test_serve_stops_on_sigint_inherited_as_ignored():
    """A shell without job control starts ``serve &`` with SIGINT
    ignored.  ``serve`` restores the default handler, so ``kill -INT``
    still drains it and it exits 0."""
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.net", "serve",
            "--port", "0", "--workers", "1", "--backend", "thread",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    ) as proc:
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                assert sel.select(30), "serve printed no address in time"
            assert "serving on" in proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=20)
            assert proc.returncode == 0
            assert "shutting down" in err
        finally:
            proc.kill()


def test_process_serve_stops_on_sigint_and_leaves_no_worker():
    """``serve --backend process`` started like ``serve &`` drains on
    SIGINT, exits 0, and reaps its worker processes first."""
    if not Path(f"/proc/self/task/{os.getpid()}/children").exists():
        pytest.skip("needs /proc/<pid>/task/<tid>/children")
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--port", "0", "--workers", "2", "--backend", "process",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    ) as proc:
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                assert sel.select(30), "serve printed no address in time"
            assert "serving on" in proc.stdout.readline()
            listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            workers = [int(pid) for pid in listing.read_text().split()]
            assert len(workers) == 2
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=20)
            assert proc.returncode == 0
            assert "shutting down" in err
        finally:
            proc.kill()
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_remote_selfcheck_mix_covers_the_full_taxonomy():
    """The selfcheck differential's value is coverage: its mix must name
    every family the scenario taxonomy registers."""
    from repro.scenarios.generators import _BUILDERS, parse_mix

    covered = {(k, f) for k, f, _ in parse_mix(REMOTE_SELFCHECK_MIX)}
    assert covered == set(_BUILDERS)
    batch = remote_selfcheck_batch(64, seed0=3)
    assert len(batch) == 64
    assert {(s.kind, s.family) for s in batch} == set(_BUILDERS)


# -- docstring pass over the public client API -------------------------------


def test_public_client_api_is_documented():
    """The docs satellite's enforcement clause: every public class and
    method of the client library carries a docstring."""
    import inspect

    for cls in (CommonClient, _Connection, Client, MockClient):
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
