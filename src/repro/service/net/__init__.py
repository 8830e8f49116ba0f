"""Networked RPC front end: a binary frame protocol over TCP.

The first process boundary in the codebase crossed by a socket: an
asyncio server (:mod:`~repro.service.net.server`) fronts the existing
:class:`~repro.service.stream.StreamGateway` and speaks a
length-prefixed binary frame protocol whose data payloads are the
`RENV` columnar envelopes from :mod:`repro.service.transport` — no
per-request pickle on the wire.  Layers, bottom-up:

* :mod:`~repro.service.net.framing` — byte-level frames, the
  incremental decoder and the typed error vocabulary;
* :mod:`~repro.service.net.protocol` — the one wire dialect (version
  2): keyed, CRC-armoured SUBMIT and SUMMARY payloads;
* :mod:`~repro.service.net.server` — the asyncio server: handshake,
  session ids, per-session quotas, graceful drain, the per-lineage
  idempotency cache and overload admission control;
* :mod:`~repro.service.net.client` — the blocking :class:`Client` and
  in-memory :class:`MockClient` behind one :class:`CommonClient` base;
* :mod:`~repro.service.net.resilience` — :class:`ResilientClient`:
  reconnect with backoff and a circuit breaker, idempotent resume,
  ``retry-after`` compliance;
* :mod:`~repro.service.net.faultproxy` — a wire-level fault-injection
  TCP proxy (latency, jitter, rate caps, mid-frame disconnects,
  blackholes, corruption) for testing all of the above.

The wire format's normative specification is ``docs/PROTOCOL.md``;
``tests/test_net_protocol_doc.py`` pins the two together.

Command line (verbs of ``python -m repro.service``)::

    python -m repro.service serve --port 7707 --workers 4
    python -m repro.service client --port 7707 --requests 64
    python -m repro.service selfcheck --requests 256
    python -m repro.service selfcheck --resilient --toxic latency:5 \
        --toxic disconnect:65536
    python -m repro.service soak --duration 60 --flap-every 3

See DESIGN.md section 12.
"""

from .framing import (
    MAX_FRAME_BYTES,
    BadMagic,
    CorruptFrame,
    Frame,
    FrameDecoder,
    HandshakeError,
    NetError,
    NetTimeout,
    OversizedFrame,
    ServerError,
    SessionClosed,
    TruncatedFrame,
    UnsupportedFrame,
)

#: Submodule exports resolved lazily (PEP 562), mirroring
#: ``repro.service``: the client pulls in ``repro.service.batch`` and the
#: server pulls in ``repro.service.stream`` — neither belongs in
#: ``sys.modules`` just because someone imported the frame codec.
_CLIENT_EXPORTS = ("Client", "CommonClient", "MockClient")
_SERVER_EXPORTS = ("NetServer", "ServerThread")
_RESILIENCE_EXPORTS = (
    "BackoffPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "ResilientClient",
    "RetriesExhausted",
)
_FAULTPROXY_EXPORTS = ("FaultProxy", "ProxyThread", "Toxic", "parse_toxic")


def __getattr__(name: str):
    if name in _CLIENT_EXPORTS:
        from . import client

        return getattr(client, name)
    if name in _SERVER_EXPORTS:
        from . import server

        return getattr(server, name)
    if name in _RESILIENCE_EXPORTS:
        from . import resilience

        return getattr(resilience, name)
    if name in _FAULTPROXY_EXPORTS:
        from . import faultproxy

        return getattr(faultproxy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_FRAME_BYTES",
    "Frame",
    "FrameDecoder",
    "NetError",
    "BadMagic",
    "OversizedFrame",
    "TruncatedFrame",
    "CorruptFrame",
    "HandshakeError",
    "UnsupportedFrame",
    "ServerError",
    "SessionClosed",
    "NetTimeout",
    *_CLIENT_EXPORTS,
    *_SERVER_EXPORTS,
    *_RESILIENCE_EXPORTS,
    *_FAULTPROXY_EXPORTS,
]
