"""Regression tests for the attach/strip piggyback asymmetry.

``attach_piggyback`` always emits at least the broadcast word on every edge,
so a zero-word packet in a piggyback round means the sender skipped the
attach step.  ``strip_piggyback`` used to silently drop such packets — losing
the sender's broadcast word and desynchronizing termination protocols built
on it — and now reports them as a ``ProtocolError``.  Also covers the
capacity edge: piggybacking consumes exactly the one word of slack the
caller must reserve.
"""

import pytest

from repro.core import (
    CapacityExceeded,
    CongestedClique,
    FastEngine,
    Packet,
    ProtocolError,
    attach_piggyback,
    packet,
    run_protocol,
    strip_piggyback,
)

ENGINES = [
    "reference",
    pytest.param(FastEngine(validation="full"), id="fast-audit"),
]


def test_round_trip_recovers_every_broadcast_word():
    outbox = {0: packet(1, 2), 2: packet(7)}
    stamped = attach_piggyback(outbox, word=42, n=4)
    assert set(stamped) == {0, 1, 2, 3}  # fills unused edges
    # simulate node k receiving one stamped packet from each of 4 senders
    inbox = {src: stamped[src] for src in range(4)}
    clean, words = strip_piggyback(inbox)
    assert words == {0: 42, 1: 42, 2: 42, 3: 42}
    assert clean == {0: packet(1, 2), 2: packet(7)}


def test_round_trip_with_empty_payload_packet_keeps_the_broadcast_word():
    # An explicitly empty packet in the outbox must not lose the broadcast:
    # after attach it carries exactly the piggyback word, and strip reports
    # the word while (correctly) dropping the payloadless packet.
    outbox = {1: Packet(())}
    stamped = attach_piggyback(outbox, word=9, n=3)
    assert stamped[1] == packet(9)
    clean, words = strip_piggyback({1: stamped[1]})
    assert words == {1: 9}
    assert clean == {}


def test_empty_packet_in_piggyback_round_is_loud():
    # Regression: a zero-word packet was silently skipped, losing the
    # sender's broadcast word; it must now raise.
    with pytest.raises(ProtocolError, match="empty packet from node 2"):
        strip_piggyback({2: Packet(())})


@pytest.mark.parametrize("engine", ENGINES)
def test_piggyback_round_through_the_engine(engine):
    def prog(ctx):
        base = {} if ctx.node_id else {1: packet(5)}
        inbox = yield attach_piggyback(base, word=ctx.node_id + 10, n=ctx.n)
        clean, words = strip_piggyback(inbox)
        return (sorted(words.values()), sorted(clean))

    res = run_protocol(3, prog, engine=engine)
    for node_id, (words, payload_srcs) in enumerate(res.outputs):
        assert words == [10, 11, 12]
        assert payload_srcs == ([0] if node_id == 1 else [])


@pytest.mark.parametrize("engine", ENGINES)
def test_piggyback_at_capacity_edge_is_legal(engine):
    # The caller reserves one word of slack: capacity-1 payload words plus
    # the piggyback word exactly fill a packet.
    capacity = 4

    def prog(ctx):
        payload = {1: Packet(tuple(range(capacity - 1)))}
        inbox = yield attach_piggyback(payload, word=3, n=ctx.n)
        clean, words = strip_piggyback(inbox)
        return max(len(p.words) for p in inbox.values())

    res = run_protocol(2, prog, capacity=capacity, engine=engine)
    # node 1 received the full payload+piggyback packet; node 0 only saw
    # piggyback-only fillers.
    assert res.outputs == [1, capacity]


@pytest.mark.parametrize("engine", ENGINES)
def test_piggyback_without_slack_exceeds_capacity(engine):
    # Forgetting the slack word makes the stamped packet one word too big;
    # the engine audit must reject the round.
    capacity = 4

    def prog(ctx):
        payload = {1: Packet(tuple(range(capacity)))}
        yield attach_piggyback(payload, word=3, n=ctx.n)

    with pytest.raises(CapacityExceeded):
        run_protocol(2, prog, capacity=capacity, engine=engine)
