"""Engine error paths, exercised on every registered engine.

The model violations the reference engine audits loudly must not turn into
silent corruption or foreign exceptions on the fast path: duplicate sends
(`EdgeConflict` via outbox merging and idle-round auditing), packets to
finished nodes (`ProtocolError`), livelock (`max_rounds` abort), invalid
destinations and malformed outboxes (`ModelViolation`), and capacity /
word-size violations when validation is on.
"""

import pytest

from repro.core import (
    CapacityExceeded,
    CongestedClique,
    EdgeConflict,
    FastEngine,
    ModelViolation,
    Packet,
    ProtocolError,
    WordSizeViolation,
    idle,
    merge_outboxes,
    packet,
    run_protocol,
)

#: the fast loop auditing every packet, and auditing none.
FAST_AUDIT = pytest.param(FastEngine(validation="full"), id="fast-audit")
FAST_UNCHECKED = pytest.param(
    FastEngine(validation="off"), id="fast-unchecked"
)

#: engines whose error behavior must match; "fast-audit" validates every
#: packet, plain "fast" samples (stride 1 in these tests would be identical).
ENGINES = ["reference", "fast", FAST_AUDIT]

#: engines that audit every packet (capacity/word-size tests need this).
AUDITING_ENGINES = ["reference", FAST_AUDIT]


@pytest.mark.parametrize("engine", ENGINES)
def test_max_rounds_abort(engine):
    def prog(ctx):
        while True:
            yield {}

    with pytest.raises(ProtocolError, match="max_rounds"):
        CongestedClique(3, max_rounds=7, engine=engine).run(prog)


@pytest.mark.parametrize("engine", ENGINES)
def test_max_rounds_boundary_passes(engine):
    def prog(ctx):
        for _ in range(7):
            yield {}
        return "done"

    res = CongestedClique(2, max_rounds=7, engine=engine).run(prog)
    assert res.outputs == ["done", "done"]
    assert res.rounds == 7


@pytest.mark.parametrize("engine", ENGINES)
def test_packet_to_finished_node(engine):
    def prog(ctx):
        if ctx.node_id == 1:
            return "early"
        yield {}  # round 1: node 1 is already finished
        yield {1: packet(9)}  # round 2: delivery to a finished node
        return "late"

    with pytest.raises(ProtocolError, match="finished node 1"):
        run_protocol(3, prog, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_packet_to_node_finishing_same_round_is_fine(engine):
    def prog(ctx):
        if ctx.node_id == 1:
            inbox = yield {}
            return sorted(p.words[0] for p in inbox.values())
        yield {1: packet(ctx.node_id)}
        return None

    res = run_protocol(3, prog, engine=engine)
    assert res.outputs[1] == [0, 2]


@pytest.mark.parametrize("engine", ENGINES)
def test_invalid_destination(engine):
    def prog(ctx):
        yield {ctx.n + 7: packet(1)}

    with pytest.raises(ModelViolation, match="invalid destination"):
        run_protocol(3, prog, engine=engine)


@pytest.mark.parametrize("engine", ENGINES + [FAST_UNCHECKED])
def test_float_destination_rejected_even_when_it_hashes_like_a_node(engine):
    # Regression: 1.0 == 1 hashes equal to a live node id; a set-membership
    # check alone would deliver it silently on the fast path.
    def prog(ctx):
        yield {1.0: packet(7)}
        yield {}

    with pytest.raises(ModelViolation, match="invalid destination"):
        run_protocol(2, prog, engine=engine)


@pytest.mark.parametrize("engine", AUDITING_ENGINES)
def test_duck_typed_packet_rejected_by_full_audit(engine):
    # An object that merely *looks* like a Packet (has .words) must not pass
    # the full audit.
    class FakePacket:
        words = (1, 2)

    def prog(ctx):
        yield {0: FakePacket()}
        yield {}

    with pytest.raises(ModelViolation, match="non-packet"):
        run_protocol(2, prog, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_non_dict_outbox(engine):
    def prog(ctx):
        yield [packet(1)]

    with pytest.raises(ModelViolation):
        run_protocol(2, prog, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_non_packet_value(engine):
    def prog(ctx):
        yield {0: "hello"}

    with pytest.raises(ModelViolation, match="non-packet"):
        run_protocol(2, prog, engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_tuple_payload_coerced_to_packet(engine):
    def prog(ctx):
        inbox = yield {ctx.node_id: (4, 5)}
        return inbox[ctx.node_id].words

    res = run_protocol(2, prog, engine=engine)
    assert res.outputs == [(4, 5), (4, 5)]


@pytest.mark.parametrize("engine", AUDITING_ENGINES)
def test_capacity_exceeded(engine):
    def prog(ctx):
        yield {0: Packet(tuple(range(ctx.capacity + 1)))}

    with pytest.raises(CapacityExceeded):
        run_protocol(2, prog, capacity=4, engine=engine)


@pytest.mark.parametrize("engine", AUDITING_ENGINES)
def test_word_size_violation(engine):
    def prog(ctx):
        yield {0: packet(10 ** 60)}

    with pytest.raises(WordSizeViolation):
        run_protocol(2, prog, engine=engine)


def test_sampled_validation_still_audits_first_packet():
    # The sampling stride starts at packet 0, so the very first model
    # violation in a run is always caught even in sampled mode.
    def prog(ctx):
        yield {0: packet(10 ** 60)}

    with pytest.raises(WordSizeViolation):
        run_protocol(2, prog, engine=FastEngine(validation="sampled"))


def test_unchecked_engine_skips_the_audit():
    # Documented trade-off: validation "off" lets oversize words through.
    def prog(ctx):
        inbox = yield {0: packet(10 ** 60)}
        return len(inbox)

    res = run_protocol(2, prog, engine=FastEngine(validation="off"))
    assert res.outputs[0] == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_duplicate_sends_rejected_by_merge(engine):
    # One generator cannot put two packets on an edge (outboxes are keyed by
    # destination), so duplicate sends arise when merging edge-disjoint
    # activities that turn out not to be disjoint.  The engine runs the
    # protocol; merge_outboxes raises inside it.
    def prog(ctx):
        parts = [{0: packet(1)}, {0: packet(2)}]
        yield merge_outboxes(parts)

    with pytest.raises(EdgeConflict, match="not edge-disjoint"):
        run_protocol(2, prog, engine=engine)


def test_merge_outboxes_conflict_detection_unit():
    assert merge_outboxes([{0: packet(1)}, {1: packet(2)}]) == {
        0: packet(1),
        1: packet(2),
    }
    with pytest.raises(EdgeConflict):
        merge_outboxes([{2: packet(1)}, {2: packet(1)}])


@pytest.mark.parametrize("engine", ENGINES)
def test_idle_node_receiving_traffic_is_a_conflict(engine):
    def prog(ctx):
        if ctx.node_id == 0:
            yield from idle(2)
        else:
            yield {}
            yield {0: packet(3)}

    with pytest.raises(EdgeConflict, match="while idle"):
        run_protocol(2, prog, engine=engine)
