"""Engine equivalence: ReferenceEngine and FastEngine agree byte-for-byte.

Every routing/sorting workload the tier-1 suite exercises must produce
identical outputs, round counts, phase tables, per-round traffic statistics
and shared-cache behavior on both engines — the fast path may only change
*how fast* the simulation runs, never *what* it computes.
"""

import pytest

from repro.core import (
    CongestedClique,
    FastEngine,
    Packet,
    available_engines,
    get_engine,
    run_protocol,
)
from repro.routing import (
    block_skew_instance,
    bursty_instance,
    permutation_instance,
    route_lenzen,
    route_naive,
    route_optimized,
    route_valiant,
    transpose_instance,
    uniform_instance,
    verify_delivery,
)
from repro.sorting import (
    duplicate_heavy_instance,
    presorted_instance,
    sample_sort,
    sort_lenzen,
    uniform_sort_instance,
    verify_sorted_batches,
)

#: the fast loop in each validation mode, under the ids the tests report:
#: ``fast`` samples its packet audit, ``fast-audit`` audits every packet,
#: ``fast-unchecked`` none.
FAST_ENGINES = {
    "fast": "fast",
    "fast-audit": FastEngine(validation="full"),
    "fast-unchecked": FastEngine(validation="off"),
}
FAST_ENGINE_PARAMS = [
    pytest.param(engine, id=name) for name, engine in FAST_ENGINES.items()
]


def assert_equivalent(run):
    """Run ``run(engine)`` on every engine and compare everything."""
    ref = run("reference")
    for name, engine in FAST_ENGINES.items():
        fast = run(engine)
        assert fast.outputs == ref.outputs, name
        assert fast.rounds == ref.rounds, name
        assert fast.stats.total_packets == ref.stats.total_packets, name
        assert fast.stats.total_words == ref.stats.total_words, name
        assert fast.phase_table() == ref.phase_table(), name
        assert [
            (r.round_index, r.packets, r.words, r.max_words_on_edge)
            for r in fast.stats.per_round
        ] == [
            (r.round_index, r.packets, r.words, r.max_words_on_edge)
            for r in ref.stats.per_round
        ], name
        assert fast.shared_cache_hits == ref.shared_cache_hits, name
        assert fast.shared_cache_misses == ref.shared_cache_misses, name
    return ref


ROUTING_WORKLOADS = {
    "uniform": lambda n: uniform_instance(n, seed=n),
    "hotspot": lambda n: permutation_instance(n),
    "transpose": transpose_instance,
    "block-skew": lambda n: block_skew_instance(n, seed=n),
    "bursty": lambda n: bursty_instance(n, seed=n),
}


@pytest.mark.parametrize("workload", sorted(ROUTING_WORKLOADS))
@pytest.mark.parametrize("n", [16, 20, 25])
def test_lenzen_routing_equivalence(workload, n):
    inst = ROUTING_WORKLOADS[workload](n)
    ref = assert_equivalent(lambda engine: route_lenzen(inst, engine=engine))
    verify_delivery(inst, ref.outputs)


@pytest.mark.parametrize("n", [16, 25])
def test_optimized_routing_equivalence(n):
    inst = uniform_instance(n, seed=3)
    ref = assert_equivalent(
        lambda engine: route_optimized(inst, engine=engine)
    )
    verify_delivery(inst, ref.outputs)


@pytest.mark.parametrize("n", [19, 25])
def test_baseline_routing_equivalence(n):
    inst = permutation_instance(n)
    assert_equivalent(lambda engine: route_naive(inst, engine=engine))
    assert_equivalent(
        lambda engine: route_valiant(inst, seed=5, engine=engine)
    )


@pytest.mark.parametrize(
    "maker",
    [
        lambda n: uniform_sort_instance(n, seed=2),
        lambda n: duplicate_heavy_instance(n, seed=2),
        presorted_instance,
    ],
    ids=["uniform", "duplicates", "presorted"],
)
def test_sorting_equivalence(maker):
    inst = maker(16)
    ref = assert_equivalent(lambda engine: sort_lenzen(inst, engine=engine))
    verify_sorted_batches(inst, ref.outputs)
    assert_equivalent(lambda engine: sample_sort(inst, seed=4, engine=engine))


def _shared_outbox_program():
    """A program whose nodes all yield the *same* dict object.

    Each node clears the shared dict and inserts its own packet to its
    successor right before yielding, so by the time the engine delivers,
    later nodes have already clobbered earlier nodes' entries.  The
    reference engine snapshots every outbox at yield time; regression: the
    fast path used to keep the yielded dict aliased, so every node
    "sent" whatever the last writer left in it.
    """
    shared_outbox = {}

    def program(ctx):
        def gen():
            n = ctx.n
            me = ctx.node_id
            shared_outbox.clear()
            shared_outbox[(me + 1) % n] = Packet((me,))
            inbox = yield shared_outbox
            return sorted((src, pkt.words) for src, pkt in inbox.items())

        return gen()

    return program


@pytest.mark.parametrize("engine", FAST_ENGINE_PARAMS)
def test_outbox_aliasing_regression(engine):
    """Differential: a dict-reusing protocol on both engines (ISSUE 3)."""
    n = 8
    ref = run_protocol(n, _shared_outbox_program(), capacity=2)
    fast = run_protocol(n, _shared_outbox_program(), capacity=2, engine=engine)
    # Ground truth: node j hears exactly from its predecessor.
    assert ref.outputs == [
        [((j - 1) % n, ((j - 1) % n,))] for j in range(n)
    ]
    assert fast.outputs == ref.outputs, engine
    assert fast.rounds == ref.rounds
    assert fast.stats.total_packets == ref.stats.total_packets
    assert fast.stats.total_words == ref.stats.total_words


def _shared_outbox_multiround_program(rounds):
    """Like :func:`_shared_outbox_program`, but re-yielding the shared dict
    every round — so the aliasing hazard hits the engine's *send-loop*
    coercion (rounds >= 2), not just the prime-time path.
    """
    shared_outbox = {}

    def program(ctx):
        def gen():
            n = ctx.n
            me = ctx.node_id
            heard = []
            for r in range(rounds):
                shared_outbox.clear()
                shared_outbox[(me + 1) % n] = Packet((r * n + me,))
                inbox = yield shared_outbox
                heard.extend(
                    (r, src, pkt.words)
                    for src, pkt in sorted(inbox.items())
                )
            return heard

        return gen()

    return program


@pytest.mark.parametrize("engine", FAST_ENGINE_PARAMS)
def test_outbox_reuse_across_rounds_regression(engine):
    """The snapshot-at-yield copy must also cover outboxes collected in the
    steady-state send loop, where later nodes' resumes used to clobber
    earlier nodes' still-undelivered aliased dicts.
    """
    n, rounds = 6, 3
    ref = run_protocol(
        n, _shared_outbox_multiround_program(rounds), capacity=2
    )
    fast = run_protocol(
        n,
        _shared_outbox_multiround_program(rounds),
        capacity=2,
        engine=engine,
    )
    pred = lambda j: (j - 1) % n
    assert ref.outputs == [
        [(r, pred(j), (r * n + pred(j),)) for r in range(rounds)]
        for j in range(n)
    ]
    assert fast.outputs == ref.outputs, engine
    assert fast.rounds == ref.rounds
    assert fast.stats.total_packets == ref.stats.total_packets


def test_meters_equivalent():
    inst = uniform_instance(16, seed=1)
    ref = route_lenzen(inst, meter=True)
    fast = route_lenzen(inst, meter=True, engine="fast")
    assert fast.meters.steps_per_node == ref.meters.steps_per_node
    assert fast.meters.peak_words_per_node == ref.meters.peak_words_per_node


def test_engine_instance_and_registry():
    inst = uniform_instance(16, seed=0)
    custom = FastEngine(validation="full", sample_stride=1)
    res = route_lenzen(inst, engine=custom)
    assert res.engine == "fast"
    assert res.rounds == route_lenzen(inst).rounds
    assert available_engines() == ["fast", "reference"]
    for name in available_engines():
        assert get_engine(name).execute is not None
    with pytest.raises(ValueError):
        get_engine("no-such-engine")
    with pytest.raises(TypeError):
        get_engine(42)
    with pytest.raises(ValueError):
        FastEngine(validation="half")


def test_result_is_stamped_with_engine_name():
    inst = uniform_instance(16, seed=0)
    assert route_lenzen(inst).engine == "reference"
    assert route_lenzen(inst, engine="fast").engine == "fast"
    clique = CongestedClique(16, engine="fast")
    assert clique.engine.name == "fast"
