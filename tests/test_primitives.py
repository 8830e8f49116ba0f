"""Corollary 3.3 / 3.4 primitives: round counts, delivery, concurrency."""

import re

import pytest

from repro.core import ModelViolation, ProtocolError, run_protocol
from repro.routing.primitives import (
    ROUNDS_KNOWN,
    ROUNDS_UNKNOWN,
    announce_within_group,
    broadcast_word,
    route_known,
    route_unknown,
)


def run_groups(n, groups, items_fn, mode, capacity=8, item_width=None):
    """Drive one primitive invocation at every node; returns RunResult."""
    membership = {}
    for gi, members in enumerate(groups):
        for rank, node in enumerate(members):
            membership[node] = (gi, rank)

    def prog(ctx):
        gi_rank = membership.get(ctx.node_id)
        if gi_rank is None:
            g = r = None
            items = []
        else:
            g, r = gi_rank
            items = items_fn(ctx.node_id, g, r)
        if mode == "unknown":
            got = yield from route_unknown(
                ctx, groups, g, r, items, "t", item_width=item_width
            )
        else:
            demand = None
            if g is not None:
                w = len(groups[g])
                demand = tuple(
                    tuple(
                        sum(
                            1
                            for node in groups[g]
                            for b2, _ in items_fn(
                                node, g, groups[g].index(node)
                            )
                            if b2 == b and groups[g].index(node) == a
                        )
                        for b in range(w)
                    )
                    for a in range(w)
                )
            got = yield from route_known(
                ctx, groups, g, r, items, demand, "t", item_width=item_width
            )
        return sorted(got)

    return run_protocol(n, prog, capacity=capacity)


def test_known_pattern_two_rounds_and_delivery():
    groups = ((0, 1, 2, 3),)

    def items(node, g, r):
        return [(b, (node * 10 + b,)) for b in range(4)]

    res = run_groups(16, groups, items, "known", item_width=1)
    assert res.rounds == ROUNDS_KNOWN
    for rank, node in enumerate(groups[0]):
        got = [it[0] for it in res.outputs[node]]
        assert sorted(got) == sorted(u * 10 + rank for u in groups[0])


def test_unknown_pattern_four_rounds():
    groups = ((0, 1, 2), (3, 4, 5))

    def items(node, g, r):
        # ragged demands, unknown to peers
        return [(0, (node, 7))] * (r + 1)

    res = run_groups(9, groups, items, "unknown", item_width=2)
    assert res.rounds == ROUNDS_UNKNOWN
    # rank-0 member of each group receives 1+2+3 items
    assert len(res.outputs[0]) == 6
    assert len(res.outputs[3]) == 6
    assert res.outputs[1] == []


def test_concurrent_groups_disjoint():
    groups = ((0, 1), (2, 3), (4, 5))

    def items(node, g, r):
        return [(1 - r, (node,))]

    res = run_groups(6, groups, items, "unknown", item_width=1)
    assert res.rounds == ROUNDS_UNKNOWN
    assert res.outputs[0] == [(1,)]
    assert res.outputs[5] == [(4,)]


# Member-side rejections, in the order route_known checks them: an item's
# width while counting, then each rank's count against the demand row.
# Every case is raised by rank 0 (node 0 is primed first), under demand
# ((1, 0), (0, 1)), at the default capacity of 8 words.
@pytest.mark.parametrize(
    "items,item_width,error,message",
    [
        pytest.param(
            [], None, ProtocolError,
            "node rank 0 holds 0 items for rank 0 but demand says 1",
            id="short",
        ),
        # Catches a one-pass rewrite that indexes the color list before
        # counting (IndexError instead of ProtocolError).
        pytest.param(
            [(7,), (8,)], None, ProtocolError,
            "node rank 0 holds 2 items for rank 0 but demand says 1",
            id="too-many",
        ),
        pytest.param(
            [(1, 2, 3)], 2, ModelViolation,
            "item of 3 words, declared width 2",
            id="too-wide",
        ),
        pytest.param(
            [tuple(range(8))], None, ModelViolation,
            "item of 8 words exceeds capacity-1",
            id="over-capacity",
        ),
    ],
)
def test_route_known_rejects_demand_item_mismatch(
    items, item_width, error, message
):
    groups = ((0, 1),)

    def prog(ctx):
        if ctx.node_id < 2:
            demand = ((1, 0), (0, 1))
            mine = [(ctx.node_id, item) for item in items]
            yield from route_known(
                ctx, groups, 0, ctx.node_id, mine, demand, "t",
                item_width=item_width,
            )
        else:
            yield from route_known(
                ctx, groups, None, None, [], None, "t",
                item_width=item_width,
            )
        return None

    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_protocol(4, prog)


def test_route_known_lane_overflow_guard():
    # degree > n without item_width must be rejected
    groups = ((0, 1),)

    def prog(ctx):
        if ctx.node_id < 2:
            items = [(0, (1, 1)) for _ in range(5)]
            demand = ((5, 0), (5, 0)) if ctx.node_id == 0 else ((5, 0), (5, 0))
            yield from route_known(ctx, groups, 0, ctx.node_id, items, demand, "t")
        else:
            yield from route_known(ctx, groups, None, None, [], None, "t")
        return None

    with pytest.raises(ModelViolation):
        run_protocol(3, prog)


def test_lanes_bundle_when_degree_exceeds_n():
    # group of 2 inside n=2: each member sends 2 items to each rank =>
    # degree 4 > n = 2 => two lanes of (1+2)-word segments.
    groups = ((0, 1),)

    def prog(ctx):
        if ctx.node_id < 2:
            items = [(b, (ctx.node_id, k)) for b in range(2) for k in range(2)]
            demand = ((2, 2), (2, 2))
            got = yield from route_known(
                ctx, groups, 0, ctx.node_id, items, demand, "t", item_width=2
            )
        else:
            got = yield from route_known(
                ctx, groups, None, None, [], None, "t", item_width=2
            )
        return sorted(got)

    res = run_protocol(2, prog, capacity=8)
    assert res.rounds == 2
    assert len(res.outputs[0]) == 4
    assert len(res.outputs[1]) == 4


def test_announce_within_group():
    groups = ((0, 1, 2),)

    def prog(ctx):
        if ctx.node_id < 3:
            vec = [ctx.node_id * 100 + i for i in range(7)]
            mat = yield from announce_within_group(
                ctx, groups, 0, ctx.node_id, vec, "t"
            )
        else:
            mat = yield from announce_within_group(
                ctx, groups, None, None, [], "t"
            )
        return mat

    res = run_protocol(9, prog)
    assert res.rounds == 2
    for node in range(3):
        mat = res.outputs[node]
        assert mat[1] == [100 + i for i in range(7)]
    assert res.outputs[4] == []
    assert res.outputs[8] == []


def test_broadcast_word():
    def prog(ctx):
        vals = yield from broadcast_word(ctx, ctx.node_id * 3)
        return vals

    res = run_protocol(5, prog)
    assert res.rounds == 1
    assert res.outputs[2] == [0, 3, 6, 9, 12]
