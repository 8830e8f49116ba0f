"""Corollaries 3.3 and 3.4: constant-round routing primitives within subsets.

These are the communication workhorses of the whole paper:

* :func:`route_known` (Corollary 3.3) — 2 rounds.  Within each group ``W``
  whose members commonly know the full source/destination demand matrix,
  color the demand multigraph (Koenig) and relay every item through the
  intermediate node given by its color: round 1 sends item of color ``c`` to
  global node ``c``, round 2 delivers.  Multiple disjoint groups run
  concurrently; intermediates may lie outside ``W`` (every edge used has at
  least one endpoint in ``W``, as the corollary requires).
* :func:`route_unknown` (Corollary 3.4) — 4 rounds.  For ``|W| <= sqrt(n)``
  the demand matrix itself is small enough to announce first (2 rounds via
  Corollary 3.3), after which the known-pattern primitive applies.
* :func:`announce_within_group` — the recurring "each node announces a small
  vector to every member of its group" step (Algorithm 2 Step 3, Algorithm 3
  Steps 2 and 5), implemented as one known-pattern invocation (2 rounds).
* :func:`broadcast_word` — one word from every node to all nodes, 1 round.

All protocols here are generators intended to be driven with ``yield from``
inside a larger per-node protocol.  **Every node of the clique must run the
primitive** (non-members pass ``my_group=None``) because any node may serve
as an intermediate.

Items are tuples of words; on the wire each packet is
``(final_destination, *item_words)``, so items may carry at most
``capacity - 1`` words.
"""

from __future__ import annotations

from typing import Dict, Generator, Hashable, List, Optional, Sequence, Tuple

from ..core.context import NodeContext, planned
from ..core.errors import ModelViolation, ProtocolError
from ..core.message import Packet, pack_pair, unpack_pair
from ..core.wire import bad_segment_width, fast_packet, regroup_segments
from ..graphtools.coloring import greedy_edge_coloring, koenig_color_pairs
from ..graphtools.multigraph import from_demand_matrix

Item = Tuple[int, ...]
Groups = Tuple[Tuple[int, ...], ...]
Demand = Tuple[Tuple[int, ...], ...]

#: rounds consumed by each primitive (the paper's round budget).
ROUNDS_KNOWN = 2
ROUNDS_UNKNOWN = 4
ROUNDS_ANNOUNCE = 2


def _color_map(
    demand: Demand, scheme: str = "koenig"
) -> Tuple[Dict[Tuple[int, int], List[int]], int]:
    """Color the demand multigraph of one group (plan-cached).

    Returns ``(colors_by_pair, num_colors)`` where ``colors_by_pair[(a, b)]``
    lists the colors of the parallel edges from sender rank ``a`` to receiver
    rank ``b``, in canonical (row-major, repetition) order.  All group
    members call this with identical input and obtain identical output.

    ``scheme="koenig"`` uses exactly ``Delta`` colors (Theorem 3.2);
    ``scheme="greedy"`` is footnote 3's cheap alternative with up to
    ``2*Delta - 1`` colors — still a proper coloring, so the schedule stays
    conflict-free, at the cost of potentially one extra lane.

    The coloring is a pure function of ``(demand, scheme)``, so it is
    memoized in the process-wide :class:`~repro.core.context.PlanCache`:
    repeated instances of the same structure (scenario sweeps, benchmark
    repeats) pay the matching peel once.  Fresh-seed traffic rarely repeats
    a demand and pays it on every call.  The result is shared by reference
    — callers must not mutate it.
    """
    return planned(
        ("color_map", demand, scheme), lambda: _color_map_impl(demand, scheme)
    )


def _color_map_impl(
    demand: Demand, scheme: str
) -> Tuple[Dict[Tuple[int, int], List[int]], int]:
    if scheme != "greedy":
        return koenig_color_pairs(demand)
    graph = from_demand_matrix(demand)
    if not graph.num_edges:
        return {}, 0
    colors = greedy_edge_coloring(graph)
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for (a, b), c in zip(graph.edges, colors):
        by_pair.setdefault((a, b), []).append(c)
    return by_pair, max(colors) + 1


def _route_table(
    demand: Demand, coloring: str, n: int
) -> Tuple[List[List[Sequence[int]]], int]:
    """One group's Corollary 3.3 schedule as intermediates, by rank pair.

    Returns ``(rows, degree)``: ``rows[a][b]`` lists the intermediate
    (``color mod n``) of each of rank ``a``'s items for rank ``b``, in
    canonical order, and ``degree`` is the number of colors.  Every member
    of the group reads its own row of the same table, so it is built once
    per run through the shared computation; the coloring underneath is the
    plan-cached :func:`_color_map`.  With ``degree <= n`` every color is
    its own intermediate and the table holds the coloring's lists
    themselves.  The table is shared by reference — callers must not
    mutate it.
    """
    by_pair, degree = _color_map(demand, coloring)
    rows: List[List[Sequence[int]]] = [[()] * len(row) for row in demand]
    for (a, b), colors in by_pair.items():
        rows[a][b] = colors if degree <= n else [c % n for c in colors]
    return rows, degree


def route_known(
    ctx: NodeContext,
    groups: Groups,
    my_group: Optional[int],
    my_rank: Optional[int],
    my_items: Sequence[Tuple[int, Item]],
    demand: Optional[Demand],
    pattern_key: Hashable,
    item_width: Optional[int] = None,
    coloring: str = "koenig",
) -> Generator[Dict[int, Packet], Dict[int, Packet], List[Item]]:
    """Corollary 3.3: deliver items within groups in exactly 2 rounds.

    Args:
        groups: disjoint member-id tuples (common knowledge at all nodes).
        my_group / my_rank: this node's group index and rank, or ``None`` if
            it participates only as a potential intermediate.
        my_items: ``(dest_rank, item)`` pairs this node must deliver within
            its group, ordered consistently with ``demand`` (the k-th item
            for dest rank b corresponds to the k-th parallel edge).
        demand: this group's demand matrix ``demand[a][b]`` (commonly known
            by all its members).  ``None`` only for non-members.
        pattern_key: hashable identifying this invocation's common inputs for
            the shared-computation cache.
        item_width: fixed word width of every item in this invocation.  When
            the demand degree exceeds ``n`` the primitive packs several items
            per packet ("lanes") — the paper's constant-factor message-size
            increase from bundling.  ``None`` means variable width, lanes
            disabled (degree must then be at most ``n``).

    Returns:
        Items received by this node, ordered deterministically by the color
        they traveled through.

    Lane mechanics: with degree ``D`` over ``n`` available intermediates,
    ``lanes = ceil(D / n)`` and color ``c`` routes through intermediate
    ``c mod n``.  Each color class is a perfect matching, so an intermediate
    carries at most ``lanes`` items per sender (round 1) and per receiver
    (round 2); items are concatenated as fixed-width ``(dest, *item)``
    segments, which needs ``lanes * (item_width + 1) <= capacity``.
    """
    outbox: Dict[int, Packet] = {}
    seg = None if item_width is None else item_width + 1
    if my_group is not None:
        if demand is None or my_rank is None:
            raise ProtocolError("group members must supply demand and rank")
        n = ctx.n
        rows, degree = ctx.shared_compute(
            ("cor33", pattern_key, my_group, demand, coloring),
            lambda: _route_table(demand, coloring, n),
        )
        lanes = max(1, -(-degree // n))  # ceil
        if lanes > 1 and seg is None:
            raise ModelViolation(
                f"demand degree {degree} exceeds n={n} and no item_width "
                "was given; Corollary 3.3 needs bundling (lanes) here"
            )
        if seg is not None and lanes * seg > ctx.capacity:
            raise ModelViolation(
                f"{lanes} lanes of width {seg} exceed capacity "
                f"{ctx.capacity}"
            )
        # One pass: check each item, count it against its destination and
        # append it to its intermediate's lane buffer.  A fixed width that
        # passed the lane check above fits in capacity - 1 words, so only a
        # variable-width item needs the capacity test.  Items beyond their
        # demand count get no lane: the demand check after the pass reports
        # them, once every item's width has been checked.  The counts are
        # keyed by rank, so a rank outside the group raises KeyError rather
        # than wrapping around a list.
        member_ids = groups[my_group]
        hops = rows[my_rank]
        taken = dict.fromkeys(range(len(hops)), 0)
        max_words = ctx.capacity - 1
        lanes_out: Dict[int, List[int]] = {}
        for dest_rank, item in my_items:
            size = len(item)
            if size != item_width:
                if item_width is not None:
                    raise ModelViolation(
                        f"item of {size} words, declared width {item_width}"
                    )
                if size > max_words:
                    raise ModelViolation(
                        f"item of {size} words exceeds capacity-1"
                    )
            k = taken[dest_rank]
            taken[dest_rank] = k + 1
            via = hops[dest_rank]
            if k < len(via):
                if lanes == 1:
                    # A sender's colors are distinct: one item per packet.
                    dest = member_ids[dest_rank]
                    outbox[via[k]] = fast_packet((dest, *item))
                    continue
                buf = lanes_out.get(via[k])
                if buf is None:
                    buf = lanes_out[via[k]] = []
                buf.append(member_ids[dest_rank])
                buf += item
        for b, want in enumerate(demand[my_rank]):
            if taken[b] != want:
                raise ProtocolError(
                    f"node rank {my_rank} holds {taken[b]} items "
                    f"for rank {b} but demand says {want}"
                )
        for intermediate, words in lanes_out.items():
            outbox[intermediate] = fast_packet(tuple(words))

    inbox = yield outbox

    # Intermediate role: forward every segment to its embedded destination.
    # The wire-level regrouping forwards whole packets by reference when all
    # of a packet's segments share one destination (the common case).
    forward = regroup_segments(inbox, seg)

    inbox2 = yield forward

    # Inlined segment parse (hot path: every delivered packet every call).
    # Packet words are tuples, so each slice is already the item tuple.
    received: List[Item] = []
    for src in sorted(inbox2):
        words = inbox2[src].words
        if not words:
            continue
        if seg is None:
            received.append(words[1:])
            continue
        size = len(words)
        if size == seg:
            received.append(words[1:])
            continue
        if size % seg != 0:
            raise bad_segment_width(size, seg)
        for i in range(0, size, seg):
            received.append(words[i + 1 : i + seg])
    return received


def _chunk_meta_base(w: int, num_chunks: int) -> int:
    return max(w, num_chunks, 1)


def _vector_chunks(
    vector: Sequence[int], chunk_size: int
) -> List[List[int]]:
    return [
        list(vector[i : i + chunk_size])
        for i in range(0, len(vector), chunk_size)
    ] or [[]]


def announce_within_group(
    ctx: NodeContext,
    groups: Groups,
    my_group: Optional[int],
    my_rank: Optional[int],
    vector: Sequence[int],
    pattern_key: Hashable,
) -> Generator[Dict[int, Packet], Dict[int, Packet], List[List[int]]]:
    """Every group member announces ``vector`` to all members (2 rounds).

    All members must announce vectors of one common length (common
    knowledge).  Returns ``matrix`` with ``matrix[a]`` = rank ``a``'s vector;
    non-members return an empty list.

    This is the paper's "each node in W announces |W| numbers to all nodes
    in W" step, realized through Corollary 3.3 with the uniform demand of
    ``ceil(len(vector)/chunk)`` items per ordered member pair.
    """
    if my_group is None:
        # Non-members still relay; they derive the fixed announce segment
        # width from the capacity (identical at every node).
        yield from route_known(
            ctx,
            groups,
            None,
            None,
            [],
            None,
            (pattern_key, "ann"),
            item_width=1 + max(1, ctx.capacity - 3),
        )
        return []

    w = len(groups[my_group])
    # One word for the wire header, one for the (rank, chunk) meta word, and
    # one of headroom so piggyback rounds stay within capacity.
    chunk_size = max(1, ctx.capacity - 3)
    chunks = _vector_chunks(vector, chunk_size)
    # Fixed-width segments: pad the last chunk with zeros.
    for chunk in chunks:
        chunk.extend([0] * (chunk_size - len(chunk)))
    num_chunks = len(chunks)
    base = _chunk_meta_base(w, num_chunks)
    # Every member gets the same chunk items: build each once.
    chunk_items = [
        (pack_pair(my_rank, q, base), *chunk) for q, chunk in enumerate(chunks)
    ]
    items = [(b, item) for b in range(w) for item in chunk_items]
    demand: Demand = ((num_chunks,) * w,) * w
    received = yield from route_known(
        ctx,
        groups,
        my_group,
        my_rank,
        items,
        demand,
        (pattern_key, "ann"),
        item_width=1 + chunk_size,
    )
    length = len(vector)
    matrix: List[List[Optional[int]]] = [[None] * length for _ in range(w)]
    for item in received:
        a, q = unpack_pair(item[0], base)
        start = q * chunk_size
        stop = min(start + chunk_size, length)
        if start < stop:
            matrix[a][start:stop] = item[1 : 1 + stop - start]
    for a, row in enumerate(matrix):
        if None in row:
            raise ProtocolError(f"lost announcement chunk from rank {a}")
    return matrix  # type: ignore[return-value]  # no None left


def route_unknown(
    ctx: NodeContext,
    groups: Groups,
    my_group: Optional[int],
    my_rank: Optional[int],
    my_items: Sequence[Tuple[int, Item]],
    pattern_key: Hashable,
    item_width: Optional[int] = None,
) -> Generator[Dict[int, Packet], Dict[int, Packet], List[Item]]:
    """Corollary 3.4: deliver items within small groups in exactly 4 rounds.

    Rounds 1-2 announce per-destination item counts (establishing the common
    knowledge Corollary 3.3 needs); rounds 3-4 run the known-pattern
    primitive on the real items.  Requires the announced demand to satisfy
    the degree bound (which the paper guarantees for ``|W| <= sqrt(n)``).
    """
    if my_group is None:
        yield from announce_within_group(
            ctx, groups, None, None, [], (pattern_key, "cnt")
        )
        # Payload phase relay, parsing with the caller-declared width.
        result = yield from route_known(
            ctx,
            groups,
            None,
            None,
            [],
            None,
            (pattern_key, "pay"),
            item_width=item_width,
        )
        return result

    w = len(groups[my_group])
    counts = [0] * w
    for dest_rank, _ in my_items:
        counts[dest_rank] += 1
    matrix = yield from announce_within_group(
        ctx, groups, my_group, my_rank, counts, (pattern_key, "cnt")
    )
    demand: Demand = tuple(tuple(row) for row in matrix)
    result = yield from route_known(
        ctx,
        groups,
        my_group,
        my_rank,
        my_items,
        demand,
        (pattern_key, "pay"),
        item_width=item_width,
    )
    return result


def broadcast_word(
    ctx: NodeContext, word: int
) -> Generator[Dict[int, Packet], Dict[int, Packet], List[int]]:
    """Every node tells every node one word; 1 round.

    Returns the list ``values`` with ``values[i]`` = node ``i``'s word.
    All ``n`` edges carry the same immutable one-word packet object (the
    engines deliver by reference, so sharing it is free).
    """
    pkt = fast_packet((word,))
    outbox = {dst: pkt for dst in range(ctx.n)}
    inbox = yield outbox
    values = [0] * ctx.n
    for src, pkt in inbox.items():
        values[src] = pkt.words[0]
    if len(inbox) != ctx.n:
        raise ProtocolError(
            f"broadcast expected {ctx.n} packets, got {len(inbox)}"
        )
    return values
