"""Algorithms 1 and 2: deterministic routing in 16 rounds (square ``n``).

This is the paper's primary contribution (Theorem 3.7, perfect-square case).
The node set splits into ``sqrt(n)`` groups of ``sqrt(n)`` nodes; the
high-level strategy (Algorithm 1) is:

1. partition nodes into groups;
2. move messages so each group holds the right number of messages per
   destination group (Algorithm 2 — 7 rounds);
3. rebalance within each group so each node holds a balanced share per
   destination group (4 rounds);
4. ship messages to their destination groups (1 round);
5. deliver within each destination group via Corollary 3.4 (4 rounds).

Total: 16 rounds.  The implementation runs one generator per node; every
cross-node fact travels in messages, and the paper's invariants are asserted
at runtime (the simulator doubles as a proof checker).

Relaxed loads.  Problem 3.1's normal form has *exactly* ``n`` messages per
source and destination.  The remark after Problem 3.1 and the proof of
Theorem 3.7 also use the algorithm with up to ``load_bound`` messages per
node, where ``load_bound`` may exceed ``n`` by a constant factor (the
non-square overlay runs the square algorithm on ``m < n`` nodes with up to
``~2m`` messages per node, "increasing the message size by a factor of at
most 2").  This implementation supports any ``load_bound``; whenever a step
would exceed one message per edge it bundles ``lanes = ceil(load_bound/n)``
fixed-width message segments per packet, exactly the paper's constant-factor
message-size increase.

Wire format: a message is ``(header, payload)`` with ``header =
pack_triple(source, dest, seq, n)``; during Algorithm 2 Step 5 an extra word
carries the Step-2 color so the receiving node knows the message's
intermediate group without reconstructing other nodes' private orderings.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.context import NodeContext, planned
from ..core.engine import EngineSpec
from ..core.errors import ModelViolation, ProtocolError
from ..core.message import Packet
from ..core.network import CongestedClique, RunResult
from ..core.topology import square_groups, square_partition
from ..core.wire import fast_packet, header_codec
from ..graphtools.coloring import koenig_color_pairs
from .primitives import (
    announce_within_group,
    broadcast_word,
    route_known,
    route_unknown,
)
from .problem import Message, RoutingInstance

#: Paper round budget for the square case (Theorem 3.7).
ROUNDS_SQUARE = 16

WireMsg = Tuple[int, int]  # (header, payload)


def header_base(n: int, load_bound: int) -> int:
    """Packing base for (source, dest, seq) headers.

    ``seq`` may reach ``load_bound - 1`` when nodes carry more than ``n``
    messages (relaxed instances), so the base must cover both.
    """
    return max(n, load_bound)


def _wire(m: Message, base: int) -> WireMsg:
    return (header_codec(base).pack(m.source, m.dest, m.seq), m.payload)


def _unwire(w: Sequence[int], base: int) -> Message:
    source, dest, seq = header_codec(base).unpack(w[0])
    return Message(source=source, dest=dest, seq=seq, payload=w[1])


def _color_pairs(demand: Tuple[Tuple[int, ...], ...]):
    """Koenig-color the multigraph of a demand matrix; group colors by pair.

    Pure in ``demand`` (one matching peel per distinct matrix), so memoized
    in the process-wide plan cache; the result is shared by reference and
    must not be mutated.
    """
    return planned(("color_pairs", demand), lambda: _color_pairs_impl(demand))


def _color_pairs_impl(demand: Tuple[Tuple[int, ...], ...]):
    return koenig_color_pairs(demand)[0]


def _send_bundled(
    assignments: Dict[int, List[Tuple[int, ...]]],
    width: int,
    capacity: int,
) -> Dict[int, Packet]:
    """Build one packet per destination from fixed-width message segments.

    A destination with one segment sends that segment's tuple itself.
    """
    outbox: Dict[int, Packet] = {}
    for dest, segs in assignments.items():
        words: Tuple[int, ...] = ()
        for seg in segs:
            if len(seg) != width:
                raise ProtocolError(
                    f"segment width {len(seg)} != declared {width}"
                )
            words += tuple(seg)
        if len(words) > capacity:
            raise ModelViolation(
                f"bundled packet of {len(words)} words exceeds capacity "
                f"{capacity}"
            )
        outbox[dest] = fast_packet(words)
    return outbox


def _recv_bundled(inbox: Dict[int, Packet], width: int) -> List[Tuple[int, ...]]:
    """Parse fixed-width segments out of every received packet.

    A one-segment packet passes its words tuple through uncopied.
    """
    out: List[Tuple[int, ...]] = []
    for src in sorted(inbox):
        words = inbox[src].words
        size = len(words)
        if size == width:
            out.append(words)
            continue
        if size % width != 0:
            raise ProtocolError(
                f"packet of {size} words not a multiple of {width}"
            )
        for i in range(0, size, width):
            out.append(words[i : i + width])
    return out


def lenzen_square_program(
    instance: RoutingInstance,
    wire_messages: Optional[List[List[WireMsg]]] = None,
    load_bound: Optional[int] = None,
) -> Callable[[NodeContext], Generator]:
    """Program factory running Algorithms 1+2 on a perfect-square ``n``.

    Args:
        instance: the routing instance (used for ``n`` and, unless
            ``wire_messages`` is given, the initial message placement).
        wire_messages: pre-encoded per-node message lists; lets callers (the
            non-square overlay, the sorting layer) feed translated instances.
        load_bound: maximum number of messages any node sends or receives;
            defaults to ``n`` for exact instances, else the instance maximum.
    """
    n = instance.n
    if load_bound is None:
        demand = instance.demand_matrix()
        load_bound = max(
            [n]
            + [sum(row) for row in demand]
            + [sum(col) for col in zip(*demand)]
        )
    hbase = header_base(n, load_bound)
    if wire_messages is None:
        pack = header_codec(hbase).pack  # hoisted: one codec per instance
        wire_messages = [
            sorted(
                (pack(m.source, m.dest, m.seq), m.payload)
                for m in instance.messages_by_source[i]
            )
            for i in range(n)
        ]
    strict = instance.exact and load_bound == n
    return lenzen_wire_program(n, wire_messages, load_bound, strict)


def lenzen_wire_program(
    n: int,
    wire_messages: List[List[WireMsg]],
    load_bound: int,
    strict: bool = False,
) -> Callable[[NodeContext], Generator]:
    """Algorithms 1+2 over pre-encoded wire messages (square ``n`` only).

    This is the layer the Theorem 3.7 overlay and the corollaries drive
    directly: headers are already packed with ``header_base(n,
    load_bound)`` and node ids are already in this instance's (possibly
    virtual) ``0..n-1`` space.  Each node returns its delivered messages
    as :class:`Message` objects in the paper's global order; see
    :func:`lenzen_wire_route` for the wire tuples themselves.
    """
    route = lenzen_wire_route(n, wire_messages, load_bound, strict)
    base = header_base(n, load_bound)

    def program(ctx: NodeContext) -> Generator:
        delivered = yield from route(ctx)
        final = []
        for h, payload in delivered:  # unpack_triple, inlined
            source_dest, seq = divmod(h, base)
            source, dest = divmod(source_dest, base)
            final.append(Message(source, dest, seq, payload))
        return final

    return program


def lenzen_wire_route(
    n: int,
    wire_messages: List[List[WireMsg]],
    load_bound: int,
    strict: bool = False,
) -> Callable[[NodeContext], Generator]:
    """The Algorithms 1+2 schedule of :func:`lenzen_wire_program`.

    Each node returns its delivered ``(header, payload)`` wire messages,
    sorted.  Headers are unique and ordered like ``(source, dest, seq)``,
    so that is the paper's global message order.  Algorithm 4 reads only
    the payloads and builds no :class:`Message`.
    """
    part = square_partition(n)
    s = part.group_size
    groups: Tuple[Tuple[int, ...], ...] = square_groups(n)
    codec = header_codec(header_base(n, load_bound))
    # A header's destination is ``h // base % base`` (``codec.dest_of``)
    # and its destination group that divided by ``s``; both are inlined
    # in the per-message loops below.
    base = codec.base
    lanes = -(-load_bound // n)  # ceil: segments bundled per packet

    def program(ctx: NodeContext) -> Generator:
        me = ctx.node_id
        g = part.group_of(me)
        r = part.rank_in_group(me)
        members = groups[g]
        held: List[WireMsg] = sorted(wire_messages[me])
        ctx.observe_live_words(2 * len(held))

        # ---------------- Algorithm 2 (Alg. 1 Step 2): 7 rounds -----------
        # Step 1a: tell rank-i member of my group my count for dest group i.
        ctx.enter_phase("alg2.step1")
        my_counts = [0] * s
        for h, _ in held:
            my_counts[h // base % base // s] += 1
        ctx.charge(len(held) + s)
        outbox = {
            member: fast_packet((count,))
            for member, count in zip(members, my_counts)
        }
        inbox = yield outbox
        # Step 1b: sum what I received (total my group sends to group r) and
        # broadcast it to everyone.
        group_total_for_r = sum(pkt.words[0] for pkt in inbox.values())
        ctx.charge(s)
        totals_flat = yield from broadcast_word(ctx, group_total_for_r)
        # totals[src_group][dest_group], announced by rank dest_group of
        # src_group.
        totals = tuple(
            tuple(totals_flat[sg * s : sg * s + s]) for sg in range(s)
        )
        if strict and sum(sum(row) for row in totals) != n * n:
            raise ProtocolError("Alg2 Step 1: totals do not sum to n^2")

        # Step 2 (local): color the group-to-group demand multigraph; color c
        # sends a message to intermediate group (c mod s).
        ctx.enter_phase("alg2.step2")
        step2_colors = ctx.shared_compute(
            ("alg2s2", totals), lambda: _color_pairs(totals)
        )
        ctx.charge_sort(n)

        # Step 3: announce my per-dest-group counts within my group, so all
        # members can place each other's messages in the group's canonical
        # order (the paper's "deferred completion" of Step 2).
        ctx.enter_phase("alg2.step3")
        counts_mat = yield from announce_within_group(
            ctx, groups, g, r, my_counts, ("a2s3", totals)
        )
        # My messages for dest group j take the Step-2 colors of the group
        # pair (g, j) after those of lower-ranked members.
        next_idx = [
            sum(counts_mat[a][j] for a in range(r)) for j in range(s)
        ]
        my_colors: List[int] = []
        for h, _ in held:  # held is sorted => canonical per-pair order
            j = h // base % base // s
            idx = next_idx[j]
            next_idx[j] = idx + 1
            my_colors.append(step2_colors[(g, j)][idx])
        ctx.charge(len(held) + s * s)

        # Step 4 (local): pattern for the intra-group shuffle that makes the
        # Step-2 exchange executable in one round.  Edge (member a ->
        # intermediate group j) per message; Koenig coloring; color i moves
        # the message to member (i mod s).
        ctx.enter_phase("alg2.step4")
        counts_key = tuple(map(tuple, counts_mat))
        # The Step-4/5 patterns are pure functions of (totals, counts, g):
        # the per-run shared cache keeps node agreement semantics, while the
        # process-wide plan cache replays the derivations across runs.
        step4_demand = ctx.shared_compute(
            ("a2s4d", totals, counts_key, g),
            lambda: planned(
                ("a2s4d", totals, counts_key, g),
                lambda: _step4_demand(s, counts_mat, step2_colors, g),
            ),
        )
        step4_colors = ctx.shared_compute(
            ("a2s4c", totals, counts_key, g),
            lambda: _color_pairs(step4_demand),
        )
        move_demand = ctx.shared_compute(
            ("a2s5d", totals, counts_key, g),
            lambda: planned(
                ("a2s5d", totals, counts_key, g),
                lambda: _mod_s_demand(step4_colors, s),
            ),
        )
        # Each message carries its Step-2 color so the new holder knows j.
        by_igroup: List[List[Tuple[int, ...]]] = [[] for _ in range(s)]
        for (h, payload), color in zip(held, my_colors):
            by_igroup[color % s].append((h, payload, color))
        items: List[Tuple[int, Tuple[int, ...]]] = []
        for j, msgs in enumerate(by_igroup):
            if not msgs:
                continue
            pal = step4_colors[(r, j)]
            if len(pal) != len(msgs):
                raise ProtocolError("Alg2 Step 4: demand/coloring mismatch")
            for item, color4 in zip(msgs, pal):
                items.append((color4 % s, item))
        ctx.charge(len(held))

        # Step 5: execute the intra-group shuffle (2 rounds, Cor. 3.3).
        ctx.enter_phase("alg2.step5")
        held3 = yield from route_known(
            ctx,
            groups,
            g,
            r,
            items,
            move_demand,
            ("a2s5", totals, g),
            item_width=3,
        )
        ctx.observe_live_words(3 * len(held3))

        # Invariant (paper, end of Step 4 argument): in the exact case each
        # node now holds exactly sqrt(n) messages per intermediate group.
        per_igroup: List[List[Tuple[int, ...]]] = [[] for _ in range(s)]
        for it in held3:
            per_igroup[it[2] % s].append(it)
        for j, msgs in enumerate(per_igroup):
            if strict and len(msgs) != s:
                raise ProtocolError(
                    f"Alg2 Step 5 invariant: node holds {len(msgs)} messages "
                    f"for intermediate group {j}, expected {s}"
                )
            if len(msgs) > lanes * s:
                raise ProtocolError(
                    f"Alg2 Step 5 bound: {len(msgs)} messages for group {j} "
                    f"exceeds lanes*sqrt(n) = {lanes * s}"
                )

        # Step 6: the inter-group exchange, one round.  My k-th message for
        # intermediate group j goes to member (k mod s) of group j; with
        # relaxed loads up to `lanes` two-word segments share a packet.
        ctx.enter_phase("alg2.step6")
        assignments: Dict[int, List[Tuple[int, ...]]] = {}
        for j, msgs in enumerate(per_igroup):
            targets = groups[j]
            msgs.sort()
            for k, it in enumerate(msgs):
                assignments.setdefault(targets[k % s], []).append(it[:2])
        if strict and len(assignments) != n:
            raise ProtocolError("Alg2 Step 6: expected to send n messages")
        inbox = yield _send_bundled(assignments, 2, ctx.capacity)
        held = _recv_bundled(inbox, 2)
        held.sort()
        if strict and len(held) != n:
            raise ProtocolError(
                f"Alg2 Step 6: received {len(held)} messages, expected {n}"
            )

        # ------------- Algorithm 1 Step 3: 4 rounds ------------------------
        # Rebalance within the (intermediate) group so every member holds a
        # balanced share per destination group.
        ctx.enter_phase("alg1.step3")
        by_dgroup: List[List[WireMsg]] = [[] for _ in range(s)]
        for w in held:  # sorted, so every list is sorted
            by_dgroup[w[0] // base % base // s].append(w)
        my_counts3 = [len(msgs) for msgs in by_dgroup]
        counts3 = yield from announce_within_group(
            ctx, groups, g, r, my_counts3, ("a1s3", totals, g)
        )
        if strict:
            for j in range(s):
                tot = sum(counts3[a][j] for a in range(s))
                if tot != n:
                    raise ProtocolError(
                        f"Alg1 Step 2 invariant: group holds {tot} messages "
                        f"for dest group {j}, expected {n}"
                    )
        counts3_t = tuple(tuple(row) for row in counts3)
        colors3 = ctx.shared_compute(
            ("a1s3c", counts3_t, g), lambda: _color_pairs(counts3_t)
        )
        demand3 = ctx.shared_compute(
            ("a1s3d", counts3_t, g),
            lambda: planned(
                ("a1s3d", counts3_t),
                lambda: _mod_s_demand(colors3, s),
            ),
        )
        items3: List[Tuple[int, Tuple[int, ...]]] = []
        for j, msgs in enumerate(by_dgroup):
            if not msgs:
                continue
            pal = colors3[(r, j)]
            if len(pal) != len(msgs):
                raise ProtocolError("Alg1 Step 3: demand/coloring mismatch")
            for w, c in zip(msgs, pal):
                items3.append((c % s, w))
        held = yield from route_known(
            ctx,
            groups,
            g,
            r,
            items3,
            demand3,
            ("a1s3r", counts3_t, g),
            item_width=2,
        )

        by_dgroup = [[] for _ in range(s)]
        for w in held:
            by_dgroup[w[0] // base % base // s].append(w)
        for j, msgs in enumerate(by_dgroup):
            cnt = len(msgs)
            if strict and cnt != s:
                raise ProtocolError(
                    f"Alg1 Step 3 invariant: node holds {cnt} messages for "
                    f"dest group {j}, expected {s}"
                )
            if cnt > lanes * s:
                raise ProtocolError(
                    f"Alg1 Step 3 bound: {cnt} > lanes*sqrt(n)"
                )

        # ------------- Algorithm 1 Step 4: 1 round -------------------------
        ctx.enter_phase("alg1.step4")
        assignments = {}
        for j, msgs in enumerate(by_dgroup):
            targets = groups[j]
            msgs.sort()
            for k, w in enumerate(msgs):
                assignments.setdefault(targets[k % s], []).append(w)
        inbox = yield _send_bundled(assignments, 2, ctx.capacity)
        held = _recv_bundled(inbox, 2)
        held.sort()
        for h, _ in held:
            if h // base % base // s != g:
                raise ProtocolError(
                    "Alg1 Step 4 invariant: every held message must be "
                    "destined inside this node's group"
                )
        if strict and len(held) != n:
            raise ProtocolError(
                f"Alg1 Step 4: node holds {len(held)} messages, expected {n}"
            )

        # ------------- Algorithm 1 Step 5: 4 rounds (Cor. 3.4) -------------
        ctx.enter_phase("alg1.step5")
        first = g * s
        items5 = [(w[0] // base % base - first, w) for w in held]
        received5 = yield from route_unknown(
            ctx, groups, g, r, items5, ("a1s5", g), item_width=2
        )
        for h, _ in received5:
            if h // base % base != me:
                raise ProtocolError(
                    f"delivery invariant: node {me} received a foreign "
                    "message"
                )
        if strict and len(received5) != n:
            raise ProtocolError(
                f"delivery invariant: node {me} received {len(received5)} "
                f"messages, expected {n}"
            )
        ctx.observe_live_words(2 * len(received5))
        received5.sort()
        return received5

    return program


def _step4_demand(
    s: int,
    counts_mat: List[List[int]],
    step2_colors: Dict[Tuple[int, int], List[int]],
    g: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Demand of the Step-4 graph: member rank -> intermediate group.

    ``demand[a][j]`` counts member ``a``'s messages whose Step-2 color is
    congruent to ``j`` mod ``s`` — derivable by every group member from the
    announced counts and the shared Step-2 coloring.
    """
    offsets = [[0] * s for _ in range(s)]
    for j in range(s):
        acc = 0
        for a in range(s):
            offsets[a][j] = acc
            acc += counts_mat[a][j]
    demand = [[0] * s for _ in range(s)]
    for a in range(s):
        for j2 in range(s):
            pal = step2_colors.get((g, j2), [])
            for idx in range(counts_mat[a][j2]):
                c = pal[offsets[a][j2] + idx]
                demand[a][c % s] += 1
    return tuple(tuple(row) for row in demand)


def _mod_s_demand(
    colors_by_pair: Dict[Tuple[int, int], List[int]], s: int
) -> Tuple[Tuple[int, ...], ...]:
    """Member-to-member demand induced by "color i moves to member i mod s"."""
    demand = [[0] * s for _ in range(s)]
    for (a, _j), pal in colors_by_pair.items():
        for c in pal:
            demand[a][c % s] += 1
    return tuple(tuple(row) for row in demand)


def route_lenzen_square(
    instance: RoutingInstance,
    capacity: int = 8,
    meter: bool = False,
    verify_shared: bool = False,
    engine: "EngineSpec" = None,
) -> RunResult:
    """Run the 16-round router on a perfect-square instance."""
    clique = CongestedClique(
        instance.n,
        capacity=capacity,
        meter=meter,
        verify_shared=verify_shared,
        engine=engine,
    )
    return clique.run(lenzen_square_program(instance))
