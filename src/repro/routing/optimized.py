"""Section 5: routing in 12 rounds with O(n log n) local work and memory.

Theorem 5.4 trades four rounds of the 16-round algorithm against much
cheaper local computation, replacing the big per-message Koenig colorings by

* **round-robin spreading** (Lemma 5.1 / Corollary 5.2): instead of
  computing an exact intra-group pattern, each node deals its destination-
  sorted messages over all ``n`` nodes (one round) which bounce them back to
  the group's members in a fixed rotation (one round).  The fixed pattern
  needs no computation beyond a bucket sort, and every member ends up with
  at most ``~2 sqrt(n)`` messages per destination group — good enough for a
  direct exchange with doubled message size.
* **super-message coloring** (Lemma 5.3): the inter-group pattern colors a
  graph whose edges are *bundles of n messages* (plus fewer than ``n``
  residual messages per group pair, delivered directly over the ``n`` edges
  joining the two groups — footnote 6).  The multigraph has O(n) edges and
  degree about ``sqrt(n)``, so exact Koenig coloring costs O(n log n) local
  steps.

Schedule (12 rounds):

=======  ====================================================  ======
phase    what                                                  rounds
=======  ====================================================  ======
A1/A2    per-group counts, group totals broadcast              2
A3/A4    round-robin spread within groups (Cor. 5.2)           2
A5       inter-group exchange per super-coloring + residuals   1
B1/B2    round-robin spread within groups (Lemma 5.1)          2
B3       direct shipment to destination groups, bundled        1
C        delivery within groups (Corollary 3.4)                4
=======  ====================================================  ======

Loads are balanced within constant factors rather than exactly, so packets
bundle a constant number of two-word messages (the paper's "doubling the
message size"); the engine capacity below accommodates the widest bundle.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Sequence, Tuple

from ..core.context import NodeContext, planned
from ..core.engine import EngineSpec
from ..core.errors import ProtocolError
from ..core.message import Packet
from ..core.network import CongestedClique, RunResult
from ..core.topology import square_groups, square_partition
from ..core.wire import header_codec
from ..graphtools.coloring import koenig_color_pairs
from .lenzen import WireMsg, _send_bundled, header_base
from .primitives import broadcast_word, route_unknown
from .problem import Message, RoutingInstance

#: Paper round budget (Theorem 5.4).
ROUNDS_OPTIMIZED = 12

#: The constant-factor message-size increase of Section 5.
OPT_CAPACITY = 24


def _super_classes(
    totals: Tuple[Tuple[int, ...], ...], n: int, s: int
) -> Dict[Tuple[int, int], List[int]]:
    """Color the super-message graph; list the color classes per group pair.

    Edge (g, g') appears ``floor(totals[g][g'] / n)`` times (each edge is a
    bundle of ``n`` messages).  The graph has at most ``n`` edges and degree
    at most ``sqrt(n)``, is padded to regular and Koenig-colored; class ``c``
    ships through intermediate group ``c mod s``.

    Pure in ``(totals, n)`` (``s = sqrt(n)``), so plan-cached across runs;
    the shared result must not be mutated.
    """
    return planned(
        ("super_classes", totals, n), lambda: _super_classes_impl(totals, n, s)
    )


def _super_classes_impl(
    totals: Tuple[Tuple[int, ...], ...], n: int, s: int
) -> Dict[Tuple[int, int], List[int]]:
    bundles = [[totals[g][g2] // n for g2 in range(s)] for g in range(s)]
    by_pair, _ = koenig_color_pairs(bundles)
    return {pair: [c % s for c in colors] for pair, colors in by_pair.items()}


def _spread_rounds(
    ctx: NodeContext,
    part,
    held: List[WireMsg],
    dgroup,
    capacity: int,
) -> Generator[Dict[int, Packet], Dict[int, Packet], List[WireMsg]]:
    """Lemma 5.1's 2-round round-robin rebalance within each group.

    Round 1 scatters this node's destination-sorted messages over all ``n``
    nodes (message ``k`` to relay ``k mod n``, lane ``k // n``); round 2 the
    relays bounce each message to member ``(relay + sender_rank + lane) mod
    s`` of the sender's group.  Purely positional — O(n) local work, no
    pattern computation, and every member ends with a per-destination-group
    share that is balanced up to a constant factor.
    """
    n, s = ctx.n, part.group_size
    held = sorted(held, key=lambda w: (dgroup(w), w))
    ctx.charge(len(held) + n)
    assignments: Dict[int, List[Tuple[int, ...]]] = {}
    for k, w in enumerate(held):
        assignments.setdefault(k % n, []).append(w)
    inbox = yield _send_bundled(assignments, 2, capacity)

    forward: Dict[int, List[Tuple[int, ...]]] = {}
    me = ctx.node_id
    for src in sorted(inbox):
        words = inbox[src].words
        rank = part.rank_in_group(src)
        group = part.group_of(src)
        for lane in range(len(words) // 2):
            seg = tuple(words[2 * lane : 2 * lane + 2])
            member = part.member(group, (me + rank + lane) % s)
            forward.setdefault(member, []).append(seg)
    inbox = yield _send_bundled(forward, 2, capacity)

    out: List[WireMsg] = []
    for src in sorted(inbox):
        words = inbox[src].words
        for i in range(0, len(words), 2):
            out.append((words[i], words[i + 1]))
    ctx.charge(len(out))
    return sorted(out)


def optimized_program(
    instance: RoutingInstance,
) -> Callable[[NodeContext], Generator]:
    """Theorem 5.4's 12-round router (perfect-square ``n``)."""
    n = instance.n
    part = square_partition(n)
    s = part.group_size
    groups = square_groups(n)
    hbase = header_base(n, instance.max_load)
    codec = header_codec(hbase)
    pack = codec.pack
    wire_messages = [
        sorted(
            (pack(m.source, m.dest, m.seq), m.payload)
            for m in instance.messages_by_source[i]
        )
        for i in range(n)
    ]

    def program(ctx: NodeContext) -> Generator:
        me = ctx.node_id
        g = part.group_of(me)
        r = part.rank_in_group(me)
        held: List[WireMsg] = list(wire_messages[me])
        ctx.observe_live_words(2 * len(held))

        codec_dest = codec.dest_of

        def dest_of(w: Sequence[int]) -> int:
            return codec_dest(w[0])

        def dgroup(w: Sequence[int]) -> int:
            return codec_dest(w[0]) // s

        # ---- A1/A2: group-to-group totals (2 rounds). ----------------------
        ctx.enter_phase("opt.totals")
        my_counts = [0] * s
        for w in held:
            my_counts[dgroup(w)] += 1
        ctx.charge(len(held) + s)
        inbox = yield {
            part.member(g, i): Packet((my_counts[i],)) for i in range(s)
        }
        group_total_for_r = sum(p.words[0] for p in inbox.values())
        totals_flat = yield from broadcast_word(ctx, group_total_for_r)
        totals = tuple(
            tuple(totals_flat[part.member(sg, dg)] for dg in range(s))
            for sg in range(s)
        )

        # Local: super-message coloring — O(n) edges, O(n log n) steps.
        classes = ctx.shared_compute(
            ("opt.super", totals), lambda: _super_classes(totals, n, s)
        )
        ctx.charge(int(n * max(1, (s).bit_length())))

        # ---- A3/A4: round-robin spread within groups (2 rounds). ----------
        ctx.enter_phase("opt.spreadA")
        held = yield from _spread_rounds(ctx, part, held, dgroup, ctx.capacity)

        # ---- A5: inter-group exchange (1 round). --------------------------
        # For each destination group g2: deal my (g -> g2) messages over the
        # color classes of the pair plus, if the pair's total is not an exact
        # multiple of n, one direct-delivery slot (footnote 6).
        ctx.enter_phase("opt.exchange")
        by_dg: Dict[int, List[WireMsg]] = {}
        for w in held:
            by_dg.setdefault(dgroup(w), []).append(w)
        assignments: Dict[int, List[Tuple[int, ...]]] = {}
        for g2, msgs in sorted(by_dg.items()):
            cls = classes.get((g, g2), [])
            direct = 1 if totals[g][g2] % n != 0 or not cls else 0
            targets = len(cls) + direct
            for i, w in enumerate(msgs):
                t = (i + r) % targets
                if t < len(cls):
                    target_group = cls[t]
                else:
                    target_group = g2  # direct to the destination group
                member = part.member(target_group, (i // targets + r) % s)
                assignments.setdefault(member, []).append(w)
        inbox = yield _send_bundled(assignments, 2, ctx.capacity)
        held = []
        for src in sorted(inbox):
            words = inbox[src].words
            for i in range(0, len(words), 2):
                held.append((words[i], words[i + 1]))
        ctx.observe_live_words(2 * len(held))

        # ---- B1/B2: spread again within the holding group (2 rounds). -----
        ctx.enter_phase("opt.spreadB")
        held = yield from _spread_rounds(ctx, part, held, dgroup, ctx.capacity)

        # ---- B3: ship to destination groups, bundled (1 round). -----------
        ctx.enter_phase("opt.ship")
        assignments = {}
        stay: List[WireMsg] = []
        by_dg = {}
        for w in held:
            by_dg.setdefault(dgroup(w), []).append(w)
        for g2, msgs in sorted(by_dg.items()):
            if g2 == g:
                stay.extend(msgs)
                continue
            for k, w in enumerate(sorted(msgs)):
                member = part.member(g2, (k + r) % s)
                assignments.setdefault(member, []).append(w)
        inbox = yield _send_bundled(assignments, 2, ctx.capacity)
        held = list(stay)
        for src in sorted(inbox):
            words = inbox[src].words
            for i in range(0, len(words), 2):
                held.append((words[i], words[i + 1]))
        if any(dgroup(w) != g for w in held):
            raise ProtocolError(
                "Section 5 B3: node holds a message for a foreign group"
            )

        # ---- C: deliver within groups (Corollary 3.4, 4 rounds). ----------
        ctx.enter_phase("opt.deliver")
        items = [(dest_of(w) - g * s, w) for w in held]
        delivered = yield from route_unknown(
            ctx, groups, g, r, items, ("optC", g), item_width=2
        )
        unpack = codec.unpack
        final = [
            Message(*unpack(it[0]), payload=it[1]) for it in delivered
        ]
        if any(m.dest != me for m in final):
            raise ProtocolError("Section 5 delivered a foreign message")
        ctx.observe_live_words(2 * len(final))
        return sorted(final)

    return program


def route_optimized(
    instance: RoutingInstance,
    meter: bool = False,
    verify_shared: bool = False,
    engine: "EngineSpec" = None,
) -> RunResult:
    """Run the Section 5 router (12 rounds, O(n log n) work per node)."""
    clique = CongestedClique(
        instance.n,
        capacity=OPT_CAPACITY,
        meter=meter,
        verify_shared=verify_shared,
        engine=engine,
    )
    return clique.run(optimized_program(instance))
