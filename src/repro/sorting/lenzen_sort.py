"""Algorithm 4: deterministic sorting of ``n^2`` keys in 37 rounds.

Round budget (Theorem 4.5), reproduced exactly:

=========  ================================================  ======
step       what                                              rounds
=========  ================================================  ======
1 (local)  sort input, select every sqrt(n)-th key           0
2          i-th selected key to node i                       1
3          Algorithm 3 on nodes 0..sqrt(n)-1 (skip Step 8)   8
4          announce the sqrt(n) delimiters to all nodes      2
5 (local)  split input by delimiters                         0
6          ship bucket j to group j (Theorem 3.7 router,
           two keys packed per message word)                 16
7          Algorithm 3 inside every group (skip Step 8)      8
8          rebalance to exact batches (Corollary 3.3)        2
=========  ================================================  ======

Step 8 needs every node's post-Step-7 key count as *common knowledge*.  The
count is known to its holder right after Step 7's internal count
announcement, so it piggybacks on one word of Step 7's remaining rounds
(filling unused edges) — message size stays O(log n) and no extra round is
spent, preserving the paper's total of 37.

Requires perfect-square ``n`` (the paper's non-square remark — "work with
subsets of size floor(sqrt(n))" at constant-factor larger messages — applies
but is not implemented; use square ``n``).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Generator, List, Tuple

from ..core.context import NodeContext
from ..core.engine import EngineSpec
from ..core.errors import InvalidInstance, ProtocolError
from ..core.network import CongestedClique, RunResult
from ..core.topology import is_perfect_square, square_groups, square_partition
from ..core.wire import fast_packet, header_codec
from ..routing.lenzen import header_base, lenzen_wire_route
from ..routing.primitives import route_known
from .problem import SortInstance
from .subset_sort import (
    KEYS_PER_ITEM,
    _announce_sentinel,
    _key_items,
    subset_sort,
)

#: Paper round budget (Theorem 4.5).
ROUNDS_SORT = 37

#: Packet capacity for sorting runs.  The paper freely increases message
#: size by constant factors (e.g. "bundling up to two keys in each message");
#: 16 words accommodate the widest bundle (2 lanes x 5-word bucket items
#: plus the Step-7 piggyback word).
SORT_CAPACITY = 16


def lenzen_sort_program(
    instance: SortInstance,
) -> Callable[[NodeContext], Generator]:
    """Program factory for Algorithm 4."""
    n = instance.n
    if not is_perfect_square(n):
        raise InvalidInstance("Algorithm 4 requires perfect-square n")
    part = square_partition(n)
    s = part.group_size
    groups: Tuple[Tuple[int, ...], ...] = square_groups(n)
    tagged = instance.tagged_by_node()
    codec = instance.codec
    # Step-6 wire table: one slot per node, each filled by its own program
    # before the embedded router starts (no cross-node reads happen).
    route_table: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    # Step-6 routing: up to 2n messages per node (two packed keys each).
    route_load = 2 * n
    hbase = header_base(n, route_load)
    pack_header = header_codec(hbase).pack  # hoisted: one codec per factory

    def program(ctx: NodeContext) -> Generator:
        me = ctx.node_id
        g = part.group_of(me)
        r = part.rank_in_group(me)
        keys = list(tagged[me])  # already sorted
        sentinel = _announce_sentinel(ctx)
        ctx.observe_live_words(len(keys))

        # ---- Step 1 (local): select every sqrt(n)-th key. -----------------
        ctx.enter_phase("alg4.sample")
        selected = [keys[i] for i in range(s - 1, len(keys), s)]

        # ---- Step 2 (1 round): i-th selected key to node i. ---------------
        outbox = {
            i: fast_packet((key,)) for i, key in enumerate(selected)
        }
        inbox = yield outbox
        sample_pool = sorted(pkt.words[0] for pkt in inbox.values())

        # ---- Step 3 (8 rounds): sorter group sorts the n^(3/2) samples. ---
        ctx.enter_phase("alg4.sort_samples")
        sorter_group = 0
        res3 = yield from subset_sort(
            ctx,
            groups,
            sorter_group if g == sorter_group else None,
            r if g == sorter_group else None,
            sample_pool if g == sorter_group else [],
            k_max=n,
            pattern_key="a4s3",
            redistribute=False,
        )

        # ---- Step 4 (2 rounds): announce delimiters to all nodes. ---------
        # The sorted sample has s*n keys in total; delimiters sit at global
        # sample indices n-1, 2n-1, ..., (s-1)*n - 1 (s-1 split points; the
        # last bucket is open-ended).  Each sorter owns a contiguous run and
        # sends the delimiters inside it to everyone, two (id, key) pairs
        # per round.
        ctx.enter_phase("alg4.delimiters")
        my_delims: List[Tuple[int, int]] = []
        if g == sorter_group and res3 is not None:
            lo = res3.run_offset
            for d in range(1, s):
                pos = d * n - 1
                if lo <= pos < lo + len(res3.run):
                    my_delims.append((d - 1, res3.run[pos - lo]))
        collected: Dict[int, int] = {}
        for half in range(2):
            chunk = my_delims[2 * half : 2 * half + 2]
            outbox = {}
            if chunk:
                # One immutable packet object serves every edge.
                words = tuple(x for pair in chunk for x in pair)
                outbox = dict.fromkeys(range(n), fast_packet(words))
            inbox = yield outbox
            for pkt in inbox.values():
                for i in range(0, len(pkt.words), 2):
                    collected[pkt.words[i]] = pkt.words[i + 1]
        if len(my_delims) > 4:
            raise ProtocolError(
                f"sorter holds {len(my_delims)} delimiters; bound is 4 "
                "(run < 2n keys spans < 3 delimiter positions)"
            )
        delimiters = [collected[d] for d in range(s - 1) if d in collected]
        if len(delimiters) != s - 1:
            raise ProtocolError(
                f"missing delimiters: got {len(delimiters)} of {s - 1}"
            )

        # ---- Step 5 (local): split my input by the delimiters. ------------
        ctx.enter_phase("alg4.split")
        splits = [bisect.bisect_right(keys, d) for d in delimiters]
        bounds = [0] + splits + [len(keys)]
        buckets = [keys[bounds[j] : bounds[j + 1]] for j in range(s)]
        ctx.charge(len(keys))

        # ---- Step 6 (16 rounds): ship bucket j to group j. ----------------
        # Each sender splits its own bucket evenly over the group members
        # (floor/ceil shares, rotation (me + j) keeps the remainders spread:
        # key k goes to member (k + me + j) mod s), packing two keys per
        # message payload word.
        ctx.enter_phase("alg4.route")
        pair_base = sentinel + 1
        wire_msgs: List[Tuple[int, int]] = []
        seq = 0
        for j, bucket in enumerate(buckets):
            targets = groups[j]
            for b in range(s):
                share = bucket[(b - me - j) % s :: s]
                seconds = share[1::2]
                if len(share) % 2:
                    seconds.append(sentinel)
                dest = targets[b]
                for first, second in zip(share[::2], seconds):
                    payload = first * pair_base + second
                    wire_msgs.append((pack_header(me, dest, seq), payload))
                    seq += 1
        if seq > route_load:
            raise ProtocolError(
                f"step 6 source load {seq} exceeds bound {route_load}"
            )
        wire_msgs.sort()
        route_table[me] = wire_msgs
        router = lenzen_wire_route(
            n, route_table, load_bound=route_load, strict=False
        )
        delivered = yield from router(ctx)
        bucket_keys: List[int] = []
        for _, payload in delivered:
            a, b = divmod(payload, pair_base)
            if a != sentinel:
                bucket_keys.append(a)
            if b != sentinel:
                bucket_keys.append(b)
        ctx.observe_live_words(len(bucket_keys))

        # ---- Step 7 (8 rounds): every group sorts its bucket; each node
        # piggybacks its final count so Step 8's pattern becomes global
        # common knowledge for free. --------------------------------------
        ctx.enter_phase("alg4.sort_buckets")
        res7 = yield from subset_sort(
            ctx,
            groups,
            g,
            r,
            bucket_keys,
            k_max=3 * n,
            pattern_key="a4s7",
            redistribute=False,
            piggyback_my_count=True,
        )
        assert res7 is not None
        all_counts = tuple(
            res7.piggyback_counts.get(v, 0) for v in range(n)
        )
        if sum(all_counts) != sum(len(ks) for ks in tagged):
            raise ProtocolError(
                "piggybacked counts do not cover all keys"
            )

        # ---- Step 8 (2 rounds): rebalance to exact batches. ---------------
        # Global order = (group, member-rank) = node-id order: bucket j is
        # held, contiguously, by the members of group j in rank order.
        ctx.enter_phase("alg4.redist")
        offsets = [0] * (n + 1)
        for v in range(n):
            offsets[v + 1] = offsets[v] + all_counts[v]
        total = offsets[n]
        base, extra = divmod(total, n)
        t_bounds = [0] * (n + 1)
        for v in range(n):
            t_bounds[v + 1] = t_bounds[v] + base + (1 if v < extra else 0)
        # Consistency: my run must start at offsets[me].
        my_lo = offsets[me]
        if all_counts[me] != len(res7.run):
            raise ProtocolError("announced count differs from held run")
        all_group = (tuple(range(n)),)
        demand, my_items = _global_overlap_demand(
            offsets, t_bounds, res7.run, me, n, sentinel
        )
        received = yield from route_known(
            ctx,
            all_group,
            0,
            me,
            my_items,
            demand,
            ("a4s8", all_counts),
            item_width=KEYS_PER_ITEM,
        )
        batch = sorted(
            k for item in received for k in item if k != sentinel
        )
        want = t_bounds[me + 1] - t_bounds[me]
        if len(batch) != want:
            raise ProtocolError(
                f"final batch has {len(batch)} keys, expected {want}"
            )
        ctx.charge_sort(len(batch))
        return batch

    return program


def _global_overlap_demand(
    offsets: List[int],
    t_bounds: List[int],
    run: List[int],
    me: int,
    n: int,
    sentinel: int,
):
    """Step-8 pattern over the whole clique: run x batch overlaps, chunked.

    A run overlaps a few consecutive batches, so each row is a shared
    all-zero tuple with at most those cells filled in.
    """
    zeros = (0,) * n
    demand = [zeros] * n
    items: List[Tuple[int, Tuple[int, ...]]] = []
    for v in range(n):
        lo, hi = offsets[v], offsets[v + 1]
        if lo == hi:
            continue
        row = list(zeros)
        b_lo = bisect.bisect_right(t_bounds, lo) - 1
        b = max(0, min(b_lo, n - 1))
        while b < n and t_bounds[b] < hi:
            overlap = min(hi, t_bounds[b + 1]) - max(lo, t_bounds[b])
            if overlap > 0:
                row[b] = -(-overlap // KEYS_PER_ITEM)
                if v == me:
                    start = max(lo, t_bounds[b]) - lo
                    for chunk in _key_items(
                        run[start : start + overlap], sentinel
                    ):
                        items.append((b, chunk))
            b += 1
        demand[v] = tuple(row)
    return tuple(demand), items


def sort_lenzen(
    instance: SortInstance,
    meter: bool = False,
    verify_shared: bool = False,
    engine: "EngineSpec" = None,
) -> RunResult:
    """Run Algorithm 4; outputs are per-node sorted tagged-key batches."""
    clique = CongestedClique(
        instance.n,
        capacity=SORT_CAPACITY,
        meter=meter,
        verify_shared=verify_shared,
        engine=engine,
    )
    return clique.run(lenzen_sort_program(instance))
