"""Algorithm 3: sorting up to ``2n^{3/2}`` keys within a group of ``sqrt(n)``
nodes, using only edges with an endpoint in the group.

Parameterized as in DESIGN.md: for a group of ``w`` nodes holding at most
``k_max`` keys each, the sampling stride is ``s = ceil(k_max / w)`` and every
``w``-th sample is a delimiter, giving at most ``w`` buckets of fewer than
``k_max + s*w (~ 2*k_max)`` keys (the generalization of Lemma 4.3's ``< 4n``).

Round budget (Lemma 4.4):

=========  ======================================  ======
step       what                                    rounds
=========  ======================================  ======
1 (local)  sort input, select every s-th key       0
2          announce samples within group           2
3 (local)  pick every w-th sample as delimiter     0
4 (local)  split input into buckets                0
5          announce bucket counts within group     2
6          send bucket j to member j (Cor. 3.4)    4
7 (local)  sort received bucket                    0
8 (opt)    rebalance to even shares (Cor. 3.3)     2
=========  ======================================  ======

Total: 10 rounds standalone, 8 when the caller skips Step 8 (Algorithm 4
does, twice).  Multiple disjoint groups run concurrently; nodes outside all
groups participate as relays (``my_group=None``).

Optionally the step-6 rounds piggyback one word per node (each node's final
bucket share size) to all nodes — Algorithm 4 uses this to make the global
Step-8 exchange pattern common knowledge without spending extra rounds.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Generator, Hashable, List, Optional, Sequence, Tuple

from ..core.context import NodeContext
from ..core.errors import ProtocolError
from ..core.message import Packet
from ..core.protocol import attach_piggyback, strip_piggyback
from ..routing.primitives import announce_within_group, route_known, route_unknown
from .problem import KeyCodec

#: Keys carried per step-6 item (the paper bundles "a constant number").
KEYS_PER_ITEM = 4

ROUNDS_FULL = 10
ROUNDS_NO_REDIST = 8


@dataclass
class SubsetSortResult:
    """What one group member knows after Algorithm 3 (without Step 8).

    Attributes:
        run: the sorted keys this node now holds (its bucket, or its even
            share after Step 8).
        run_offset: index of ``run[0]`` in the sorted order of all the
            group's keys.
        member_counts: keys held by each member after Step 6 (common
            knowledge within the group).
        bucket_sizes: total keys per bucket (Lemma 4.3 diagnostics).
        piggyback_counts: node -> announced word, when piggyback was on.
    """

    run: List[int]
    run_offset: int
    member_counts: List[int]
    bucket_sizes: List[int]
    piggyback_counts: Dict[int, int] = field(default_factory=dict)


def subset_sort(
    ctx: NodeContext,
    groups: Tuple[Tuple[int, ...], ...],
    my_group: Optional[int],
    my_rank: Optional[int],
    my_keys: Sequence[int],
    k_max: int,
    pattern_key: Hashable,
    redistribute: bool = True,
    piggyback_my_count: bool = False,
) -> Generator[Dict[int, Packet], Dict[int, Packet], Optional[SubsetSortResult]]:
    """Run Algorithm 3 at this node; see module docstring for the schedule.

    ``my_keys`` are tagged (distinct) keys; ``k_max`` is the commonly known
    bound on keys per member.  Returns ``None`` for non-members.
    """
    if my_group is None:
        return (yield from _relay(ctx, groups, pattern_key, redistribute,
                                  piggyback_my_count))

    w = len(groups[my_group])
    stride = max(1, -(-k_max // w))  # ceil(k_max / w)
    keys = sorted(my_keys)
    ctx.charge_sort(len(keys))
    ctx.observe_live_words(len(keys))

    # Step 1: select every stride-th key (1-based positions stride, 2*stride..)
    ctx.enter_phase("alg3.sample")
    selected = [keys[i] for i in range(stride - 1, len(keys), stride)]
    max_selected = k_max // stride
    sentinel = _announce_sentinel(ctx)
    vector = [len(selected)] + selected + [sentinel] * (
        max_selected - len(selected)
    )

    # Step 2: announce samples within the group (2 rounds).
    sample_matrix = yield from announce_within_group(
        ctx, groups, my_group, my_rank, vector, (pattern_key, "smp")
    )

    # Step 3 (local): same input at every member => same delimiters.
    all_samples: List[int] = []
    for row in sample_matrix:
        cnt = row[0]
        all_samples.extend(row[1 : 1 + cnt])
    all_samples.sort()
    ctx.charge_sort(len(all_samples))
    # Every w-th sample; first w-1 of them are the split points, the last
    # bucket is open-ended (keys above the last sample land in bucket w-1).
    delimiters = all_samples[w - 1 :: w][: w - 1]
    # With few samples there may be fewer than w-1 split points; pad with the
    # sentinel so every member still addresses exactly w (possibly empty)
    # buckets.
    delimiters.extend([sentinel] * (w - 1 - len(delimiters)))

    # Step 4 (local): split my input into buckets.
    splits = [bisect.bisect_right(keys, d) for d in delimiters]
    bounds = [0] + splits + [len(keys)]
    buckets = [keys[bounds[j] : bounds[j + 1]] for j in range(w)]
    my_counts = [len(b) for b in buckets]
    ctx.charge(len(keys))

    # Step 5: announce bucket counts within the group (2 rounds).
    ctx.enter_phase("alg3.counts")
    counts = yield from announce_within_group(
        ctx, groups, my_group, my_rank, my_counts, (pattern_key, "cnt")
    )
    bucket_sizes = [sum(counts[a][j] for a in range(w)) for j in range(w)]
    bucket_offsets = [0] * w
    for j in range(1, w):
        bucket_offsets[j] = bucket_offsets[j - 1] + bucket_sizes[j - 1]
    my_final_count = bucket_sizes[my_rank]

    # Step 6: send bucket j to member j (Corollary 3.4, 4 rounds), keys
    # bundled KEYS_PER_ITEM to an item and padded with the sentinel.
    ctx.enter_phase("alg3.exchange")
    items: List[Tuple[int, Tuple[int, ...]]] = []
    for j, bucket in enumerate(buckets):
        items += [(j, chunk) for chunk in _key_items(bucket, sentinel)]
    exchange = route_unknown(
        ctx,
        groups,
        my_group,
        my_rank,
        items,
        (pattern_key, "exc"),
        item_width=KEYS_PER_ITEM,
    )
    pig_word = my_final_count if piggyback_my_count else None
    received, pig_counts = yield from _drive_with_piggyback(
        ctx, exchange, pig_word
    )

    # Step 7 (local): sort my bucket.
    run = sorted(
        k for item in received for k in item if k != sentinel
    )
    ctx.charge_sort(len(run))
    if len(run) != my_final_count:
        raise ProtocolError(
            f"Alg3 Step 6: member holds {len(run)} keys, counts say "
            f"{my_final_count}"
        )
    # Lemma 4.3 generalized: every bucket < k_max + stride * w keys.
    for j, size in enumerate(bucket_sizes):
        if size >= k_max + stride * w + w:
            raise ProtocolError(
                f"Lemma 4.3 violated: bucket {j} holds {size} >= "
                f"{k_max + stride * w + w} keys"
            )

    if not redistribute:
        return SubsetSortResult(
            run=run,
            run_offset=bucket_offsets[my_rank],
            member_counts=bucket_sizes,
            bucket_sizes=bucket_sizes,
            piggyback_counts=pig_counts,
        )

    # Step 8: rebalance so member i holds the i-th even share (2 rounds).
    ctx.enter_phase("alg3.redist")
    total = sum(bucket_sizes)
    base, extra = divmod(total, w)
    targets = [base + (1 if i < extra else 0) for i in range(w)]
    target_bounds = [0] * (w + 1)
    for i in range(w):
        target_bounds[i + 1] = target_bounds[i] + targets[i]
    demand, my_items = _overlap_demand(
        bucket_offsets, bucket_sizes, target_bounds, run, my_rank, sentinel
    )
    received8 = yield from route_known(
        ctx,
        groups,
        my_group,
        my_rank,
        my_items,
        demand,
        (pattern_key, "rd8"),
        item_width=KEYS_PER_ITEM,
    )
    share = sorted(
        k for item in received8 for k in item if k != sentinel
    )
    if len(share) != targets[my_rank]:
        raise ProtocolError(
            f"Alg3 Step 8: member holds {len(share)} keys, target "
            f"{targets[my_rank]}"
        )
    return SubsetSortResult(
        run=share,
        run_offset=target_bounds[my_rank],
        member_counts=targets,
        bucket_sizes=bucket_sizes,
        piggyback_counts=pig_counts,
    )


def _relay(
    ctx: NodeContext,
    groups,
    pattern_key,
    redistribute: bool,
    piggyback: bool,
) -> Generator[Dict[int, Packet], Dict[int, Packet], None]:
    """Non-member schedule: relay duty for every communicating step."""
    yield from announce_within_group(
        ctx, groups, None, None, [], (pattern_key, "smp")
    )
    yield from announce_within_group(
        ctx, groups, None, None, [], (pattern_key, "cnt")
    )
    exchange = route_unknown(
        ctx, groups, None, None, [], (pattern_key, "exc"),
        item_width=KEYS_PER_ITEM,
    )
    yield from _drive_with_piggyback(ctx, exchange, None)
    if redistribute:
        yield from route_known(
            ctx, groups, None, None, [], None, (pattern_key, "rd8"),
            item_width=KEYS_PER_ITEM,
        )
    return None


def _drive_with_piggyback(
    ctx: NodeContext,
    inner: Generator,
    word: Optional[int],
) -> Generator[Dict[int, Packet], Dict[int, Packet], Tuple[list, Dict[int, int]]]:
    """Drive ``inner``, optionally piggybacking ``word`` on every round.

    All nodes must agree on whether piggybacking is active (it changes the
    wire format); Algorithm 4 turns it on for every node simultaneously.
    Returns ``(inner_result, collected_words)``.
    """
    collected: Dict[int, int] = {}
    try:
        outbox = next(inner)
    except StopIteration as stop:
        return stop.value, collected
    while True:
        if word is not None:
            inbox = yield attach_piggyback(outbox, word, ctx.n)
            clean, words = strip_piggyback(inbox)
            collected.update(words)
        else:
            clean = yield outbox
        try:
            outbox = inner.send(clean)
        except StopIteration as stop:
            return stop.value, collected


def _overlap_demand(
    bucket_offsets: List[int],
    bucket_sizes: List[int],
    target_bounds: List[int],
    run: List[int],
    my_rank: int,
    sentinel: int,
):
    """Step-8 pattern: ship each overlap of (held run x target share).

    Returns the full demand matrix (identical at every member — derived from
    commonly known counts) and this member's items.
    """
    w = len(bucket_sizes)
    demand = [[0] * w for _ in range(w)]
    items: List[Tuple[int, Tuple[int, ...]]] = []
    for a in range(w):
        lo, hi = bucket_offsets[a], bucket_offsets[a] + bucket_sizes[a]
        for b in range(w):
            t_lo, t_hi = target_bounds[b], target_bounds[b + 1]
            overlap = min(hi, t_hi) - max(lo, t_lo)
            if overlap <= 0:
                continue
            n_items = -(-overlap // KEYS_PER_ITEM)
            demand[a][b] = n_items
            if a == my_rank:
                start = max(lo, t_lo) - lo
                for chunk in _key_items(run[start : start + overlap], sentinel):
                    items.append((b, chunk))
    return tuple(tuple(row) for row in demand), items


def _key_items(keys: Sequence[int], sentinel: int) -> List[Tuple[int, ...]]:
    """``keys`` as ``KEYS_PER_ITEM``-word items, the last padded with
    ``sentinel``."""
    chunks = [
        tuple(keys[i : i + KEYS_PER_ITEM])
        for i in range(0, len(keys), KEYS_PER_ITEM)
    ]
    if chunks and len(chunks[-1]) < KEYS_PER_ITEM:
        chunks[-1] += (sentinel,) * (KEYS_PER_ITEM - len(chunks[-1]))
    return chunks


def _announce_sentinel(ctx: NodeContext) -> int:
    """A value above every tagged key, identical at all nodes.

    Tagged keys are bounded by ``n^3 * n * n = n^5`` (see
    :class:`~repro.sorting.problem.KeyCodec`); one shared constant keeps the
    wire format independent of any node's local key bound.
    """
    return max(ctx.n, 2) ** 5
