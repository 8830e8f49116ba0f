"""Problem 3.1 — the Information Distribution Task — and instance generators.

Each node ``i`` is the source of up to ``n`` messages with known destinations;
each node is the destination of up to ``n`` messages.  Messages carry their
(source, destination, sequence) triple explicitly, as the paper requires, so
they are globally distinguishable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence

from ..core.errors import InvalidInstance


@dataclass(frozen=True, order=True, slots=True)
class Message:
    """One routable message.

    The lexicographic order (source, dest, seq) is the paper's global
    message order.  ``payload`` is a single word of user data.  Slotted:
    no instance dict, since a run delivers ``n^2`` of them.
    """

    source: int
    dest: int
    seq: int
    payload: int = 0


class RoutingInstance:
    """A validated instance of Problem 3.1.

    Args:
        n: number of nodes.
        messages_by_source: ``messages_by_source[i]`` is the list of messages
            node ``i`` must deliver (its set ``S_i``).
        exact: require *exactly* ``n`` messages per source and destination
            (the paper's normal form); if False, allow "up to n" (the relaxed
            form the paper notes is trivial to support).
    """

    def __init__(
        self,
        n: int,
        messages_by_source: Sequence[Sequence[Message]],
        exact: bool = True,
        max_load: Optional[int] = None,
    ) -> None:
        if len(messages_by_source) != n:
            raise InvalidInstance(
                f"{len(messages_by_source)} source lists for n={n}"
            )
        self.n = n
        self.messages_by_source: List[List[Message]] = [
            list(msgs) for msgs in messages_by_source
        ]
        self.exact = exact
        #: per-node send/receive cap; Theorem 3.7's overlay runs the square
        #: algorithm with up to ~2n messages per node (constant-factor
        #: message-size increase), so the cap may exceed ``n``.
        self.max_load = max_load if max_load is not None else n
        self._validate()

    def _validate(self) -> None:
        n = self.n
        cap = self.max_load
        recv_counts = [0] * n
        for i, msgs in enumerate(self.messages_by_source):
            if self.exact and len(msgs) != n:
                raise InvalidInstance(
                    f"node {i} sources {len(msgs)} messages, expected {n}"
                )
            if len(msgs) > cap:
                raise InvalidInstance(
                    f"node {i} sources {len(msgs)} messages > cap = {cap}"
                )
            seen_seq = set()
            for m in msgs:
                if m.source != i:
                    raise InvalidInstance(
                        f"message {m} listed under wrong source {i}"
                    )
                if not 0 <= m.dest < n:
                    raise InvalidInstance(f"message {m} has invalid dest")
                if m.seq in seen_seq:
                    raise InvalidInstance(
                        f"duplicate seq {m.seq} at source {i}"
                    )
                seen_seq.add(m.seq)
                recv_counts[m.dest] += 1
        for k, c in enumerate(recv_counts):
            if self.exact and c != n:
                raise InvalidInstance(
                    f"node {k} is destination of {c} messages, expected {n}"
                )
            if c > cap:
                raise InvalidInstance(
                    f"node {k} is destination of {c} messages > cap = {cap}"
                )

    def expected_deliveries(self) -> List[List[Message]]:
        """``R_k`` for every k: the messages node ``k`` must end up with,
        in global lexicographic order."""
        out: List[List[Message]] = [[] for _ in range(self.n)]
        for msgs in self.messages_by_source:
            for m in msgs:
                out[m.dest].append(m)
        for lst in out:
            lst.sort()
        return out

    def demand_matrix(self) -> List[List[int]]:
        """``demand[i][k]`` = number of messages from source i to dest k."""
        demand = [[0] * self.n for _ in range(self.n)]
        for msgs in self.messages_by_source:
            for m in msgs:
                demand[m.source][m.dest] += 1
        return demand


def _instance_from_dest_lists(
    n: int, dests: List[List[int]], payload_fn=None
) -> RoutingInstance:
    msgs = []
    for i in range(n):
        row = []
        for j, d in enumerate(dests[i]):
            payload = payload_fn(i, j, d) if payload_fn else (i * n + j)
            row.append(Message(source=i, dest=d, seq=j, payload=payload))
        msgs.append(row)
    return RoutingInstance(n, msgs)


def uniform_instance(n: int, seed: int = 0) -> RoutingInstance:
    """Random instance: destinations form a random n x n doubly-balanced
    assignment (each node sends n and receives n messages).

    Built from ``n`` random permutations — message ``j`` of every source is
    routed by the ``j``-th permutation, so receive counts are exactly ``n``.
    """
    rng = random.Random(seed)
    dests: List[List[int]] = [[] for _ in range(n)]
    for _ in range(n):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            dests[i].append(perm[i])
    return _instance_from_dest_lists(n, dests)


def permutation_instance(n: int, shift: int = 1) -> RoutingInstance:
    """All ``n`` messages of node ``i`` go to node ``(i + shift) mod n``.

    The canonical "hotspot per node" worst case for naive direct routing:
    each source-destination pair must push ``n`` messages over one edge.
    """
    dests = [[(i + shift) % n] * n for i in range(n)]
    return _instance_from_dest_lists(n, dests)


def transpose_instance(n: int) -> RoutingInstance:
    """Message ``j`` of node ``i`` goes to node ``j`` (an all-to-all
    "matrix transpose" pattern; already perfectly balanced per edge)."""
    dests = [list(range(n)) for _ in range(n)]
    return _instance_from_dest_lists(n, dests)


def block_skew_instance(n: int, seed: int = 0) -> RoutingInstance:
    """Skewed instance: traffic concentrates between random group pairs.

    Stresses Algorithm 2 (inter-group balancing): the demand between node
    groups is far from uniform, while per-node totals stay exactly ``n``.
    Constructed from random permutations biased to map blocks onto blocks.
    """
    rng = random.Random(seed)
    dests: List[List[int]] = [[] for _ in range(n)]
    nodes = list(range(n))
    for _ in range(n):
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        # Sort destinations so nearby sources hit nearby destinations,
        # concentrating block-to-block demand while staying a permutation.
        block = max(1, n // 4)
        for start in range(0, n, block):
            chunk = sorted(shuffled[start : start + block])
            shuffled[start : start + block] = chunk
        for i in range(n):
            dests[i].append(shuffled[i])
    return _instance_from_dest_lists(n, dests)


def bursty_instance(
    n: int, seed: int = 0, hot_fraction: float = 0.125
) -> RoutingInstance:
    """Relaxed instance with bursty, hotspot-concentrated traffic.

    A small set of *hot* sources emits large bursts (up to ``n`` messages
    each), mostly aimed at a small set of hot destinations; the remaining
    nodes send only a handful of messages or none at all.  Per-node loads
    stay within the Problem 3.1 cap of ``n``, but the instance is far from
    the exact normal form (``exact=False``) — this is the "bursty multiplex
    traffic" scenario family, and the workload where an engine's idle-node
    handling matters most.
    """
    rng = random.Random(seed)
    num_hot = max(2, int(n * hot_fraction))
    hot = rng.sample(range(n), num_hot)
    hot_dests = rng.sample(range(n), num_hot)
    recv_counts = [0] * n
    msgs: List[List[Message]] = [[] for _ in range(n)]

    def pick_dest() -> int:
        d = rng.choice(hot_dests) if rng.random() < 0.75 else rng.randrange(n)
        if recv_counts[d] >= n:  # respect the per-destination cap
            d = min(range(n), key=recv_counts.__getitem__)
        return d

    for i in range(n):
        burst = rng.randrange(n // 2, n + 1) if i in hot else rng.randrange(3)
        for j in range(burst):
            d = pick_dest()
            recv_counts[d] += 1
            msgs[i].append(Message(source=i, dest=d, seq=j, payload=i * n + j))
    return RoutingInstance(n, msgs, exact=False)


def from_demand(
    n: int, demand: Sequence[Sequence[int]], seed: Optional[int] = None
) -> RoutingInstance:
    """Instance with the given source->dest message counts.

    Row sums and column sums must all equal ``n``.
    """
    dests: List[List[int]] = []
    for i in range(n):
        row: List[int] = []
        for k in range(n):
            row.extend([k] * demand[i][k])
        dests.append(row)
    if seed is not None:
        rng = random.Random(seed)
        for row in dests:
            rng.shuffle(row)
    return _instance_from_dest_lists(n, dests)


def verify_delivery(
    instance: RoutingInstance, outputs: Sequence[Sequence[Message]]
) -> None:
    """Check that every node received exactly its ``R_k`` (any order).

    Compares ``(source, dest, seq, payload)`` field tuples, which sort in C
    in the same order as the messages.  They stand for the messages only
    when every output is a :class:`Message` (nothing else equals one), so
    any other output, and any mismatch, is judged message by message.

    Raises :class:`~repro.core.errors.VerificationError` on mismatch.
    """
    fields = attrgetter("source", "dest", "seq", "payload")
    expected: List[List[tuple]] = [[] for _ in range(instance.n)]
    for msgs in instance.messages_by_source:
        for m in msgs:
            expected[m.dest].append(fields(m))
    for k in range(instance.n):
        got = outputs[k]
        want = expected[k]
        want.sort()
        if set(map(type, got)) - {Message} or sorted(map(fields, got)) != want:
            _report_mismatch(instance, outputs, k)


def _report_mismatch(
    instance: RoutingInstance, outputs: Sequence[Sequence[Message]], k: int
) -> None:
    """Compare node ``k``'s delivery as messages; raise on any difference."""
    from ..core.errors import VerificationError

    expected = instance.expected_deliveries()[k]
    got = sorted(outputs[k])
    if got != expected:
        missing = set(expected) - set(got)
        extra = set(got) - set(expected)
        raise VerificationError(
            f"node {k}: {len(missing)} missing, {len(extra)} extra "
            f"messages (e.g. missing={list(missing)[:3]})"
        )
