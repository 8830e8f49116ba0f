"""Problem 4.1 — distributed sorting — instances, key encoding, verification.

Each node holds (up to) ``n`` keys; node ``i`` must end up with the keys of
global ranks ``i*n .. (i+1)*n - 1`` (0-based).  The paper assumes w.l.o.g.
distinct keys, ordering duplicates "lexicographically by key, node whose
input contains the key, and a local enumeration" (footnote 5).  We realize
that footnote concretely: a *tagged key* packs ``(key, source, seq)`` into
one word, so duplicate raw keys become distinct tagged keys whose order is
exactly the footnote's lexicographic order.

Encodings (all polynomially bounded in ``n``):

* raw keys: ``0 <= key < key_universe`` (default ``n**2``, max ``n**3``);
* tagged key: ``key * n^2 + source * n_pad + seq`` with ``n_pad`` covering
  the per-node key count;
* key pair: two tagged keys packed into one word for the paper's
  "bundle two keys in one message" steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from ..core.errors import InvalidInstance, VerificationError


@dataclass(frozen=True)
class KeyCodec:
    """Tagging/packing scheme shared by all nodes of one sort run."""

    n: int
    max_keys_per_node: int
    key_universe: int

    def __post_init__(self) -> None:
        if self.key_universe > self.n ** 3 + 1:
            raise InvalidInstance(
                f"key universe {self.key_universe} exceeds n^3; keys must be "
                "O(log n) bits"
            )

    @cached_property
    def seq_base(self) -> int:
        # Cached: :meth:`tag` reads it once per key.
        return max(self.max_keys_per_node, 1)

    def tag(self, key: int, source: int, seq: int) -> int:
        """Make a raw key distinct: lexicographic (key, source, seq)."""
        if not 0 <= key < self.key_universe:
            raise InvalidInstance(
                f"key {key} outside universe [0, {self.key_universe})"
            )
        return (key * self.n + source) * self.seq_base + seq

    def untag(self, tagged: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`tag`: returns ``(key, source, seq)``."""
        rest, seq = divmod(tagged, self.seq_base)
        key, source = divmod(rest, self.n)
        return key, source, seq

    def raw(self, tagged: int) -> int:
        return tagged // (self.n * self.seq_base)

    @property
    def sentinel(self) -> int:
        """Padding value strictly above every tagged key."""
        return self.key_universe * self.n * self.seq_base

    @property
    def pack_base(self) -> int:
        return self.sentinel + 1

    def pack2(self, a: int, b: int) -> int:
        """Pack two tagged keys (or sentinels) into one word."""
        return a * self.pack_base + b

    def unpack2(self, word: int) -> Tuple[int, int]:
        return divmod(word, self.pack_base)


class SortInstance:
    """A validated instance of Problem 4.1.

    Args:
        n: number of nodes.
        keys_by_node: raw keys per node; exactly ``n`` each when ``exact``.
        key_universe: exclusive upper bound on raw keys (default ``n**2``).
    """

    def __init__(
        self,
        n: int,
        keys_by_node: Sequence[Sequence[int]],
        exact: bool = True,
        key_universe: Optional[int] = None,
    ) -> None:
        if len(keys_by_node) != n:
            raise InvalidInstance(f"{len(keys_by_node)} key lists for n={n}")
        self.n = n
        self.keys_by_node: List[List[int]] = [list(ks) for ks in keys_by_node]
        self.exact = exact
        self.key_universe = key_universe if key_universe else max(n * n, 4)
        max_keys = max((len(ks) for ks in self.keys_by_node), default=0)
        for i, ks in enumerate(self.keys_by_node):
            if exact and len(ks) != n:
                raise InvalidInstance(
                    f"node {i} holds {len(ks)} keys, expected {n}"
                )
            for k in ks:
                if not 0 <= k < self.key_universe:
                    raise InvalidInstance(
                        f"key {k} at node {i} outside universe "
                        f"[0, {self.key_universe})"
                    )
        self.codec = KeyCodec(
            n=n,
            max_keys_per_node=max(max_keys, 1),
            key_universe=self.key_universe,
        )

    def tagged_by_node(self) -> List[List[int]]:
        """Each node's keys as sorted tagged keys."""
        return [
            sorted(
                self.codec.tag(k, i, j) for j, k in enumerate(ks)
            )
            for i, ks in enumerate(self.keys_by_node)
        ]

    def total_keys(self) -> int:
        return sum(len(ks) for ks in self.keys_by_node)

    def global_sorted_tagged(self) -> List[int]:
        """Reference answer: all tagged keys in increasing order."""
        out: List[int] = []
        for row in self.tagged_by_node():
            out.extend(row)
        out.sort()
        return out

    def expected_batches(self) -> List[List[int]]:
        """Reference answer per node: the ``i``-th batch of tagged keys."""
        ordered = self.global_sorted_tagged()
        total = len(ordered)
        base, extra = divmod(total, self.n)
        batches: List[List[int]] = []
        pos = 0
        for i in range(self.n):
            size = base + (1 if i < extra else 0)
            batches.append(ordered[pos : pos + size])
            pos += size
        return batches


def uniform_sort_instance(
    n: int, seed: int = 0, key_universe: Optional[int] = None
) -> SortInstance:
    """Random keys drawn uniformly from the universe (duplicates possible)."""
    rng = random.Random(seed)
    universe = key_universe if key_universe else max(n * n, 4)
    keys = [[rng.randrange(universe) for _ in range(n)] for _ in range(n)]
    return SortInstance(n, keys, key_universe=universe)


def duplicate_heavy_instance(
    n: int, distinct: int = 4, seed: int = 0
) -> SortInstance:
    """Only ``distinct`` raw values — exercises footnote-5 tie-breaking."""
    rng = random.Random(seed)
    keys = [
        [rng.randrange(distinct) for _ in range(n)] for _ in range(n)
    ]
    return SortInstance(n, keys, key_universe=max(distinct, 4))


def presorted_instance(n: int) -> SortInstance:
    """Globally sorted placement: node i holds keys i*n..i*n+n-1."""
    keys = [[i * n + j for j in range(n)] for i in range(n)]
    return SortInstance(n, keys)


def reversed_instance(n: int) -> SortInstance:
    """Anti-sorted placement: node i holds the (n-1-i)-th batch, reversed."""
    keys = [
        [(n - 1 - i) * n + (n - 1 - j) for j in range(n)] for i in range(n)
    ]
    return SortInstance(n, keys)


def verify_sorted_batches(
    instance: SortInstance, outputs: Sequence[Sequence[int]]
) -> None:
    """Check each node ended with exactly its batch of tagged keys, sorted."""
    expected = instance.expected_batches()
    for i in range(instance.n):
        got = list(outputs[i])
        if got != expected[i]:
            raise VerificationError(
                f"node {i}: batch mismatch (got {len(got)} keys, "
                f"expected {len(expected[i])}; first diff at "
                f"{next((j for j, (a, b) in enumerate(zip(got, expected[i])) if a != b), 'len')})"
            )


def verify_indices(
    instance: SortInstance, index_outputs: Sequence[dict]
) -> None:
    """Check the Corollary 4.6 variant: each node knows, for each of its
    input keys, the key's index in the *deduplicated* global order."""
    all_raw = sorted(
        {k for ks in instance.keys_by_node for k in ks}
    )
    rank = {k: i for i, k in enumerate(all_raw)}
    for i, ks in enumerate(instance.keys_by_node):
        got = index_outputs[i]
        for j, k in enumerate(ks):
            if got.get((k, j)) != rank[k]:
                raise VerificationError(
                    f"node {i} key {k} (seq {j}): index {got.get((k, j))} "
                    f"!= expected {rank[k]}"
                )
