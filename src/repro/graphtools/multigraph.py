"""Bipartite multigraphs with edge identity.

The paper's communication schedules are edge colorings of bipartite
multigraphs in which *each message is one edge* (Theorem 3.2 / Corollary
3.3).  Edge identity therefore matters: colorings are reported per edge
index, and parallel edges are distinct objects.

Left vertices are ``0..left_size-1``, right vertices ``0..right_size-1``;
the two sides are separate namespaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.errors import ColoringError

Edge = Tuple[int, int]


@dataclass
class BipartiteMultigraph:
    """A bipartite multigraph given as an ordered list of (left, right) edges."""

    left_size: int
    right_size: int
    edges: List[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        for u, v in self.edges:
            self._check_edge(u, v)

    def _check_edge(self, u: int, v: int) -> None:
        if not 0 <= u < self.left_size:
            raise ValueError(f"left vertex {u} out of range")
        if not 0 <= v < self.right_size:
            raise ValueError(f"right vertex {v} out of range")

    def add_edge(self, u: int, v: int) -> int:
        """Append an edge; returns its index."""
        self._check_edge(u, v)
        self.edges.append((u, v))
        return len(self.edges) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def left_degrees(self) -> List[int]:
        deg = [0] * self.left_size
        for u, _ in self.edges:
            deg[u] += 1
        return deg

    def right_degrees(self) -> List[int]:
        deg = [0] * self.right_size
        for _, v in self.edges:
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        degs = self.left_degrees() + self.right_degrees()
        return max(degs) if degs else 0

    def is_regular(self) -> bool:
        """True iff every left and every right vertex has the same degree."""
        ld, rd = self.left_degrees(), self.right_degrees()
        all_degs = ld + rd
        return len(set(all_degs)) <= 1

    def regular_degree(self) -> int:
        """The common degree of a regular graph (raises if not regular)."""
        if not self.is_regular():
            raise ColoringError("graph is not regular")
        return self.left_degrees()[0] if self.left_size else 0

    def adjacency(self) -> Tuple[List[List[Tuple[int, int]]], List[List[Tuple[int, int]]]]:
        """Adjacency lists ``(left_adj, right_adj)`` of (neighbor, edge_idx)."""
        left_adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.left_size)]
        right_adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.right_size)]
        for idx, (u, v) in enumerate(self.edges):
            left_adj[u].append((v, idx))
            right_adj[v].append((u, idx))
        return left_adj, right_adj

    def canonical_key(self) -> Tuple:
        """Hashable identity for shared-computation caching."""
        return (self.left_size, self.right_size, tuple(self.edges))


def from_demand_matrix(demand: Sequence[Sequence[int]]) -> BipartiteMultigraph:
    """Build a multigraph from a demand matrix.

    ``demand[u][v]`` parallel edges are created from left ``u`` to right
    ``v``, in row-major order — the canonical encoding of "node u holds k
    messages for destination v" used by the routing primitives.
    """
    left = len(demand)
    right = len(demand[0]) if left else 0
    g = BipartiteMultigraph(left, right)
    for u, row in enumerate(demand):
        if len(row) != right:
            raise ValueError("demand matrix is ragged")
        for v, count in enumerate(row):
            if count < 0:
                raise ValueError("negative demand")
            for _ in range(count):
                g.add_edge(u, v)
    return g


def pad_to_regular(
    graph: BipartiteMultigraph, degree: int = None
) -> Tuple[BipartiteMultigraph, int]:
    """Add dummy edges so the graph becomes ``degree``-regular.

    Only defined for equal side sizes (the paper always pads sender/receiver
    role graphs, which are square).  The padding is deterministic: deficient
    left vertices are paired with deficient right vertices greedily in
    increasing id order, so every node computing this from common knowledge
    obtains the identical padded graph.

    Returns ``(padded_graph, num_real_edges)``; real edges keep their indices
    ``0..num_real_edges-1`` and dummies occupy the tail.
    """
    if graph.left_size != graph.right_size:
        raise ColoringError("padding requires equal side sizes")
    target = degree if degree is not None else graph.max_degree()
    padded = BipartiteMultigraph(
        graph.left_size, graph.right_size, list(graph.edges)
    )
    for u, v, take in padding_cells(
        graph.left_degrees(), graph.right_degrees(), target
    ):
        for _ in range(take):
            padded.add_edge(u, v)
    return padded, graph.num_edges


def padding_cells(
    left_degrees: List[int], right_degrees: List[int], target: int
) -> List[Tuple[int, int, int]]:
    """The dummy edges that lift these vertex degrees to ``target``.

    Returns ``(u, v, count)`` triples: deficient left vertices are paired
    with deficient right vertices greedily in increasing id order, each
    pair taking as many parallel dummies as the smaller deficit allows.
    This is the one padding rule shared by :func:`pad_to_regular` and the
    matrix-level Koenig coloring, so both pad identically.

    Raises :class:`ColoringError` if ``target`` is below some degree or the
    two sides' deficits have unequal totals.
    """
    if any(d > target for d in left_degrees + right_degrees):
        raise ColoringError(f"target degree {target} below existing max degree")
    left_deficit = [
        (u, target - d) for u, d in enumerate(left_degrees) if target > d
    ]
    right_deficit = [
        (v, target - d) for v, d in enumerate(right_degrees) if target > d
    ]
    cells: List[Tuple[int, int, int]] = []
    li = ri = 0
    while li < len(left_deficit) and ri < len(right_deficit):
        u, du = left_deficit[li]
        v, dv = right_deficit[ri]
        take = min(du, dv)
        cells.append((u, v, take))
        du -= take
        dv -= take
        if du == 0:
            li += 1
        else:
            left_deficit[li] = (u, du)
        if dv == 0:
            ri += 1
        else:
            right_deficit[ri] = (v, dv)
    if li < len(left_deficit) or ri < len(right_deficit):
        raise ColoringError(
            "left/right padding deficits disagree; sides have unequal totals"
        )
    return cells


def degree_histogram(graph: BipartiteMultigraph) -> Dict[int, int]:
    """How many vertices (both sides) have each degree — for diagnostics."""
    hist: Dict[int, int] = {}
    for d in graph.left_degrees() + graph.right_degrees():
        hist[d] = hist.get(d, 0) + 1
    return hist
