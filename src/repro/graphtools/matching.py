"""Deterministic maximum matchings in bipartite graphs (Hopcroft–Karp).

Koenig coloring peels one perfect matching after another off the support of
a regular multiplicity matrix (which has one by Hall's theorem).  The
matcher, :func:`hopcroft_karp`, runs on plain adjacency lists and can
resume from a partial matching, so the peel repairs its previous matching
instead of rebuilding it.  :func:`maximum_matching` runs it on the
underlying simple graph of a multigraph and reports a representative edge
index (the smallest) per matched pair so parallel edges stay
distinguishable.

Determinism: vertices and neighbors are always scanned in a fixed order, so
every simulated node computes the same matching from the same graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ColoringError
from .multigraph import BipartiteMultigraph

INF = float("inf")


def hopcroft_karp(
    adj: Sequence[Sequence[int]],
    right_size: int,
    match_left: Optional[Sequence[Optional[int]]] = None,
) -> List[Optional[int]]:
    """Maximum matching of a simple bipartite graph given by adjacency lists.

    ``adj[u]`` lists the right neighbors (``0..right_size-1``) of left
    vertex ``u``, scanned in list order.  The search augments
    ``match_left`` — a partial matching with ``match_left[u]`` the partner
    of ``u`` or ``None`` — and starts from the empty matching when it is
    omitted.  Returns the maximum matching in the same form, as a new list.
    """
    left_size = len(adj)
    match_left = (
        [None] * left_size if match_left is None else list(match_left)
    )
    match_right: List[Optional[int]] = [None] * right_size
    for u, v in enumerate(match_left):
        if v is not None:
            match_right[v] = u
    # Layered distances from the latest BFS phase, read by the DFS.  The
    # phases are module-level functions, not closures: a recursive closure
    # references itself through its cell, a cycle that would leave every
    # matching's state to the cyclic garbage collector.
    dist: List[float] = [INF] * left_size
    while _bfs(adj, match_left, match_right, dist):
        for u in range(left_size):
            if match_left[u] is None:
                _dfs(u, adj, match_left, match_right, dist)
    return match_left


def _bfs(
    adj: Sequence[Sequence[int]],
    match_left: List[Optional[int]],
    match_right: List[Optional[int]],
    dist: List[float],
) -> bool:
    """Layer the graph from the free left vertices into ``dist``; report
    whether some layer reaches a free right vertex (an augmenting path)."""
    queue: deque = deque()
    for u in range(len(adj)):
        if match_left[u] is None:
            dist[u] = 0
            queue.append(u)
        else:
            dist[u] = INF
    found_augmenting = False
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            w = match_right[v]
            if w is None:
                found_augmenting = True
            elif dist[w] is INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return found_augmenting


def _dfs(
    u: int,
    adj: Sequence[Sequence[int]],
    match_left: List[Optional[int]],
    match_right: List[Optional[int]],
    dist: List[float],
) -> bool:
    """Augment along a layered path from left vertex ``u``, if one exists."""
    for v in adj[u]:
        w = match_right[v]
        if w is None or (
            dist[w] == dist[u] + 1
            and _dfs(w, adj, match_left, match_right, dist)
        ):
            match_left[u] = v
            match_right[v] = u
            return True
    dist[u] = INF
    return False


def maximum_matching(graph: BipartiteMultigraph) -> List[int]:
    """Maximum matching as a list of edge indices (one per matched pair)."""
    # Underlying simple adjacency with representative (smallest) edge index.
    rep: Dict[Tuple[int, int], int] = {}
    for idx, edge in enumerate(graph.edges):
        rep.setdefault(edge, idx)
    adj: List[List[int]] = [[] for _ in range(graph.left_size)]
    for (u, v) in sorted(rep):
        adj[u].append(v)
    match_left = hopcroft_karp(adj, graph.right_size)
    return [rep[(u, v)] for u, v in enumerate(match_left) if v is not None]


def perfect_matching(graph: BipartiteMultigraph) -> List[int]:
    """A perfect matching of a regular bipartite multigraph.

    Raises :class:`ColoringError` if the matching found is not perfect —
    which cannot happen on a regular input (Hall's theorem) and therefore
    signals a corrupt graph.
    """
    if graph.left_size != graph.right_size:
        raise ColoringError("perfect matching requires equal side sizes")
    matching = maximum_matching(graph)
    if len(matching) != graph.left_size:
        raise ColoringError(
            f"no perfect matching: matched {len(matching)} of "
            f"{graph.left_size} vertices (graph not regular?)"
        )
    return sorted(matching)
