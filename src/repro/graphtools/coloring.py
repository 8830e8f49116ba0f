"""Edge colorings of bipartite multigraphs.

Two algorithms back the paper's communication scheduling:

* :func:`koenig_color_pairs` — an *exact* Delta-coloring (Koenig's line
  coloring theorem, the paper's Theorem 3.2) of the multigraph of a square
  demand matrix, computed on the matrix rather than its edge list: pad the
  matrix to Delta-regular, then repeatedly take a perfect matching of its
  support, give every matched cell ``k`` consecutive colors (``k`` the
  smallest matched multiplicity) and subtract ``k``.  Each peel empties a
  cell, so a coloring takes at most (nonzero cells of the padded matrix)
  matchings whatever its degree — a Birkhoff–von Neumann decomposition.
  The paper cites Cole–Ost–Schirra [1] for an ``O(|E| log Delta)``
  algorithm; any deterministic proper coloring computed identically by all
  nodes satisfies the algorithms (see DESIGN.md "Simulation
  substitutions").  :func:`koenig_edge_coloring` and
  :func:`koenig_coloring_padded` are per-edge views of the same
  decomposition.
* :func:`greedy_edge_coloring` — the ``<= 2*Delta - 1`` color greedy coloring
  of the paper's footnote 3, used by the Section 5 computation-efficient
  variant.

Both are pure functions of the input and deterministic, so simulated nodes
agree on the schedule without communication.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ColoringError
from .matching import hopcroft_karp
from .multigraph import BipartiteMultigraph, padding_cells

Matrix = Sequence[Sequence[int]]


def koenig_color_pairs(
    demand: Matrix, degree: Optional[int] = None
) -> Tuple[Dict[Tuple[int, int], List[int]], int]:
    """Exact Koenig coloring of a square demand matrix, grouped by pair.

    ``demand[a][b]`` counts the parallel edges from left ``a`` to right
    ``b``.  The matrix is padded to ``degree``-regular (default: its max
    row or column sum) with the same deficit pairing as
    :func:`~repro.graphtools.multigraph.pad_to_regular`, and colored with
    exactly ``degree`` colors by :func:`peel_matchings`; every color class
    is a perfect matching of the padded graph.

    Returns ``(colors_by_pair, degree)``: ``colors_by_pair[(a, b)]`` lists
    ``demand[a][b]`` colors, in increasing order, for every nonzero cell in
    row-major order.

    Raises:
        ValueError: if the matrix is ragged or has a negative entry.
        ColoringError: if it is not square or ``degree`` is below its max
            degree.
    """
    size = len(demand)
    width = len(demand[0]) if size else 0
    for row in demand:
        if len(row) != width:
            raise ValueError("demand matrix is ragged")
        if any(count < 0 for count in row):
            raise ValueError("negative demand")
    if width != size:
        raise ColoringError("Koenig coloring requires equal side sizes")
    row_sums = [sum(row) for row in demand]
    col_sums = [sum(col) for col in zip(*demand)]
    if degree is None:
        degree = max(row_sums + col_sums, default=0)
    matrix = [list(row) for row in demand]
    for u, v, take in padding_cells(row_sums, col_sums, degree):
        matrix[u][v] += take

    cells: List[List[List[int]]] = [[[] for _ in row] for row in matrix]
    color = 0
    for match, k in peel_matchings(matrix):
        for u, v in enumerate(match):
            cells[u][v].extend(range(color, color + k))
        color += k

    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for a, row in enumerate(demand):
        for b, count in enumerate(row):
            if count:
                colors = cells[a][b]
                if len(colors) < count:
                    raise ColoringError(
                        "internal error: some edges left uncolored"
                    )
                by_pair[(a, b)] = colors[:count]
    return by_pair, degree


def peel_matchings(matrix: Matrix) -> List[Tuple[List[int], int]]:
    """Decompose a regular square multiplicity matrix into perfect matchings.

    Returns ``[(match, k), ...]``: ``match[u]`` is the column matched to row
    ``u`` and ``k`` the multiplicity peeled off every matched cell — the
    smallest among them, so each peel empties at least one cell and the list
    is no longer than the matrix's nonzero cell count.  The ``k`` sum to the
    common row sum.  After the first peel, only rows whose matched cell
    emptied are re-matched (Hopcroft–Karp resumed from the rest).

    Raises :class:`ColoringError` when what remains has no perfect matching
    in its support — by Hall's theorem, exactly when the matrix is not
    regular.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ColoringError("matching peel requires a square matrix")
    rest = [list(row) for row in matrix]
    adj = [[v for v, m in enumerate(row) if m] for row in rest]
    match: List[Optional[int]] = [None] * size
    peeled: List[Tuple[List[int], int]] = []
    while any(adj):
        match = hopcroft_karp(adj, size, match)
        if None in match:
            raise ColoringError(
                "no perfect matching in the support (matrix not regular?)"
            )
        perfect: List[int] = match  # type: ignore[assignment]  # no None
        k = min(rest[u][v] for u, v in enumerate(perfect))
        peeled.append((perfect, k))
        for u, v in enumerate(perfect):
            rest[u][v] -= k
            if not rest[u][v]:
                adj[u].remove(v)
        match = [v if rest[u][v] else None for u, v in enumerate(perfect)]
    return peeled


def koenig_edge_coloring(graph: BipartiteMultigraph) -> List[int]:
    """Color a d-regular bipartite multigraph with exactly ``d`` colors.

    Returns ``colors[i]`` in ``0..d-1`` for each edge index ``i`` such that no
    two edges sharing an endpoint receive the same color (each color class is
    a perfect matching).

    Raises:
        ColoringError: if the graph is not regular.
    """
    if not graph.is_regular():
        raise ColoringError(
            "Koenig coloring requires a regular graph; pad first "
            "(see pad_to_regular)"
        )
    return koenig_coloring_padded(graph)


def koenig_coloring_padded(
    graph: BipartiteMultigraph, degree: Optional[int] = None
) -> List[int]:
    """Koenig-color an irregular graph by padding it to regular first.

    The per-edge view of :func:`koenig_color_pairs`: each pair's colors go
    to its parallel edges in edge order.  The number of colors is
    ``degree`` (default: the max degree of the input).
    """
    if graph.left_size != graph.right_size:
        raise ColoringError("Koenig coloring requires equal side sizes")
    demand = [[0] * graph.right_size for _ in range(graph.left_size)]
    for u, v in graph.edges:
        demand[u][v] += 1
    by_pair, _ = koenig_color_pairs(demand, degree)
    handout = {pair: iter(colors) for pair, colors in by_pair.items()}
    return [next(handout[edge]) for edge in graph.edges]


def greedy_edge_coloring(graph: BipartiteMultigraph) -> List[int]:
    """Greedy proper edge coloring with at most ``2*Delta - 1`` colors.

    Edges are processed in index order; each takes the smallest color unused
    at both endpoints.  This is the cheap coloring the paper's footnote 3
    allows ("a simple greedy coloring of the line graph results in at most
    2d-1 matchings") and Section 5 relies on for O(n log n) local work.
    """
    left_used: List[set] = [set() for _ in range(graph.left_size)]
    right_used: List[set] = [set() for _ in range(graph.right_size)]
    colors: List[int] = []
    for u, v in graph.edges:
        c = 0
        used_u, used_v = left_used[u], right_used[v]
        while c in used_u or c in used_v:
            c += 1
        used_u.add(c)
        used_v.add(c)
        colors.append(c)
    return colors


def num_colors(colors: List[int]) -> int:
    """Number of distinct colors actually used."""
    return len(set(colors)) if colors else 0
