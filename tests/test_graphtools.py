"""Graph substrate: matchings, the Koenig matching peel, greedy colorings."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ColoringError
from repro.graphtools import (
    BipartiteMultigraph,
    degree_histogram,
    from_demand_matrix,
    greedy_edge_coloring,
    koenig_color_pairs,
    koenig_coloring_padded,
    koenig_edge_coloring,
    maximum_matching,
    num_colors,
    pad_to_regular,
    peel_matchings,
    perfect_matching,
    verify_exact_coloring,
    verify_matching,
    verify_proper_coloring,
)
from repro.graphtools import coloring
from repro.graphtools.multigraph import padding_cells


def regular_graph(n: int, d: int, seed: int) -> BipartiteMultigraph:
    """d-regular bipartite multigraph = union of d random permutations."""
    rng = random.Random(seed)
    g = BipartiteMultigraph(n, n)
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        for u, v in enumerate(perm):
            g.add_edge(u, v)
    return g


def test_degrees_and_regularity():
    g = from_demand_matrix([[2, 0], [0, 2]])
    assert g.left_degrees() == [2, 2]
    assert g.right_degrees() == [2, 2]
    assert g.is_regular()
    assert g.regular_degree() == 2
    assert degree_histogram(g) == {2: 4}


def test_from_demand_matrix_edge_order():
    g = from_demand_matrix([[1, 2], [0, 1]])
    assert g.edges == [(0, 0), (0, 1), (0, 1), (1, 1)]


def test_pad_to_regular():
    g = from_demand_matrix([[1, 0], [0, 2]])
    padded, real = pad_to_regular(g)
    assert real == 3
    assert padded.is_regular()
    assert padded.regular_degree() == 2
    assert padded.edges[:3] == g.edges


def test_pad_rejects_rectangular():
    g = BipartiteMultigraph(2, 3, [(0, 0)])
    with pytest.raises(ColoringError):
        pad_to_regular(g)


def test_perfect_matching_on_regular():
    g = regular_graph(10, 3, seed=2)
    m = perfect_matching(g)
    assert len(m) == 10
    verify_matching(g, m)


def test_maximum_matching_partial():
    # star: left 0 connected to all right, others isolated.
    g = BipartiteMultigraph(3, 3, [(0, 0), (0, 1), (0, 2)])
    m = maximum_matching(g)
    assert len(m) == 1


def test_perfect_matching_rejects_deficient():
    g = BipartiteMultigraph(2, 2, [(0, 0), (1, 0)])
    with pytest.raises(ColoringError):
        perfect_matching(g)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_koenig_exact_colors(d):
    g = regular_graph(7, d, seed=d)
    colors = koenig_edge_coloring(g)
    verify_exact_coloring(g, colors, d)
    assert num_colors(colors) == d


def test_koenig_rejects_irregular():
    g = from_demand_matrix([[2, 0], [0, 1]])
    with pytest.raises(ColoringError):
        koenig_edge_coloring(g)


def test_koenig_padded_on_irregular():
    g = from_demand_matrix([[3, 1, 0], [1, 1, 1], [0, 1, 2]])
    colors = koenig_coloring_padded(g)
    verify_proper_coloring(g, colors)
    assert num_colors(colors) <= g.max_degree()


def test_greedy_bound():
    g = regular_graph(9, 6, seed=3)
    colors = greedy_edge_coloring(g)
    verify_proper_coloring(g, colors)
    assert num_colors(colors) <= 2 * 6 - 1


def test_coloring_deterministic():
    g1 = regular_graph(8, 4, seed=9)
    g2 = regular_graph(8, 4, seed=9)
    assert koenig_edge_coloring(g1) == koenig_edge_coloring(g2)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_koenig_property_random_regular(n, d, seed):
    g = regular_graph(n, d, seed)
    colors = koenig_edge_coloring(g)
    verify_exact_coloring(g, colors, d)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(0, 4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_padded_koenig_property_any_demand(rows):
    g = from_demand_matrix(rows)
    colors = koenig_coloring_padded(g)
    verify_proper_coloring(g, colors)
    if g.num_edges:
        assert num_colors(colors) <= g.max_degree()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 7),
    d=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_greedy_property(n, d, seed):
    g = regular_graph(n, d, seed)
    colors = greedy_edge_coloring(g)
    verify_proper_coloring(g, colors)
    assert num_colors(colors) <= 2 * d - 1


def _check_color_pairs(demand):
    """Every property the matrix-level Koenig coloring promises."""
    by_pair, degree = koenig_color_pairs(demand)
    graph = from_demand_matrix(demand)
    assert degree == graph.max_degree()
    assert {pair: len(cs) for pair, cs in by_pair.items()} == {
        (a, b): m for a, row in enumerate(demand) for b, m in enumerate(row) if m
    }
    assert num_colors([c for cs in by_pair.values() for c in cs]) == degree

    # The padded graph is exactly Delta-colored (every class a perfect
    # matching), and its per-edge view agrees with the per-pair one.
    padded, real = pad_to_regular(graph)
    colors = koenig_edge_coloring(padded)
    verify_exact_coloring(padded, colors, degree)
    regrouped = {}
    for edge, c in zip(padded.edges[:real], colors[:real]):
        regrouped.setdefault(edge, []).append(c)
    assert regrouped == by_pair
    assert koenig_coloring_padded(graph) == colors[:real]

    matrix = [[0] * len(demand) for _ in demand]
    for u, v in padded.edges:
        matrix[u][v] += 1
    peeled = peel_matchings(matrix)
    assert sum(k for _, k in peeled) == degree
    assert len(peeled) <= sum(1 for row in matrix for m in row if m)

    assert koenig_color_pairs(demand) == (by_pair, degree)


@settings(max_examples=60, deadline=None)
@given(
    demand=st.integers(2, 6).flatmap(
        lambda s: st.lists(
            st.lists(st.integers(0, 30), min_size=s, max_size=s),
            min_size=s,
            max_size=s,
        )
    )
)
@example(demand=[[25] * 5 for _ in range(5)])
@example(demand=[[30 * (a == b) for b in range(6)] for a in range(6)])
def test_koenig_color_pairs_dense_high_degree(demand):
    # The shape of rpc-mixed's relay schedules: s x s at degree up to ~180.
    _check_color_pairs(demand)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(8, 25),
    cells=st.dictionaries(
        st.tuples(st.integers(0, 24), st.integers(0, 24)),
        st.integers(1, 2),
        max_size=60,
    ),
)
@example(size=8, cells={})
@example(size=9, cells={(0, 0): 2, (3, 0): 1, (3, 8): 2})
def test_koenig_color_pairs_sparse(size, cells):
    # Mostly-empty rows and columns, and the all-zero matrix.
    demand = [[0] * size for _ in range(size)]
    for (a, b), m in cells.items():
        if a < size and b < size:
            demand[a][b] = m
    _check_color_pairs(demand)


def test_koenig_color_pairs_uses_padding_target():
    by_pair, degree = koenig_color_pairs([[1, 0], [0, 1]], degree=3)
    assert degree == 3
    assert sorted(by_pair) == [(0, 0), (1, 1)]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: koenig_color_pairs([[1, 0], [1]]), ValueError),
        (lambda: koenig_color_pairs([[1, -1], [0, 1]]), ValueError),
        (lambda: koenig_color_pairs([[1, 0, 0], [0, 1, 0]]), ColoringError),
        (lambda: koenig_color_pairs([[2, 0], [0, 1]], degree=1), ColoringError),
        (
            lambda: koenig_coloring_padded(from_demand_matrix([[2, 1]]), 2),
            ColoringError,
        ),
        (
            lambda: koenig_coloring_padded(
                from_demand_matrix([[2, 0], [0, 1]]), 1
            ),
            ColoringError,
        ),
        (lambda: padding_cells([0, 0], [0, 1], 1), ColoringError),
        (lambda: peel_matchings([[2, 0], [0, 1]]), ColoringError),
        (lambda: peel_matchings([[1, 0, 0], [0, 1, 0]]), ColoringError),
    ],
    ids=[
        "ragged",
        "negative",
        "unequal-sides",
        "target-below-degree",
        "padded-unequal-sides",
        "padded-target-below-degree",
        "unequal-padding-totals",
        "no-perfect-matching",
        "peel-not-square",
    ],
)
def test_koenig_color_pairs_rejects(call, error):
    with pytest.raises(error):
        call()


def test_koenig_color_pairs_rejects_uncolored_edges(monkeypatch):
    monkeypatch.setattr(coloring, "peel_matchings", lambda matrix: [])
    with pytest.raises(ColoringError, match="uncolored"):
        koenig_color_pairs([[1, 0], [0, 1]])
