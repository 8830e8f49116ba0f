"""Bipartite-multigraph toolkit backing the paper's Theorem 3.2 machinery."""

from .coloring import (
    greedy_edge_coloring,
    koenig_color_pairs,
    koenig_coloring_padded,
    koenig_edge_coloring,
    num_colors,
    peel_matchings,
)
from .matching import maximum_matching, perfect_matching
from .multigraph import (
    BipartiteMultigraph,
    degree_histogram,
    from_demand_matrix,
    pad_to_regular,
)
from .validation import (
    color_classes,
    verify_exact_coloring,
    verify_matching,
    verify_proper_coloring,
)

__all__ = [
    "BipartiteMultigraph",
    "from_demand_matrix",
    "pad_to_regular",
    "degree_histogram",
    "maximum_matching",
    "perfect_matching",
    "koenig_color_pairs",
    "peel_matchings",
    "koenig_edge_coloring",
    "koenig_coloring_padded",
    "greedy_edge_coloring",
    "num_colors",
    "verify_proper_coloring",
    "verify_exact_coloring",
    "verify_matching",
    "color_classes",
]
