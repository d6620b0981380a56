"""Matching substrates, baselines and exact oracles."""

from .exact import (
    bipartite_sides,
    exact_max_cardinality_matching,
    exact_max_weight_matching,
    optimum_cardinality,
    optimum_weight,
)
from .greedy import greedy_weighted_matching, matching_weight
from .israeli_itai import IsraeliItaiProgram, israeli_itai_matching

__all__ = [
    "IsraeliItaiProgram",
    "bipartite_sides",
    "exact_max_cardinality_matching",
    "exact_max_weight_matching",
    "greedy_weighted_matching",
    "israeli_itai_matching",
    "matching_weight",
    "optimum_cardinality",
    "optimum_weight",
]
