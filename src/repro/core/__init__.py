"""The paper's algorithms: local-ratio MaxIS, line-graph matching, and
the time-optimal (2+ε)/(1+ε) matching approximations.

The paper's phase programs are exposed as phase generators
(``maxis_layers_phases``, ``congest_matching_1eps_stages``, …) that
yield a :class:`~repro.core.stepwise.Checkpoint` at every phase
boundary and return their result dataclass; drain one with
:func:`repro.utils.drain` to run it to completion.  Most callers
want the unified facade instead, which runs the same generators with
the same seeds and returns one uniform :class:`repro.api.SolveReport`::

    from repro.api import Instance, solve
    report = solve(Instance(graph, seed=3), "maxis-layers")
"""

from .aggregation import (
    ALGORITHM_2_AGGREGATES,
    AND,
    COUNT,
    MAX,
    MIN,
    OR,
    SUM,
    AggregateFunction,
    SimulationCost,
    fold_over_hosted_neighbors,
    theorem_2_8_simulation_cost,
    verify_aggregate,
)
from .augmenting import (
    augment_with_disjoint_paths,
    build_conflict_graph,
    canonical_path,
    enumerate_augmenting_paths,
    flip_augmenting_path,
    shortest_augmenting_path_length,
    verify_hk_phase,
)
from .congest_1eps import (
    BipartiteAugmentingPhase,
    CongestOneEpsResult,
    bipartite_matching_1eps_phases,
    congest_matching_1eps_stages,
    lemma_b11_budget,
    precision_round_factor,
)
from .fast_matching import (
    FastMatchingResult,
    bucketed_constant_approx_mwm,
    fast_matching_2eps,
    fast_matching_weighted_2eps,
    nearly_maximal_matching,
)
from .greedy_mis import (
    GreedyMISResult,
    greedy_mis_phases,
    greedy_priorities,
)
from .hypergraph_matching import (
    HypergraphMatchingResult,
    good_round_cap,
    lemma_b3_budget,
    nearly_maximal_hypergraph_matching,
)
from .local_1eps import (
    OneEpsResult,
    local_matching_1eps_phases,
    theorem_b4_round_budget,
)
from .local_ratio import (
    exchange_step,
    local_ratio_bound,
    random_mis_selector,
    sequential_local_ratio,
    sequential_local_ratio_iter,
    split_weights,
)
from .matching_via_lines import (
    MatchingResult,
    matching_lines_phases,
)
from .maxis_coloring import (
    MaxISColoringProgram,
    MaxISColoringResult,
    maxis_coloring_phases,
)
from .maxis_layers import (
    LayerTrace,
    MaxISLayersProgram,
    MaxISResult,
    maxis_layers_phases,
)
from .nearly_maximal_is import (
    NearlyMaximalISResult,
    improved_nearly_maximal_is,
    paper_k,
    residual_decay_series,
    theorem_3_1_budget,
)
from .proposal_matching import (
    ProposalResult,
    bipartite_proposal_phases,
    general_proposal_phases,
    lemma_b13_rounds,
    optimal_k,
)
from .weight_groups import WeightGroupResult, weight_group_matching

__all__ = [
    "ALGORITHM_2_AGGREGATES",
    "AND",
    "AggregateFunction",
    "BipartiteAugmentingPhase",
    "COUNT",
    "CongestOneEpsResult",
    "FastMatchingResult",
    "GreedyMISResult",
    "HypergraphMatchingResult",
    "LayerTrace",
    "MAX",
    "MIN",
    "MatchingResult",
    "MaxISColoringProgram",
    "MaxISColoringResult",
    "MaxISLayersProgram",
    "MaxISResult",
    "NearlyMaximalISResult",
    "OR",
    "OneEpsResult",
    "ProposalResult",
    "SUM",
    "SimulationCost",
    "WeightGroupResult",
    "augment_with_disjoint_paths",
    "bipartite_matching_1eps_phases",
    "bipartite_proposal_phases",
    "bucketed_constant_approx_mwm",
    "build_conflict_graph",
    "canonical_path",
    "congest_matching_1eps_stages",
    "enumerate_augmenting_paths",
    "exchange_step",
    "fast_matching_2eps",
    "fast_matching_weighted_2eps",
    "flip_augmenting_path",
    "fold_over_hosted_neighbors",
    "general_proposal_phases",
    "good_round_cap",
    "greedy_mis_phases",
    "greedy_priorities",
    "improved_nearly_maximal_is",
    "lemma_b11_budget",
    "lemma_b13_rounds",
    "lemma_b3_budget",
    "local_matching_1eps_phases",
    "local_ratio_bound",
    "matching_lines_phases",
    "maxis_coloring_phases",
    "maxis_layers_phases",
    "nearly_maximal_hypergraph_matching",
    "nearly_maximal_matching",
    "optimal_k",
    "paper_k",
    "precision_round_factor",
    "proposal_matching",
    "random_mis_selector",
    "residual_decay_series",
    "sequential_local_ratio",
    "sequential_local_ratio_iter",
    "shortest_augmenting_path_length",
    "split_weights",
    "theorem_2_8_simulation_cost",
    "theorem_3_1_budget",
    "theorem_b4_round_budget",
    "verify_aggregate",
    "verify_hk_phase",
    "weight_group_matching",
]
