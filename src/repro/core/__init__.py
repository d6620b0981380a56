"""The paper's distributed algorithms and their analysis helpers.

* MaxIS: Algorithm 2 (``maxis_layers_phases``) and Algorithm 3
  (``maxis_coloring_phases``), the distributed local-ratio
  Δ-approximations, plus the greedy weighted MIS by parallel peeling
  and the §3.1 improved nearly-maximal IS;
* matching: Algorithm 2 on the line graph (Theorem 2.10) and its
  footnote-5 weight-group form, the proposal matchers of Lemma B.13,
  the (2+ε) fast matchers, and the (1+ε) LOCAL and CONGEST
  Hopcroft–Karp-framework matchers with their augmenting-path and
  hypergraph-matching machinery;
* the round budgets the theorems state and Theorem 2.8's per-edge
  simulation cost (``theorem_2_8_simulation_cost``).

Each algorithm is a phase generator that yields a
:class:`~repro.core.stepwise.Checkpoint` at every phase boundary and
returns its result dataclass; drain one with :func:`repro.utils.drain`
to run it to completion.  Most callers want the unified facade instead,
which runs the same generators with the same seeds and returns one
uniform :class:`repro.api.SolveReport`::

    from repro.api import Instance, solve
    report = solve(Instance(graph, seed=3), "maxis-layers")

The sequential Algorithm 1 that Algorithms 2 and 3 reduce to is a test
oracle (``tests/local_ratio_oracle.py``), not part of the package.
"""

from .aggregation import SimulationCost, theorem_2_8_simulation_cost
from .augmenting import (
    augment_with_disjoint_paths,
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
    "BipartiteAugmentingPhase",
    "CongestOneEpsResult",
    "FastMatchingResult",
    "GreedyMISResult",
    "HypergraphMatchingResult",
    "LayerTrace",
    "MatchingResult",
    "MaxISColoringProgram",
    "MaxISColoringResult",
    "MaxISLayersProgram",
    "MaxISResult",
    "NearlyMaximalISResult",
    "OneEpsResult",
    "ProposalResult",
    "SimulationCost",
    "WeightGroupResult",
    "augment_with_disjoint_paths",
    "bipartite_matching_1eps_phases",
    "bipartite_proposal_phases",
    "bucketed_constant_approx_mwm",
    "canonical_path",
    "congest_matching_1eps_stages",
    "enumerate_augmenting_paths",
    "fast_matching_2eps",
    "fast_matching_weighted_2eps",
    "flip_augmenting_path",
    "general_proposal_phases",
    "good_round_cap",
    "greedy_mis_phases",
    "greedy_priorities",
    "improved_nearly_maximal_is",
    "lemma_b11_budget",
    "lemma_b13_rounds",
    "lemma_b3_budget",
    "local_matching_1eps_phases",
    "matching_lines_phases",
    "maxis_coloring_phases",
    "maxis_layers_phases",
    "nearly_maximal_hypergraph_matching",
    "nearly_maximal_matching",
    "optimal_k",
    "paper_k",
    "precision_round_factor",
    "proposal_matching",
    "residual_decay_series",
    "shortest_augmenting_path_length",
    "theorem_2_8_simulation_cost",
    "theorem_3_1_budget",
    "theorem_b4_round_budget",
    "verify_hk_phase",
    "weight_group_matching",
]
