"""A true MIS from the nearly-maximal IS: the ablation's MIS black box.

The paper's Discussion (§4) notes that the Section 3.1 algorithm only
computes an *almost-maximal* independent set in O(log Δ/log log Δ)
rounds.  :func:`nmis_plus_luby_mis` closes the gap in the style of the
shattering framework [BEPS16]: run the nearly-maximal IS first (cheap,
O(log Δ)-ish rounds), then finish the residual nodes with Luby.  The
residual induced subgraph is small w.h.p., so the cleanup is fast; the
union is independent (residual nodes have no IS neighbor by
definition) and maximal.  The ablation benchmark compares it against
plain Luby.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Set, Tuple

import networkx as nx

from ..graphs import check_independent_set, max_degree
from .ghaffari import nearly_maximal_is
from .luby import luby_mis


def nmis_plus_luby_mis(
    graph: nx.Graph,
    nmis_iterations: Optional[int] = None,
    k: float = 2.0,
    seed: int = 0,
) -> Tuple[Set[Hashable], int]:
    """A true MIS: nearly-maximal IS + Luby cleanup on the residual.

    Returns ``(mis, rounds)`` with rounds summed over both stages.  The
    output is validated independent and maximal.  This mirrors the
    [BEPS16]-style composition the paper cites as its MIS black box with
    the O(log Δ + cleanup) round shape.
    """

    delta = max_degree(graph)
    if nmis_iterations is None:
        nmis_iterations = max(1, math.ceil(2 * math.log2(max(2, delta)) + 4))
    independent, residual, nmis_rounds = nearly_maximal_is(
        graph, iterations=nmis_iterations, k=k, seed=seed,
        label="nmis-stage",
    )
    total_rounds = nmis_rounds
    if residual:
        # Residual nodes have no neighbor in the IS, so an MIS of the
        # residual-induced subgraph extends the IS to a full MIS.
        cleanup, cleanup_rounds = luby_mis(
            graph.subgraph(residual), seed=seed + 1, label="luby-cleanup",
        )
        independent = independent | cleanup
        total_rounds += cleanup_rounds
    check_independent_set(graph, independent, require_maximal=True)
    return independent, total_rounds
