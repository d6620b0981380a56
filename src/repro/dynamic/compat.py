"""``MutationCompat`` — the typed compatible-mutation relaxation of the
strict resume fingerprint check.

``resume(payload, instance=mutated, allow=MutationCompat(batch))``
declares *how* the instance differs from the one the checkpoint was
captured on.  The policy never takes the caller's word for it:

1. the batch's ops must all be compatible (node removal is not — the
   frozen state of every neighbor would be unsound) and the algorithm
   must have a registered state splicer;
2. the pre-mutation graph (passed as ``base=``, or reconstructed by
   inverting a normalized batch) must reproduce the payload's
   budget-agnostic fingerprint — i.e. the checkpoint really was
   captured on ``instance minus batch``;
3. re-applying the batch to that base must yield exactly the target
   instance's graph — no undeclared edits ride along.

Only then is the influence region (``radius`` hops around the touched
nodes, over the union of before/after edges) invalidated and the
captured state spliced back to re-runnable form.  Anything that fails
validation raises :class:`~repro.errors.ResumeMismatch`, exactly like
the strict path it relaxes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import networkx as nx

from ..api.instance import Instance
from ..api.serialize import from_jsonable
from ..errors import ResumeMismatch
from .mutations import (
    MutationBatch,
    apply_batch,
    as_batch,
    graphs_equal,
    influence_region,
    invert_batch,
)
from .splice import get_splicer

#: Ops the relaxation accepts.  ``remove_node`` is deliberately absent:
#: deleting a node invalidates every neighbor's frozen view of it, and
#: the sound repair (cascading invalidation of the whole component) is
#: indistinguishable from a fresh solve.
COMPATIBLE_OPS = frozenset({"add_edge", "remove_edge", "set_edge_weight",
                            "set_node_weight", "add_node"})


@dataclass(frozen=True)
class MutationCompat:
    """Resume policy: accept ``batch`` as the fingerprint delta."""

    batch: MutationBatch
    #: The pre-mutation graph (or Instance); reconstructed by inverting
    #: the (normalized) batch when omitted.
    base: Optional[Union[Instance, nx.Graph]] = None
    #: Invalidation radius in hops around the mutation's touched nodes.
    radius: int = 1

    def __post_init__(self):
        object.__setattr__(self, "batch", as_batch(self.batch))

    def reconcile(self, payload: dict, instance: Instance,
                  algorithm: str):
        """Validate the delta and return spliced (re-runnable) state."""

        incompatible = sorted(
            {m.op for m in self.batch if m.op not in COMPATIBLE_OPS}
        )
        if incompatible:
            raise ResumeMismatch(
                f"mutation op(s) {incompatible} are not resume-"
                "compatible: re-solve from scratch"
            )
        splicer = get_splicer(algorithm)
        if splicer is None:
            raise ResumeMismatch(
                f"algorithm {algorithm!r} has no mutation splicer: "
                "the strict fingerprint rule applies"
            )
        base = self.base
        if isinstance(base, Instance):
            base = base.graph
        if base is None:
            base = invert_batch(instance.graph, self.batch)
        from ..api.facade import _resume_fingerprint
        expected = _resume_fingerprint(replace(instance, graph=base))
        if payload["fingerprint"] != expected:
            raise ResumeMismatch(
                "the checkpoint was not captured on this instance minus "
                "the declared batch (base-graph fingerprint mismatch)"
            )
        mutated = apply_batch(base, self.batch)
        if not graphs_equal(mutated, instance.graph):
            raise ResumeMismatch(
                "applying the declared batch to the checkpoint's graph "
                "does not reproduce the target instance (undeclared "
                "edits present)"
            )
        state = from_jsonable(payload["state"])
        if isinstance(state, dict) and state.get("fresh"):
            return state
        region = influence_region(base, instance.graph, self.batch,
                                  self.radius)
        if not region:
            return state
        return splicer(state, instance.graph, region)


__all__ = ["COMPATIBLE_OPS", "MutationCompat"]
