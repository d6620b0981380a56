"""The ``ResumeMismatch`` relaxation: ``resume(..., allow=MutationCompat)``.

Pins the edge cases the policy must get right:

* an **empty batch** goes through the strict (fingerprint-equal) path
  and is bit-identical to a plain ``resume()``;
* a mutation touching an already-**halted** node revives it and the
  continuation completes with a certified solution on the mutated
  graph;
* **delete-then-reinsert** of the same edge is a net no-op — the
  fingerprints match again and the policy is never consulted;
* an **incompatible** mutation (node removal) still raises
  :class:`~repro.errors.ResumeMismatch`, as does an undeclared edit;
* without ``base=`` a **normalized** batch is inverted to the base
  graph and resumes exactly as with ``base=``, while a raw batch
  raises :class:`~repro.errors.InvalidMutation` naming ``base=``.
"""

from dataclasses import replace

import pytest

from repro.api import COMPLETE, Instance, resume, solve
from repro.api.serialize import from_jsonable
from repro.dynamic import (
    MutationBatch,
    MutationCompat,
    add_edge,
    apply_batch,
    remove_edge,
    remove_node,
    set_node_weight,
)
from repro.errors import InvalidMutation, ResumeMismatch
from repro.graphs import assign_node_weights, gnp_graph

ALGORITHM = "maxis-layers"


def base_instance(seed=3):
    g = assign_node_weights(gnp_graph(40, 0.12, seed=1), 8, seed=2)
    return Instance(g, seed=seed)


def truncated_with_halted_nodes(instance):
    """Truncate at the first phase boundary where some node has halted
    (deterministic for fixed seeds)."""

    full = solve(replace(instance, max_rounds=None), ALGORITHM)
    for budget in range(3, full.rounds + 3, 3):
        report = solve(replace(instance, max_rounds=budget), ALGORITHM)
        if report.status == COMPLETE:
            break
        state = from_jsonable(report.resume_state["state"])
        if state["sim"]["halted"]:
            return report, state
    pytest.fail("no truncation point with halted nodes")


def test_empty_batch_is_bit_identical_to_plain_resume():
    instance = base_instance()
    report = solve(replace(instance, max_rounds=9), ALGORITHM)
    assert report.status != COMPLETE
    plain = resume(report)
    relaxed = resume(report, allow=MutationCompat(MutationBatch()))
    assert relaxed.solution == plain.solution
    assert relaxed.objective == plain.objective
    assert relaxed.rounds == plain.rounds
    assert relaxed.metrics.bits == plain.metrics.bits
    assert relaxed.metrics.messages == plain.metrics.messages


def test_mutation_touching_a_halted_node_revives_it():
    instance = base_instance()
    report, state = truncated_with_halted_nodes(instance)
    halted_node = sorted(state["sim"]["halted"], key=repr)[0]
    batch = MutationBatch((set_node_weight(halted_node, 200),))
    mutated = apply_batch(instance.graph, batch)
    continued = resume(
        report,
        instance=replace(instance, graph=mutated, max_rounds=None),
        allow=MutationCompat(batch, base=instance.graph),
    )
    assert continued.status == COMPLETE
    continued.certify()  # raises on an infeasible solution
    # The revived node's new weight dominates its neighborhood, so the
    # repaired solution must now include it.
    assert halted_node in continued.solution


def test_delete_then_reinsert_is_a_net_noop():
    instance = base_instance()
    report = solve(replace(instance, max_rounds=9), ALGORITHM)
    edge = sorted(instance.graph.edges, key=repr)[0]
    batch = MutationBatch((remove_edge(*edge), add_edge(*edge)))
    relaxed = resume(report, allow=MutationCompat(batch,
                                                  base=instance.graph))
    plain = resume(report)
    assert relaxed.solution == plain.solution
    assert relaxed.rounds == plain.rounds
    assert relaxed.metrics.bits == plain.metrics.bits


def test_normalized_batch_needs_no_base():
    """The documented form ``MutationCompat(batch)``: a batch normalized
    by ``apply_batch(..., record=True)`` carries the values its edits
    overwrote, so the policy rebuilds the base graph by inverting it.
    A raw batch cannot be inverted and must say to pass ``base=``."""

    instance = base_instance()
    report = solve(replace(instance, max_rounds=9), ALGORITHM)
    assert report.status != COMPLETE
    node = sorted(instance.graph.nodes, key=repr)[0]
    edge = sorted(instance.graph.edges, key=repr)[0]
    batch = MutationBatch((set_node_weight(node, 200), remove_edge(*edge)))
    mutated, normalized = apply_batch(instance.graph, batch, record=True)
    target = replace(instance, graph=mutated, max_rounds=None)
    with_base = resume(report, instance=target,
                       allow=MutationCompat(batch, base=instance.graph))
    inverted = resume(report, instance=target,
                      allow=MutationCompat(normalized))
    assert inverted.solution == with_base.solution
    assert inverted.rounds == with_base.rounds
    assert inverted.metrics.bits == with_base.metrics.bits
    with pytest.raises(InvalidMutation, match="base="):
        resume(report, instance=target, allow=MutationCompat(batch))


def test_node_removal_still_raises_resume_mismatch():
    instance = base_instance()
    report = solve(replace(instance, max_rounds=9), ALGORITHM)
    victim = sorted(instance.graph.nodes, key=repr)[0]
    batch = MutationBatch((remove_node(victim),))
    mutated = apply_batch(instance.graph, batch)
    with pytest.raises(ResumeMismatch, match="not resume-compatible"):
        resume(report,
               instance=replace(instance, graph=mutated),
               allow=MutationCompat(batch, base=instance.graph))


def test_undeclared_edit_still_raises_resume_mismatch():
    instance = base_instance()
    report = solve(replace(instance, max_rounds=9), ALGORITHM)
    declared = MutationBatch((set_node_weight(0, 3),))
    # Instance actually differs by a *different* edit.
    sneaky = apply_batch(instance.graph,
                         MutationBatch((set_node_weight(1, 3),)))
    with pytest.raises(ResumeMismatch):
        resume(report,
               instance=replace(instance, graph=sneaky),
               allow=MutationCompat(declared, base=instance.graph))


def test_algorithm_without_splicer_keeps_strict_rule():
    g = gnp_graph(30, 0.15, seed=1)
    instance = Instance(g, seed=3)
    report = None
    for budget in range(1, 40):
        report = solve(replace(instance, max_rounds=budget),
                       "maxis-coloring")
        if report.status != COMPLETE:
            break
    assert report is not None and report.status != COMPLETE
    batch = MutationBatch((remove_edge(*sorted(g.edges, key=repr)[0]),))
    mutated = apply_batch(g, batch)
    with pytest.raises(ResumeMismatch, match="no mutation splicer"):
        resume(report,
               instance=replace(instance, graph=mutated),
               allow=MutationCompat(batch, base=g))
