"""Theorem 2.9 — Algorithm 2 is a local aggregation algorithm.

The defining property (Definitions 2.4–2.7): a node's behaviour depends
on its inbox only through order-invariant aggregate functions.  We check
this mechanically: feeding the same messages in different orders to a
program replica must produce identical state and identical outgoing
messages.  This is what licenses the Theorem 2.8 line-graph simulation.
"""

import itertools

from repro.congest import NodeContext
from repro.core.maxis_layers import MaxISLayersProgram
from repro.mis.ghaffari import GhaffariProgram
from repro.utils import stable_rng


class ScriptedContext(NodeContext):
    """A NodeContext with a manually controlled inbox and round."""

    def __init__(self, node, neighbors, seed, round_index, inbox):
        super().__init__(node=node, neighbors=tuple(neighbors),
                         rng=stable_rng(seed, node), n=16)
        self.round = round_index
        self.inbox = dict(inbox)


def snapshots_equal(a, b, fields):
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def run_replica(program_factory, rounds, fields):
    """Run a program over scripted rounds for every inbox permutation;
    assert state and outbox agree across permutations."""

    reference = None
    inbox_items = list(rounds[-1][1].items())
    for permutation in itertools.permutations(inbox_items):
        program = program_factory()
        ctx = None
        for round_index, inbox in rounds[:-1]:
            ctx = ScriptedContext("v", ["u1", "u2", "u3"], 1, round_index,
                                  inbox)
            if round_index == 0 and ctx.round == 0:
                program.on_start(ctx)
            program.on_round(ctx)
            ctx.drain_outbox()
        final_round_index = rounds[-1][0]
        ctx = ScriptedContext("v", ["u1", "u2", "u3"], 1,
                              final_round_index, dict(permutation))
        program.on_round(ctx)
        outbox = ctx.drain_outbox()
        snapshot = tuple(getattr(program, f, None) for f in fields)
        if reference is None:
            reference = (snapshot, outbox, ctx.halted, ctx.output)
        else:
            assert reference == (snapshot, outbox, ctx.halted,
                                 ctx.output), (
                f"order-dependent behaviour on permutation {permutation}"
            )


class TestAlgorithm2OrderInvariance:
    def test_phase_a_reduce_processing(self):
        """Multiple simultaneous reduces must commute (SUM aggregate)."""

        def factory():
            program = MaxISLayersProgram(weight=20)
            ctx = ScriptedContext("v", ["u1", "u2", "u3"], 1, -1, {})
            program.on_start(ctx)
            return program

        inbox = {
            "u1": ("reduce", 4),
            "u2": ("reduce", 3),
            "u3": ("removed",),
        }
        run_replica(lambda: factory(), [(0, inbox)],
                    fields=("weight", "status", "active_neighbors"))

    def test_phase_b_eligibility(self):
        """Layer comparisons are a MAX aggregate: permuting the info
        messages cannot change eligibility or the bid."""

        def factory():
            program = MaxISLayersProgram(weight=20)
            ctx = ScriptedContext("v", ["u1", "u2", "u3"], 1, -1, {})
            program.on_start(ctx)
            return program

        rounds = [
            (0, {}),
            (1, {
                "u1": ("info", 3, 2),
                "u2": ("info", 30, 5),
                "u3": ("info", 7, 3),
            }),
        ]
        run_replica(lambda: factory(), rounds,
                    fields=("eligible", "bid", "neighbor_layers"))

    def test_phase_c_bid_resolution(self):
        """Winning = beating the MAX of same-layer bids; permutation
        invariant."""

        def factory():
            program = MaxISLayersProgram(weight=20)
            ctx = ScriptedContext("v", ["u1", "u2", "u3"], 1, -1, {})
            program.on_start(ctx)
            return program

        rounds = [
            (0, {}),
            (1, {
                "u1": ("info", 18, 5),
                "u2": ("info", 20, 5),
                "u3": ("info", 2, 1),
            }),
            (2, {
                "u1": ("bid", 7),
                "u2": ("bid", 12),
            }),
        ]
        run_replica(lambda: factory(), rounds,
                    fields=("status", "weight", "wait_set"))


class TestGhaffariOrderInvariance:
    def test_effective_degree_is_a_sum(self):
        def factory():
            program = GhaffariProgram(k=2, iterations=10)
            ctx = ScriptedContext("v", ["u1", "u2", "u3"], 1, -1, {})
            program.on_start(ctx)
            return program

        rounds = [
            (0, {}),
            (1, {
                "u1": ("p", 1, False, True),
                "u2": ("p", 2, True, False),
                "u3": ("p", 1, False, False),
            }),
        ]
        run_replica(lambda: factory(), rounds,
                    fields=("exponent", "marked", "low_degree"))
