"""A solve still refuses an invalid solution after the runners' own
end checks were folded into the facade's.

``maxis-layers``, ``maxis-coloring`` and ``matching-proposal`` leave
their final validation to :meth:`~repro.api.SolveReport.certify`, which
every registry run passes through.  Each test here corrupts what a
runner folds from its halted nodes — an adjacent pair for the MaxIS
runners, two pairs sharing an endpoint for the matcher — and expects
:func:`~repro.api.solve` to raise on both backends.
"""

import pytest

from repro.api import Instance, solve
from repro.congest import BACKENDS
from repro.core import maxis_coloring, maxis_layers, proposal_matching
from repro.core.maxis_layers import IN_IS
from repro.core.proposal_matching import MATCHED
from repro.errors import AlgorithmContractViolation
from repro.graphs import assign_node_weights, gnp_graph


@pytest.fixture
def graph():
    return assign_node_weights(gnp_graph(40, 0.15, seed=3), 32, seed=4)


def adjacent_pair(graph):
    return next(iter(graph.edges))


def corrupt_first_fold(monkeypatch, module, extra):
    """Wrap ``module``'s ``stepper_checkpoints`` so that the runner's
    ``fold`` also absorbs the ``extra`` halts on its first call."""

    original = module.stepper_checkpoints

    def corrupted(stepper, label, fold, *args, **kwargs):
        pending = [tuple(extra)]

        def bad_fold(newly_halted):
            if pending:
                newly_halted = (*newly_halted, *pending.pop())
            return fold(newly_halted)

        return original(stepper, label, bad_fold, *args, **kwargs)

    monkeypatch.setattr(module, "stepper_checkpoints", corrupted)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm,module", [
    ("maxis-layers", maxis_layers),
    ("maxis-coloring", maxis_coloring),
])
def test_an_adjacent_pair_is_refused(graph, monkeypatch, backend,
                                     algorithm, module):
    u, v = adjacent_pair(graph)
    corrupt_first_fold(monkeypatch, module, [(u, IN_IS), (v, IN_IS)])
    with pytest.raises(AlgorithmContractViolation,
                       match="independent set contains adjacent nodes"):
        solve(Instance(graph, seed=5, backend=backend), algorithm)


def corrupt_first_absorb(monkeypatch, graph):
    """Make the matcher's first ``_absorb`` also take two pairs that
    share an endpoint."""

    hub = next(v for v in graph if graph.degree(v) >= 2)
    a, b = list(graph.neighbors(hub))[:2]
    pending = [[(hub, (MATCHED, a)), (hub, (MATCHED, b))]]
    absorb = proposal_matching._absorb

    def corrupted(outputs, matching, unlucky):
        absorb([*outputs, *(pending.pop() if pending else ())], matching,
               unlucky)

    monkeypatch.setattr(proposal_matching, "_absorb", corrupted)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_shared_endpoint_is_refused(graph, monkeypatch, backend):
    corrupt_first_absorb(monkeypatch, graph)
    with pytest.raises(AlgorithmContractViolation):
        solve(Instance(graph, seed=5, backend=backend), "matching-proposal")


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_end_check_alone_refuses_a_shared_endpoint(graph, monkeypatch,
                                                       backend):
    # With the per-repetition checks switched off, only certify() is
    # left to see the corrupted matching.
    monkeypatch.setattr(proposal_matching, "check_matching",
                        lambda *args, **kwargs: None)
    monkeypatch.setattr(proposal_matching, "_check_crossing_matching",
                        lambda *args: None)
    corrupt_first_absorb(monkeypatch, graph)
    with pytest.raises(AlgorithmContractViolation,
                       match="matching edges share an endpoint"):
        solve(Instance(graph, seed=5, backend=backend), "matching-proposal")


def test_a_clean_run_passes(graph):
    for algorithm in ("maxis-layers", "maxis-coloring", "matching-proposal"):
        for backend in BACKENDS:
            solve(Instance(graph, seed=5, backend=backend), algorithm)
