"""``repro.mpc`` — the sublinear-memory MPC execution model.

The third execution model beside the object and array CONGEST
simulators: the input graph is partitioned across ``m`` machines with
``S = O(n^δ)`` budgets, computation is partition-local, and all
cross-machine traffic moves through one shuffle per round with a hard
per-machine ``sent + received <= O(S)`` sublinearity check
(:class:`~repro.errors.MPCCapacityError` on violation) and per-machine
:class:`MachineLedger` accounting.  Adaptive sparsification — a
peak-hold load estimator plus a lowest-weight-first dropper for
messages the protocol marked outcome-neutral — keeps dense rounds
under budget without changing results.

Run algorithms in this model through the facade::

    from repro.api import Instance, solve

    report = solve(Instance(graph, model="mpc", machines=8, delta=0.5),
                   "matching-proposal")
    report.extras["mpc"]          # capacity, per-machine peaks, drops

``matching-proposal`` (Lemma B.14) and ``maxis-greedy`` are ported;
both have exact objective parity with their default-model runs.
"""

from .greedy import mpc_greedy_mis
from .ledger import MachineLedger, aggregate_ledgers
from .machine import Machine, build_machines
from .network import MPCMessage, MPCNetwork
from .partition import default_topology, partition_nodes
from .proposal import run_bipartite_proposal
from .sparsify import AdaptiveSparsifier, PeakHoldEstimator, SparsifyStats

__all__ = [
    "AdaptiveSparsifier",
    "Machine",
    "MachineLedger",
    "MPCMessage",
    "MPCNetwork",
    "PeakHoldEstimator",
    "SparsifyStats",
    "aggregate_ledgers",
    "build_machines",
    "default_topology",
    "mpc_greedy_mis",
    "partition_nodes",
    "run_bipartite_proposal",
]
