"""The canonical problem instance consumed by :func:`repro.api.solve`.

An :class:`Instance` bundles everything an algorithm execution depends
on — the weighted graph, the communication model, the accuracy knob ε,
the RNG seed, and optional round/bandwidth budgets — so every solver in
the registry can be invoked through one uniform signature.  Weights
live on the graph itself (node/edge attribute ``weight``, default 1),
which is the convention used throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx

from ..congest import BACKENDS, SynchronousNetwork, make_network
from ..errors import InvalidInstance
from ..graphs import (
    assign_edge_weights,
    assign_node_weights,
    gnp_graph,
    max_degree,
)

LOCAL = "LOCAL"
CONGEST = "CONGEST"
MPC = "MPC"
MODELS = (LOCAL, CONGEST, MPC)


@dataclass(frozen=True)
class Instance:
    """One solvable problem instance.

    Parameters
    ----------
    graph:
        The input graph; node weights (MaxIS) and edge weights
        (matching) are read from the ``weight`` attribute, default 1.
    model:
        ``"LOCAL"``, ``"CONGEST"``, ``"MPC"``, or ``None`` meaning
        "whatever the chosen algorithm natively runs in" (resolved by
        ``solve``).  Case-insensitive (``"mpc"`` is normalized).
    eps:
        Accuracy parameter for the (1+ε)/(2+ε) algorithms; ignored by
        algorithms whose spec has ``uses_eps=False``.
    seed:
        RNG seed handed verbatim to the algorithm, so a fixed
        ``(instance, algorithm)`` pair reproduces a run bit-for-bit.
    max_rounds:
        Optional hard round budget (a non-negative integer), enforced
        by the anytime solve protocol: a run that exhausts it returns a
        ``status="truncated"`` report with the best valid partial
        solution instead of raising (``None`` keeps the algorithms'
        paper-derived budgets).
    bandwidth_factor:
        CONGEST per-edge bandwidth is ``bandwidth_factor · ⌈log2 n⌉``
        bits per round, ``bandwidth_factor >= 1`` (the simulator
        default is 8).
    strict:
        When true, simulator-backed algorithms raise
        :class:`~repro.errors.BandwidthViolation` on CONGEST overruns
        instead of recording them in the metrics.
    backend:
        Simulator engine: ``"object"`` (per-node programs),
        ``"array"`` (vectorized round kernels; algorithms without a
        kernel fall back to the object engine transparently), or
        ``None`` meaning "consult the ``REPRO_BACKEND`` environment
        variable, default object".  Results are bit-identical across
        backends — the choice only affects execution speed — so the
        backend does not participate in instance fingerprints.
    machines:
        MPC only: number of machines the input is partitioned across.
        ``None`` derives ``ceil(n ** (1 - delta))`` — just enough
        machines that each block fits the ``O(n^delta)`` memory budget.
    delta:
        MPC only: the sublinear-memory exponent δ in ``S = O(n^δ)``
        (default 0.5).  Also sizes the per-machine per-round
        communication cap the runtime enforces.
    """

    graph: nx.Graph
    model: Optional[str] = None
    eps: float = 0.5
    seed: int = 0
    max_rounds: Optional[int] = None
    bandwidth_factor: int = 8
    strict: bool = False
    backend: Optional[str] = None
    machines: Optional[int] = None
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.model is not None:
            normalized = str(self.model).upper()
            if normalized != self.model:
                object.__setattr__(self, "model", normalized)
            if normalized not in MODELS:
                raise InvalidInstance(
                    f"unknown model {self.model!r} "
                    f"(expected one of {MODELS})"
                )
        if self.eps <= 0:
            raise InvalidInstance(f"eps must be positive, got {self.eps}")
        if self.max_rounds is not None and (
                not isinstance(self.max_rounds, int) or self.max_rounds < 0):
            raise InvalidInstance(
                f"max_rounds must be a non-negative integer, "
                f"got {self.max_rounds!r}"
            )
        if self.bandwidth_factor < 1:
            raise InvalidInstance(
                f"bandwidth_factor must be >= 1, got {self.bandwidth_factor}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise InvalidInstance(
                f"unknown backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
            )
        if self.machines is not None and self.machines < 1:
            raise InvalidInstance(
                f"machines must be >= 1, got {self.machines}"
            )
        if self.delta is not None and not 0.0 < self.delta <= 1.0:
            raise InvalidInstance(
                f"delta must lie in (0, 1], got {self.delta}"
            )

    # -- derived views -------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes in the instance graph."""
        return self.graph.number_of_nodes()

    @property
    def m(self) -> int:
        """Number of edges in the instance graph."""
        return self.graph.number_of_edges()

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the instance graph."""

        return max_degree(self.graph)

    def network(self, model: Optional[str] = None) -> SynchronousNetwork:
        """A fresh simulator for this instance (seeded, metered).

        The engine follows :attr:`backend`; with ``backend=None`` the
        ``REPRO_BACKEND`` environment variable decides (object engine
        by default).
        """

        return make_network(
            self.graph,
            model=model or self.model or CONGEST,
            seed=self.seed,
            bandwidth_factor=self.bandwidth_factor,
            strict=self.strict,
            backend=self.backend,
        )


def random_instance(
    problem: str,
    n: int = 40,
    p: float = 0.12,
    max_weight: int = 64,
    seed: int = 0,
    eps: float = 0.5,
    model: Optional[str] = None,
    backend: Optional[str] = None,
) -> Instance:
    """A G(n, p) instance weighted for ``problem``, CLI-compatible.

    Reproduces the historical seed layout of ``python -m repro``: the
    graph uses ``seed``, the weights ``seed + 1``, and the algorithm
    ``seed + 2`` — so CLI runs and facade runs agree bit-for-bit.
    ``problem`` picks the weighting: node weights for ``"maxis"`` /
    ``"mis"``, edge weights for ``"matching"``.
    """

    graph = gnp_graph(n, p, seed=seed)
    if problem in ("maxis", "mis"):
        assign_node_weights(graph, max_weight, seed=seed + 1)
    elif problem == "matching":
        assign_edge_weights(graph, max_weight, seed=seed + 1)
    else:
        raise InvalidInstance(f"unknown problem kind {problem!r}")
    return Instance(graph, model=model, eps=eps, seed=seed + 2, backend=backend)


__all__ = ["CONGEST", "Instance", "LOCAL", "MODELS", "MPC",
           "random_instance"]
