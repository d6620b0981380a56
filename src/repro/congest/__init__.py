"""Synchronous LOCAL/CONGEST simulation substrate.

Public API:

* :class:`SynchronousNetwork` — round-based message-passing simulator;
  a run covers every node of the graph and ends when all of them have
  halted or its round budget is spent,
* :class:`NodeProgram` / :class:`NodeContext` — per-node algorithm API,
* :class:`RoundLedger` — round accounting for phase-composed algorithms,
* :func:`line_graph` / :class:`CongestionAudit` — Section 2.4 line-graph
  construction and congestion measurement,
* :class:`ArrayNetwork` / :func:`make_network` — the array-native
  simulator backend (bit-compatible, numpy round kernels) and the
  backend-selection factory (``REPRO_BACKEND`` env override).
"""

from .array_network import (
    ARRAY_BACKEND,
    BACKEND_ENV,
    BACKENDS,
    OBJECT_BACKEND,
    ArrayBackendUnsupported,
    ArrayNetwork,
    make_network,
    resolve_backend,
)
from .ledger import RoundLedger
from .linegraph import (
    CongestionAudit,
    canonical_edge,
    line_graph,
    primary_endpoint,
    secondary_endpoint,
    shared_endpoint,
)
from .message import Payload, payload_bits, word_bits
from .network import (
    CONGEST,
    LOCAL,
    NetworkMetrics,
    RunResult,
    StepSnapshot,
    SynchronousNetwork,
)
from .node import IdleProgram, NodeContext, NodeProgram

__all__ = [
    "ARRAY_BACKEND",
    "ArrayBackendUnsupported",
    "ArrayNetwork",
    "BACKENDS",
    "BACKEND_ENV",
    "OBJECT_BACKEND",
    "make_network",
    "resolve_backend",
    "CONGEST",
    "LOCAL",
    "CongestionAudit",
    "IdleProgram",
    "NetworkMetrics",
    "NodeContext",
    "NodeProgram",
    "Payload",
    "RoundLedger",
    "RunResult",
    "StepSnapshot",
    "SynchronousNetwork",
    "canonical_edge",
    "line_graph",
    "payload_bits",
    "primary_endpoint",
    "secondary_endpoint",
    "shared_endpoint",
    "word_bits",
]
