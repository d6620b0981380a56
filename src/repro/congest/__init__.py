"""Synchronous LOCAL/CONGEST simulation substrate.

Public API:

* :class:`SynchronousNetwork` — round-based message-passing simulator,
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
from .message import Envelope, Payload, payload_bits, word_bits
from .network import (
    CONGEST,
    LOCAL,
    NetworkMetrics,
    RunResult,
    StepSnapshot,
    SynchronousNetwork,
)
from .node import IdleProgram, NodeContext, NodeProgram
from .primitives import (
    BfsTreeProgram,
    FloodProgram,
    bfs_tree,
    convergecast_sum,
    flood_distances,
)

__all__ = [
    "ARRAY_BACKEND",
    "ArrayBackendUnsupported",
    "ArrayNetwork",
    "BACKENDS",
    "BACKEND_ENV",
    "OBJECT_BACKEND",
    "make_network",
    "resolve_backend",
    "BfsTreeProgram",
    "CONGEST",
    "FloodProgram",
    "LOCAL",
    "CongestionAudit",
    "bfs_tree",
    "convergecast_sum",
    "flood_distances",
    "Envelope",
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
