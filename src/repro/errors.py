"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """A distributed simulation could not proceed (deadlock, overrun, ...)."""


class RoundLimitExceeded(SimulationError):
    """A protocol did not terminate within its round budget.

    Attributes
    ----------
    rounds:
        The number of rounds that were executed before giving up.
    pending:
        Node identifiers that had not halted when the budget ran out.
    """

    def __init__(self, rounds: int, pending: tuple = ()):  # noqa: D401
        self.rounds = rounds
        self.pending = tuple(pending)
        message = f"protocol did not terminate within {rounds} rounds"
        if self.pending:
            message += f" ({len(self.pending)} nodes still active)"
        super().__init__(message)


class BandwidthViolation(SimulationError):
    """A message exceeded the CONGEST per-edge bandwidth in strict mode."""

    def __init__(self, src, dst, bits: int, bandwidth: int):
        self.src = src
        self.dst = dst
        self.bits = bits
        self.bandwidth = bandwidth
        super().__init__(
            f"message {src}->{dst} uses {bits} bits, exceeding the "
            f"CONGEST bandwidth of {bandwidth} bits"
        )


class MPCCapacityError(SimulationError):
    """A machine's per-round communication exceeded its O(S) budget.

    The MPC runtime enforces sublinearity as a hard invariant: in every
    round, each machine may send plus receive at most
    ``capacity = ceil(capacity_factor * n**delta)`` cross-machine
    messages.  When adaptive sparsification cannot (or may not) bring a
    round's traffic under that cap, the shuffle raises this error
    instead of silently recording a violation.

    Attributes
    ----------
    machine:
        Index of the overloaded machine.
    round_index:
        MPC round in which the overload occurred.
    load:
        Cross-machine messages the machine would have sent + received.
    capacity:
        The per-round message budget that was exceeded.
    """

    def __init__(self, machine: int, round_index: int, load: int,
                 capacity: int):
        self.machine = machine
        self.round_index = round_index
        self.load = load
        self.capacity = capacity
        super().__init__(
            f"machine {machine} would move {load} messages in round "
            f"{round_index}, exceeding its sublinear capacity of "
            f"{capacity}"
        )


class InvalidInstance(ReproError):
    """An input graph/weighting does not satisfy a precondition."""


class InvalidMutation(InvalidInstance):
    """A graph mutation cannot be applied to the graph it targets.

    Raised where mutations are *applied* — referencing a node absent
    from the base graph, deleting an edge that does not exist,
    inserting one that already does — instead of letting a bare
    ``KeyError`` surface later from partition/CSR code.
    """


class ResumeError(ReproError):
    """A checkpointed run could not be resumed."""


class NotResumable(ResumeError):
    """The source of a resume carries no usable checkpoint state.

    Raised when resuming a ``status="complete"`` report (there is
    nothing left to run), a report/checkpoint without a
    ``resume_state`` payload, a malformed payload, or when the new
    round budget is already below the checkpoint's consumed rounds.
    """


class ResumeMismatch(ResumeError):
    """A resume payload does not match the instance/algorithm it was
    asked to continue on.

    The payload pins the algorithm name and a budget-agnostic
    instance fingerprint (graph structure, weights, model, ε, seed);
    resuming against anything else would silently break the
    "resume ≡ never-stopped" contract, so it raises instead.
    """


class TransientFault(ReproError):
    """A failure worth retrying (the retry policies' marker class).

    The fault-injection plane raises this at its ``worker.transient``
    site, and user algorithm code may raise it (or a subclass) to opt a
    failure into the solver service's bounded-retry path.  Anything else
    fails fast, as it always has.
    """


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (unknown site, bad rule,
    unreadable ``--fault-plan`` file)."""


class AlgorithmContractViolation(ReproError):
    """An algorithm produced output that violates its own guarantees.

    This is raised by the validation helpers (used heavily in tests) when,
    for example, an "independent set" contains an edge or a "matching"
    contains two edges sharing an endpoint.
    """
