"""Node-program abstraction for the synchronous message-passing simulator.

An algorithm is written once, from the point of view of a single node, by
subclassing :class:`NodeProgram`.  The simulator instantiates one program
per node and drives all of them in lockstep rounds:

* :meth:`NodeProgram.on_start` runs before round 0; messages sent here are
  delivered in round 0.
* :meth:`NodeProgram.on_round` runs once per round with the node's inbox
  available via the context.
* A node leaves the protocol by calling :meth:`NodeContext.halt` with its
  output value.  Messages sent in the halting round are still delivered.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from .message import Payload, Word


class NodeContext:
    """Per-node view of the network handed to a :class:`NodeProgram`.

    The context is persistent across rounds; the simulator refreshes its
    ``round`` and ``inbox`` fields before each invocation.
    """

    __slots__ = ("node", "neighbors", "rng", "round", "inbox",
                 "_outbox", "_halted", "output", "n")

    def __init__(self, node: Hashable, neighbors: Tuple[Hashable, ...],
                 rng: random.Random, n: int):
        self.node = node
        self.neighbors = neighbors
        self.rng = rng
        self.n = n
        self.round = -1
        self.inbox: Dict[Hashable, Payload] = {}
        self._outbox: Dict[Hashable, Payload] = {}
        self._halted = False
        self.output = None

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def halted(self) -> bool:
        return self._halted

    def send(self, dst: Hashable, *words: Word) -> None:
        """Queue one message for neighbor ``dst`` (overwrites earlier sends).

        CONGEST permits a single message per edge per direction per round,
        so sending twice to the same neighbor in one round replaces the
        previous payload rather than queueing a second message.
        """

        if dst not in self._outbox and dst not in self.neighbors:
            raise ValueError(f"{self.node} cannot send to non-neighbor {dst}")
        self._outbox[dst] = tuple(words)

    def broadcast(self, *words: Word) -> None:
        """Send the same payload to every neighbor."""

        payload = tuple(words)
        for neighbor in self.neighbors:
            self._outbox[neighbor] = payload

    def halt(self, output=None) -> None:
        """Stop participating in the protocol and record ``output``."""

        self._halted = True
        self.output = output

    def drain_outbox(self) -> Dict[Hashable, Payload]:
        outbox, self._outbox = self._outbox, {}
        return outbox


class NodeProgram(abc.ABC):
    """Behaviour of one node in a synchronous distributed algorithm."""

    #: The first words (tags) of every message this program sends, if it
    #: declares them; a resumed in-flight message with any other tag is
    #: refused instead of being silently ignored.  ``None`` declares
    #: nothing and checks nothing.
    TAGS: Optional[FrozenSet[str]] = None

    def on_start(self, ctx: NodeContext) -> None:
        """Hook executed before the first round (round index -1)."""

    @abc.abstractmethod
    def on_round(self, ctx: NodeContext) -> None:
        """Hook executed once per round with ``ctx.inbox`` populated."""

    # -- checkpoint support (the resume protocol) ----------------------
    def export_state(self) -> dict:
        """The program's *dynamic* state at a round boundary.

        Programs that support mid-run checkpointing return a dict of
        everything :meth:`on_start` / :meth:`on_round` mutate (static
        configuration is re-derived by the program factory at resume
        time).  The dict must round-trip through
        :mod:`repro.api.serialize` — primitives, tuples, sets and
        node-keyed dicts only.  The default refuses, so asking the
        simulator to capture state for a program without checkpoint
        support fails loudly instead of silently dropping state.
        """

        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoint capture"
        )

    def restore_state(self, state: dict) -> None:
        """Restore what :meth:`export_state` captured.

        Called *instead of* :meth:`on_start` when a run is resumed, on
        a freshly constructed program: it must leave the program
        exactly as it was at the captured round boundary (no messages
        are sent — in-flight mail is restored by the simulator).
        """

        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoint restore"
        )


class IdleProgram(NodeProgram):
    """A program that halts immediately; useful as a placeholder."""

    def __init__(self, output=None):
        self._output = output

    def on_start(self, ctx: NodeContext) -> None:
        ctx.halt(self._output)

    def on_round(self, ctx: NodeContext) -> None:  # pragma: no cover
        ctx.halt(self._output)
