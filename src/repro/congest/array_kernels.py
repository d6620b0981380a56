"""Vectorized round kernels for the array-native simulator backend.

Each kernel replays one :class:`~repro.congest.node.NodeProgram` exactly
— same outputs, same message/bit/violation accounting, same RNG streams,
interchangeable checkpoint payloads — with the per-round work expressed
as batched numpy operations over the CSR adjacency instead of per-node
Python objects.  The equivalence arguments live next to the code they
justify; the parity suite in ``tests/congest/test_array_backend.py``
pins them empirically against the object backend.

Two invariants every kernel leans on:

* **Independent RNG streams.**  ``stable_rng(seed, node, proto)`` gives
  every node its own generator, so a kernel may draw for nodes in any
  order (we use position order) without perturbing any stream; draws
  happen exactly when the object program would draw.
* **Repr-rank rows.**  CSR rows are sorted by neighbor ``repr``-rank
  (see :class:`~repro.congest.array_network.GraphCSR`), so the object
  backend's ``sorted(..., key=repr)`` tie-breaks become integer rank
  comparisons — which requires every node ``repr`` to be unique, a
  kernel-constructor guard.

The kernels never import the algorithm modules (which import this
package); protocol constants are restated as literals and pinned to the
originals by the parity tests.
"""

from __future__ import annotations

import numpy as np

from .array_network import (
    MAX_EXACT_INT,
    TAG_BITS,
    ArrayBackendUnsupported,
    ArrayKernel,
    bit_lengths,
    int_word_bits,
    register_kernel,
    seg_any,
    seg_max,
    seg_sum,
)

IN_IS = "InIS"
NOT_IN_IS = "NotInIS"
MATCHED = "matched"
UNLUCKY = "unlucky"
ISOLATED = "isolated"

ACTIVE = "active"
CANDIDATE = "candidate"


def _check_weights(weights, max_degree: int) -> None:
    """Refuse instances whose weights could break exact vectorized
    arithmetic: bit lengths via float64 need values < 2**52, and the
    per-round reduce sums must stay far inside int64."""

    top = int(weights.max())
    if top >= MAX_EXACT_INT:
        raise ArrayBackendUnsupported("weights too large for exact bit math")
    if top * (max_degree + 1) >= (1 << 62):
        raise ArrayBackendUnsupported("weight sums could overflow int64")


def _int_column(table: dict, name: str, count: int):
    """Table column ``name`` as int64; anything but ``count`` machine
    integers (floats, oversized ints, other objects) is left to the
    object engine."""

    values = np.asarray(table[name])
    if values.shape != (count,) or values.dtype.kind not in "ib":
        raise ArrayBackendUnsupported(f"{name} is not {count} int64 values")
    return values.astype(np.int64)


def _positive_weights(table: dict, csr, probe):
    """The ``weight`` column, gated for exact arithmetic.  Non-positive
    weights are left to the object engine, whose programs reject
    them."""

    weights = _int_column(table, "weight", csr.n)
    if int(weights.min()) <= 0:
        raise ArrayBackendUnsupported("non-positive weights")
    if probe.weight != weights[0]:
        raise ArrayBackendUnsupported("the probe disagrees with the table")
    _check_weights(weights, int(csr.degree.max(initial=0)))
    return weights


class _LocalRatioKernel(ArrayKernel):
    """Shared machinery of the two local-ratio MaxIS kernels.

    Both Algorithm 2 and Algorithm 3 drive the same candidate/wait-set
    stack discipline: ``reduce`` subtracts weight and prunes the
    sender, ``removed`` prunes sender from the active and wait sets,
    ``join`` knocks the receiver out, and halting nodes broadcast their
    decision.  The per-edge masks are receiver-row oriented
    (``active_e[p]`` means "my neighbor ``indices[p]`` is in my
    active_neighbors").
    """

    def __init__(self, net, csr, probe, table):
        super().__init__(net, csr, probe, table)
        n, m2 = csr.n, csr.m2
        self.weight = _positive_weights(table, csr, probe)
        self.candidate = np.zeros(n, dtype=bool)
        self.active_e = np.zeros(m2, dtype=bool)
        self.wait_e = np.zeros(m2, dtype=bool)
        self.out_removed = np.zeros(m2, dtype=bool)
        self.out_join = np.zeros(m2, dtype=bool)
        self.out_reduce = np.zeros(m2, dtype=bool)
        self.out_reduce_amt = np.zeros(n, dtype=np.int64)

    # -- shared round fragments ----------------------------------------
    def _apply_inbox(self, in_reduce, in_removed, alive):
        """The ``reduce``/``removed`` handlers, batched.

        The object program applies them per message in inbox order; the
        updates commute (sums and set-discards), so batch order is
        equivalent.  Only alive nodes run ``on_round`` — halted state is
        dead either way, but the weight array feeds later accounting,
        so it alone is masked.  ``None`` means no messages of that kind
        were sent last round: every update it feeds is an identity, so
        the O(m) passes are skipped outright.
        """

        indptr = self.csr.indptr
        if in_reduce is not None:
            amounts = np.where(in_reduce,
                               self.out_reduce_amt[self.csr.indices], 0)
            self.weight -= np.where(alive, seg_sum(amounts, indptr), 0)
            if in_removed is not None:
                self.active_e &= ~(in_reduce | in_removed)
            else:
                self.active_e &= ~in_reduce
        elif in_removed is not None:
            self.active_e &= ~in_removed
        if in_removed is not None:
            self.wait_e &= ~in_removed

    def _send_reduce(self, winners):
        """The closed-neighborhood local-ratio step for this round's
        selected nodes: ``reduce(weight)`` to every believed-active
        neighbor, wait for all of them, zero out, become candidate.

        With no winners every update below is an identity and
        ``out_reduce`` is already this round's zeros, so return early.
        """

        if not winners.any():
            return
        rows = self.csr.rows
        win_e = winners[rows] & self.active_e
        self.out_reduce = win_e
        self.out_reduce_amt = self.weight.copy()
        self.charge_sends(seg_sum(win_e.astype(np.int64), self.csr.indptr),
                          TAG_BITS + int_word_bits(self.out_reduce_amt))
        self.wait_e = np.where(winners[rows], self.active_e, self.wait_e)
        self.weight = np.where(winners, 0, self.weight)
        self.candidate |= winners

    def _emit_decisions(self, removed, joined):
        """Broadcast this round's ``removed``/``join`` decisions, meter
        them, and record the halts in graph order.  The per-edge
        broadcast gathers only run for decision kinds somebody actually
        took this round (most rounds have none)."""

        rows = self.csr.rows
        deg = self.csr.degree
        m2 = self.csr.m2
        any_removed = bool(removed.any())
        any_joined = bool(joined.any())
        if any_removed:
            self.out_removed = removed[rows]
            self.charge_sends(np.where(removed, deg, 0), TAG_BITS)
        elif self.out_removed.any():
            self.out_removed = np.zeros(m2, dtype=bool)
        if any_joined:
            self.out_join = joined[rows]
            self.charge_sends(np.where(joined, deg, 0), TAG_BITS)
        elif self.out_join.any():
            self.out_join = np.zeros(m2, dtype=bool)
        if any_removed or any_joined:
            out = self.node_output
            indices = np.flatnonzero(removed | joined)
            for i in indices:
                out[int(i)] = IN_IS if joined[i] else NOT_IN_IS
            self.record_halts(indices)

    # -- checkpoint program state --------------------------------------
    def _program_state(self, i: int) -> dict:
        return {
            "weight": int(self.weight[i]),
            "status": CANDIDATE if self.candidate[i] else ACTIVE,
            "active_neighbors": self._edge_set(self.active_e, i),
            "wait_set": self._edge_set(self.wait_e, i),
        }

    def _restore_program(self, i: int, prog: dict) -> None:
        status = prog["status"]
        if status not in (ACTIVE, CANDIDATE):
            raise ArrayBackendUnsupported(f"unknown status {status!r}")
        self.weight[i] = self._as_int(prog["weight"])
        self.candidate[i] = status == CANDIDATE
        self._set_edges(self.active_e, i, prog["active_neighbors"])
        self._set_edges(self.wait_e, i, prog["wait_set"])


@register_kernel
class MaxISLayersKernel(_LocalRatioKernel):
    """Algorithm 2 (``maxis-layers``), three simulator rounds per
    selection iteration (info / bid / resolve)."""

    PROGRAM = "repro.core.maxis_layers.MaxISLayersProgram"
    MESSAGES = (
        ("removed", "out_removed", ()),
        ("join", "out_join", ()),
        ("info", "out_info", ("out_info_w", "out_info_layer")),
        ("bid", "out_bid", ("out_bid_val",)),
        ("reduce", "out_reduce", ("out_reduce_amt",)),
    )

    def __init__(self, net, csr, probe, table):
        """Table: ``weight`` per node, plus the ``trace`` every node
        shares (``None`` for none)."""

        super().__init__(net, csr, probe, table)
        if not csr.unique_reprs:
            raise ArrayBackendUnsupported("bid ties need unique node reprs")
        self.trace = table.get("trace")
        if probe.trace is not self.trace:
            raise ArrayBackendUnsupported("the probe's trace is not shared")
        self.bid_bound = max(2, csr.n) ** 3
        if self.bid_bound >= MAX_EXACT_INT:
            raise ArrayBackendUnsupported("bid range exceeds exact bit math")
        n, m2 = csr.n, csr.m2
        self.has_bid = np.zeros(n, dtype=bool)
        self.bid = np.zeros(n, dtype=np.int64)
        self.eligible = np.zeros(n, dtype=bool)
        self.nl_mask = np.zeros(m2, dtype=bool)
        self.nl_layer = np.zeros(m2, dtype=np.int64)
        self.out_info = np.zeros(m2, dtype=bool)
        self.out_bid = np.zeros(m2, dtype=bool)
        self.out_info_w = np.zeros(n, dtype=np.int64)
        self.out_info_layer = np.zeros(n, dtype=np.int64)
        self.out_bid_val = np.zeros(n, dtype=np.int64)

    def start(self) -> None:
        self.active_e[:] = True

    def step(self, round_index: int) -> None:
        csr = self.csr
        indptr, indices, rows = csr.indptr, csr.indices, csr.rows
        mirror = csr.mirror
        phase = round_index % 3
        in_reduce = self.out_reduce[mirror] if self.out_reduce.any() else None
        in_removed = (self.out_removed[mirror]
                      if self.out_removed.any() else None)
        in_join = self.out_join[mirror] if self.out_join.any() else None
        if phase == 1:
            in_info = self.out_info[mirror]
            in_info_layer = self.out_info_layer[indices]
        elif phase == 2:
            in_bid = self.out_bid[mirror]
            in_bid_val = self.out_bid_val[indices]
        m2 = csr.m2
        self.out_info = np.zeros(m2, dtype=bool)
        self.out_bid = np.zeros(m2, dtype=bool)
        self.out_reduce = np.zeros(m2, dtype=bool)

        alive = ~self.halted
        self._apply_inbox(in_reduce, in_removed, alive)
        # _process_inbox: a join halts the receiver (its own skipped
        # updates are dead state — the node broadcasts "removed" and
        # leaves regardless of inbox order).
        if in_join is not None:
            h_join = alive & seg_any(in_join, indptr)
            rem = alive & ~h_join
        else:
            h_join = None
            rem = alive.copy()
        # _maybe_transition.
        retired = rem & ~self.candidate & (self.weight <= 0)
        rem &= ~retired
        if self.candidate.any():
            joined = rem & self.candidate & ~seg_any(self.wait_e, indptr)
        else:
            joined = np.zeros_like(rem)
        rem &= ~joined
        actors = rem & ~self.candidate

        if phase == 0:
            layer = bit_lengths(self.weight - 1)
            if self.trace is not None and actors.any():
                occupied = self.trace.occupancy.setdefault(round_index, set())
                for value in np.unique(layer[actors]):
                    occupied.add(int(value))
            self.out_info = actors[rows]
            self.out_info_w = self.weight.copy()
            self.out_info_layer = layer
            bits = (TAG_BITS + int_word_bits(self.out_info_w)
                    + int_word_bits(layer))
            self.charge_sends(np.where(actors, csr.degree, 0), bits)
        elif phase == 1:
            # Rebuild neighbor_layers from this round's info mail, for
            # phase-B actors only (everyone else keeps their old view).
            actor_e = actors[rows]
            np.copyto(self.nl_mask, in_info, where=actor_e)
            np.copyto(self.nl_layer, in_info_layer, where=actor_e)
            my_layer = bit_lengths(self.weight - 1)
            higher = in_info & (in_info_layer > my_layer[rows])
            elig = actors & ~seg_any(higher, indptr)
            self.eligible = np.where(actors, elig, self.eligible)
            self.has_bid = np.where(actors, elig, self.has_bid)
            bound = self.bid_bound
            bid = self.bid
            for i in np.flatnonzero(elig):
                bid[int(i)] = self.rng(int(i)).randrange(bound)
            self.out_bid = elig[rows]
            self.out_bid_val = bid.copy()
            self.charge_sends(np.where(elig, csr.degree, 0),
                              TAG_BITS + int_word_bits(self.out_bid_val))
        else:
            # A bidder survives unless some same-layer bid (per its own
            # neighbor_layers view) beats its (bid, repr) pair; the repr
            # tie-break is the rank comparison (two stages — a composite
            # bid*n+rank key could overflow int64 at large n).
            resolvers = actors & self.has_bid
            my_layer = bit_lengths(self.weight - 1)
            comp = (in_bid & self.nl_mask & resolvers[rows]
                    & (self.nl_layer == my_layer[rows]))
            comp_bid = np.where(comp, in_bid_val, -1)
            top_bid = seg_max(comp_bid, indptr)
            tied = comp & (in_bid_val == top_bid[rows])
            comp_rank = np.where(tied, csr.rank[indices], -1)
            top_rank = seg_max(comp_rank, indptr)
            beaten = (top_bid > self.bid) | ((top_bid == self.bid)
                                             & (top_rank > csr.rank))
            self._send_reduce(resolvers & ~beaten)

        self._emit_decisions(retired if h_join is None else h_join | retired,
                             joined)

    # -- checkpoint program state --------------------------------------
    def _program_state(self, i: int) -> dict:
        program = super()._program_state(i)
        row = self._row(i)
        nbr = self.csr.indices[row]
        nodes = self.csr.nodes
        nl_layer = self.nl_layer[row]
        program["neighbor_layers"] = {
            nodes[int(nbr[k])]: int(nl_layer[k])
            for k in np.flatnonzero(self.nl_mask[row])
        }
        program["bid"] = int(self.bid[i]) if self.has_bid[i] else None
        program["eligible"] = bool(self.eligible[i])
        return program

    def _restore_program(self, i: int, prog: dict) -> None:
        super()._restore_program(i, prog)
        index = self.csr.index
        edge_pos = self.csr.edge_pos
        for u, layer in prog["neighbor_layers"].items():
            p = edge_pos[(i, index[u])]
            self.nl_mask[p] = True
            self.nl_layer[p] = self._as_int(layer)
        bid = prog["bid"]
        if bid is not None:
            self.bid[i] = self._as_int(bid)
            self.has_bid[i] = True
        self.eligible[i] = bool(prog["eligible"])


@register_kernel
class MaxISColoringKernel(_LocalRatioKernel):
    """Algorithm 3 (``maxis-coloring``), one sweep per simulator round.

    Fully deterministic: local color maxima among believed-active
    neighbors reduce, candidates join once their wait set drains.  The
    ``on_start`` sweep runs in :meth:`start` — it can send and even halt
    before round 0, exactly like the object program.
    """

    PROGRAM = "repro.core.maxis_coloring.MaxISColoringProgram"
    MESSAGES = (
        ("removed", "out_removed", ()),
        ("join", "out_join", ()),
        ("reduce", "out_reduce", ("out_reduce_amt",)),
    )

    def __init__(self, net, csr, probe, table):
        """Table: ``weight`` and ``color`` per node.  One color array
        serves every node, so the programs' local ``neighbor_colors``
        views cannot disagree with it."""

        super().__init__(net, csr, probe, table)
        color = _int_column(table, "color", csr.n)
        if color.size and int(np.abs(color).max()) >= (1 << 62):
            raise ArrayBackendUnsupported("color values too large")
        if probe.color != color[0]:
            raise ArrayBackendUnsupported("the probe disagrees with the table")
        self.color = color

    def start(self) -> None:
        self.active_e[:] = True
        self._act(np.ones(self.csr.n, dtype=bool), None)

    def step(self, round_index: int) -> None:
        mirror = self.csr.mirror
        in_reduce = self.out_reduce[mirror] if self.out_reduce.any() else None
        in_removed = (self.out_removed[mirror]
                      if self.out_removed.any() else None)
        in_join = self.out_join[mirror] if self.out_join.any() else None
        self.out_reduce = np.zeros(self.csr.m2, dtype=bool)

        alive = ~self.halted
        self._apply_inbox(in_reduce, in_removed, alive)
        if in_join is not None:
            h_join = alive & seg_any(in_join, self.csr.indptr)
            self._act(alive & ~h_join, h_join)
        else:
            self._act(alive, None)

    def _act(self, rem, h_join) -> None:
        """One ``_act`` sweep over the nodes in ``rem`` (``h_join``
        holds this round's join-knockouts, which skip the sweep but
        share its decision broadcast; ``None`` when nobody was knocked
        out this round)."""

        csr = self.csr
        indptr, indices, rows = csr.indptr, csr.indices, csr.rows
        retired = rem & ~self.candidate & (self.weight <= 0)
        live = rem & ~self.candidate & ~retired
        not_top = self.active_e & (self.color[indices] >= self.color[rows])
        self._send_reduce(live & ~seg_any(not_top, indptr))
        if self.candidate.any():
            joined = rem & ~retired & self.candidate \
                & ~seg_any(self.wait_e, indptr)
        else:
            joined = np.zeros_like(rem)
        self._emit_decisions(retired if h_join is None else h_join | retired,
                             joined)


@register_kernel
class ProposalKernel(ArrayKernel):
    """Lemma B.13's bipartite proposal matcher (``proposal-matching``).

    Two rounds per phase: even rounds seal accepted matches, retire
    isolated/deadline nodes, and let left nodes propose on a random
    live edge; odd rounds let each proposed-to right node accept its
    highest-``repr`` proposer (retire broadcast, accept overwriting the
    winner's slot — one message per edge, all 4-bit tags).
    """

    PROGRAM = "repro.core.proposal_matching.ProposalProgram"
    MESSAGES = (
        ("retired", "out_retired", ()),
        ("accept", "out_accept", ()),
        ("propose", "out_propose", ()),
    )

    def __init__(self, net, csr, probe, table):
        """Table: ``side`` (``"L"``/``"R"``) per node, plus the
        ``phases`` deadline every node shares."""

        super().__init__(net, csr, probe, table)
        if not csr.unique_reprs:
            raise ArrayBackendUnsupported("proposals need unique node reprs")
        n, m2 = csr.n, csr.m2
        side = np.asarray(table["side"])
        self.is_left = side == "L"
        if side.shape != (n,) or not (self.is_left | (side == "R")).all():
            raise ArrayBackendUnsupported("sides other than 'L'/'R'")
        self.phases = table["phases"]
        if not isinstance(self.phases, int):
            raise ArrayBackendUnsupported("non-integer phase deadline")
        if (probe.side != ("L" if self.is_left[0] else "R")
                or probe.phases != self.phases):
            raise ArrayBackendUnsupported("the probe disagrees with the table")
        self.live_e = np.zeros(m2, dtype=bool)
        self.has_proposed = np.zeros(n, dtype=bool)
        self.proposed_idx = np.zeros(n, dtype=np.int64)
        self.out_retired = np.zeros(m2, dtype=bool)
        self.out_accept = np.zeros(m2, dtype=bool)
        self.out_propose = np.zeros(m2, dtype=bool)

    def start(self) -> None:
        self.live_e[:] = True

    def step(self, round_index: int) -> None:
        csr = self.csr
        indptr, indices, rows = csr.indptr, csr.indices, csr.rows
        deg = csr.degree
        nodes = csr.nodes
        in_retired = self.out_retired[csr.mirror]
        in_accept = self.out_accept[csr.mirror]
        in_propose = self.out_propose[csr.mirror]
        m2 = csr.m2
        self.out_retired = np.zeros(m2, dtype=bool)
        self.out_accept = np.zeros(m2, dtype=bool)
        self.out_propose = np.zeros(m2, dtype=bool)

        alive = ~self.halted
        # The retired handler runs first in every on_round.
        self.live_e &= ~in_retired
        out = self.node_output
        if round_index % 2 == 0:
            sealed = alive & seg_any(in_accept, indptr)
            partner = seg_max(np.where(in_accept, indices, -1), indptr)
            rem = alive & ~sealed
            isolated = rem & ~seg_any(self.live_e, indptr)
            rem &= ~isolated
            unlucky = rem & (round_index // 2 >= self.phases)
            rem &= ~unlucky
            for i in np.flatnonzero(rem & self.is_left):
                i = int(i)
                lo = int(indptr[i])
                pos = np.flatnonzero(self.live_e[lo:int(indptr[i + 1])]) + lo
                # rng.choice over the rank-sorted live positions draws
                # the same stream (one _randbelow(len)) and lands on the
                # same neighbor as choice(sorted(live, key=repr)).
                p = int(self.rng(i).choice(pos))
                self.out_propose[p] = True
                self.proposed_idx[i] = indices[p]
                self.has_proposed[i] = True
            self.out_retired = sealed[rows]
            self.charge_sends(np.where(sealed, deg, 0), TAG_BITS)
            self.charge_sends((rem & self.is_left).astype(np.int64), TAG_BITS)
            done = sealed | isolated | unlucky
            if done.any():
                halted_now = np.flatnonzero(done)
                for i in halted_now:
                    i = int(i)
                    if sealed[i]:
                        out[i] = (MATCHED, nodes[int(partner[i])])
                    elif isolated[i]:
                        out[i] = (ISOLATED, None)
                    else:
                        out[i] = (UNLUCKY, None)
                self.record_halts(halted_now)
        else:
            right = alive & ~self.is_left
            prop_in = in_propose & right[rows]
            responders = right & seg_any(prop_in, indptr)
            cand_rank = np.where(prop_in, csr.rank[indices], -1)
            top_rank = seg_max(cand_rank, indptr)
            win_e = prop_in & (cand_rank == top_rank[rows])
            self.out_retired = responders[rows] & ~win_e
            self.out_accept = win_e
            self.charge_sends(np.where(responders, deg, 0), TAG_BITS)
            if responders.any():
                winner = seg_max(np.where(win_e, indices, -1), indptr)
                halted_now = np.flatnonzero(responders)
                for i in halted_now:
                    i = int(i)
                    out[i] = (MATCHED, nodes[int(winner[i])])
                self.record_halts(halted_now)

    # -- checkpoint program state --------------------------------------
    def _program_state(self, i: int) -> dict:
        proposed = self.csr.nodes[int(self.proposed_idx[i])] \
            if self.has_proposed[i] else None
        return {"live": self._edge_set(self.live_e, i),
                "proposed_to": proposed}

    def _restore_program(self, i: int, prog: dict) -> None:
        self._set_edges(self.live_e, i, prog["live"])
        proposed = prog["proposed_to"]
        if proposed is not None:
            self.proposed_idx[i] = self.csr.index[proposed]
            self.has_proposed[i] = True
