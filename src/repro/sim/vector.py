"""The array-native vector DES kernel: every experiment job runs on it.

:class:`VectorSimulator` replays the same discrete-event semantics as
:class:`repro.sim.engine.DesSimulator` — same event encoding, same guard
order, same zero-time relay cascade, same buffer/TTL bookkeeping — but
restructures the replay around flat arrays and bitmasks so that
city-scale traces (10^4–10^5 nodes, 10^5+ contacts) run an order of
magnitude faster:

* **sorted compact timeline** — without bandwidth/channel/churn the event
  set is fully known up front (contact starts/ends, creations, expiries),
  so the heap disappears: the timeline is built as four compact numpy
  columns (``float64`` times, ``int8`` kinds, ``int32`` endpoints), stably
  lexsorted once on ``(time, kind)``, and replayed in fixed-size chunks,
  each slice walked as plain Python lists.  The encoding (kinds, sequence
  assignment) is byte-identical to the DES engine's initial event load,
  so ties resolve identically, also across chunk edges.
* **one replay loop** — every native run goes through :meth:`_replay`,
  with the contact bookkeeping inlined.  Locals fixed before the loop
  select the rest: the contact history is recorded for a protocol that
  sets ``reads_history``, ``on_contact_start``/``on_contact_end`` are
  called when the protocol's class overrides them, a tracer gets
  ``contact_start``/``contact_end``, and telemetry counts and samples each
  event.
* **per-node candidate bitmasks** — messages are interned to dense
  indices (the :mod:`repro.core.fastpath` idiom) and each node tracks the
  set of live copies it carries and the set of messages it ever held as
  one ``int`` bitmask each.  A contact's exchange loop is screened with
  ``carried[a] & ~ever_held[b] & ~stopped``: when the mask is zero — the
  overwhelmingly common case on a saturated large trace — the contact
  moves nothing and costs three integer ops instead of a Python loop over
  every carried message.  The screen only removes offers the DES engine's
  own pre-decision guards would reject, so the forwarding-decision
  counters still match exactly.
* **batched verdicts** — every protocol judges the surviving candidates
  of a contact as one ``vector_approvals`` batch (see
  :class:`repro.routing.RoutingProtocol`), which sees the contact history
  only if the protocol sets ``reads_history`` (``None`` otherwise).
* **message-parallel flood** — on the flood gate (below) the zero-time
  relay walks each node once per contact instead of once per message: one
  DFS over ``(node, live-message bitmask)`` stack entries screens
  ``live & ~(ever_held[peer] | stopped)`` per peer (``live`` is carried at
  ``node``: under the gate no copy leaves a node inside a relay), judges
  the survivors as one ``vector_approvals`` batch, lands the approved
  copies in one bookkeeping step and pushes ``(peer, landed)``.  A
  contact lands its whole candidate batch, then floods once from the
  peer; a creation floods from the source.  No per-node carried sets are
  kept.
* **hop columns** — on every path a message's holdings are one
  ``array('i')`` hop column, ``num_nodes`` long, holding each holder's hop
  count and ``-1`` where the node holds no copy.  It is allocated when the
  source admits the message and released at expiry, whose holders are
  found by scanning it: 4 × ``num_nodes`` bytes per launched message until
  it expires.
* **buffered probes** — a supplied tracer is wrapped in
  :class:`repro.obs.BufferedTracer`, so ``obs`` tracing keeps working
  (same events, same order, same file bytes) without paying per-event
  sink overhead inside the loop.

The flood is exact.  Restricted to one message, its stack operations are
that message's own relay DFS: the same pushes in the same peer order and
LIFO pops (a subsequence of a stack is a stack), so reach, first-delivery
time and hop count are unchanged.  ``active_peers`` cannot change inside a
zero-time relay, so the peer snapshot is the same whenever it is taken;
the counters are sums, so their totals do not depend on order; and the
``vector_approvals`` contract — judging one message never changes another
message's verdict — is exactly the cross-message independence the
interleaving needs.  As in the per-message relay, a delivery made by the
contact itself does not relay onward, while a delivery made inside the
relay pushes the destination.  Contact hooks and telemetry fit the
argument because both act only between timeline events, where the two
paths agree: the hooks run at contact starts and ends in the replay loop,
not inside a relay, so a relay reads the same protocol state either way
(PRoPHET's verdicts age rows only to the current time, which a second
read at that time leaves unchanged); telemetry counts each timeline event
and samples the occupancy after it, and after every event the holdings,
and so the occupancy, are equal on both paths.

The run has two native paths, and the gate between them is decided once
per run from the run's inputs: infinite buffers, ``copy`` semantics, one
effective size for every message, and no tracer take the flood.
Everything else keeps the per-message relay, because there the order
across messages is observable: a tracer records DES event order byte for
byte, hand-off interleaves adds and removes (so peak occupancy depends on
the order), finite buffers evict across messages, and with mixed sizes the
float occupancy sum depends on addition order.  :attr:`VectorSimulator.
code_path` reports which path a run took.

Equivalence guarantee
---------------------
For every configuration the kernel handles natively — unconstrained,
finite buffers (all three drop policies), TTL, ``message_size`` overrides,
both copy semantics, with or without ``stop_on_delivery`` — a vector run
is delivery-stream-equivalent to the DES engine: same delivered set, same
first-delivery times, same hop counts, same copy counts, and the same
:class:`~repro.sim.engine.ResourceStats` counters.
``tests/test_vector_equivalence.py`` pins this on all four paper dataset
stand-ins.

Configurations whose event set cannot be presorted — ``bandwidth``
(transfer-completion events), an active ``channel`` (loss/retransmission)
or active ``churn`` (crash/reboot) — are delegated wholesale to
:class:`~repro.sim.engine.DesSimulator`, so the vector kernel is valid
everywhere the DES engine is and trivially exact there (telemetry collected on a
delegated run reports the engine that actually executed).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..contacts import ContactTrace
from ..core.fastpath import NodeInterner
from ..forwarding.history import OnlineContactHistory
from ..forwarding.messages import Message
from ..forwarding.simulator import check_endpoints, delivery_outcomes
from ..routing.base import RoutingProtocol
from .buffers import BufferEntry, NodeBuffer
from .engine import (
    _KIND_NAMES,
    UNCONSTRAINED,
    ConstrainedSimulationResult,
    DesSimulator,
    ResourceConstraints,
    ResourceStats,
)
from .events import CONTACT_END, CONTACT_START, CREATE, EXPIRE

__all__ = ["VectorSimulator"]

#: events per replay chunk: the timeline stays in compact numpy columns
#: and the replay loop converts one slice of this many events to Python
#: scalars at a time
_CHUNK = 8192


def _chunks(timeline):
    """The timeline's ``(time, kind, a, b)`` events as plain Python
    scalars, one zipped :data:`_CHUNK`-event slice at a time."""
    chunk = _CHUNK
    for low in range(0, len(timeline[0]), chunk):
        yield zip(*[column[low:low + chunk].tolist() for column in timeline])


class VectorSimulator:
    """Array-native replay of a trace, interchangeable with ``DesSimulator``.

    The constructor signature matches :class:`~repro.sim.DesSimulator`
    exactly; see the module docstring for which configurations run on the
    native array path and which delegate.
    """

    def __init__(
        self,
        trace: ContactTrace,
        algorithm: RoutingProtocol,
        constraints: ResourceConstraints = UNCONSTRAINED,
        copy_semantics: str = "copy",
        stop_on_delivery: bool = True,
        seed: Optional[int] = None,
        tracer: Optional[object] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        if copy_semantics not in ("copy", "handoff"):
            raise ValueError("copy_semantics must be 'copy' or 'handoff'")
        self._trace = trace
        self._protocol = algorithm
        self._constraints = constraints
        self._copy = copy_semantics == "copy"
        self._stop_on_delivery = stop_on_delivery
        self._seed = seed
        self._tracer = tracer
        self._telemetry = telemetry
        self._copy_semantics = copy_semantics
        # event kinds the native path cannot presort: bandwidth schedules
        # TRANSFER_DONE dynamically, faults schedule RETRANSMIT and churn
        self._delegate = (constraints.bandwidth is not None
                          or constraints.active_channel is not None
                          or constraints.active_churn is not None)
        # run-scoped state, rebound by run()
        self._history: Optional[OnlineContactHistory] = None
        self._stats = ResourceStats()
        self._code_path: Optional[str] = None

    @property
    def constraints(self) -> ResourceConstraints:
        return self._constraints

    @property
    def code_path(self) -> Optional[str]:
        """The code path the last :meth:`run` took, ``None`` before one.

        ``"delegate"`` (handed to the DES engine), ``"flood"`` (the
        message-parallel relay) or ``"fastpath"`` (one relay per
        message); the module docstring gives the gates.
        """
        return self._code_path

    # ------------------------------------------------------------------
    def run(self, messages: Sequence[Message]) -> ConstrainedSimulationResult:
        """Simulate the delivery of *messages* under the constraints."""
        if self._delegate:
            self._code_path = "delegate"
            return DesSimulator(
                self._trace, self._protocol, constraints=self._constraints,
                copy_semantics=self._copy_semantics,
                stop_on_delivery=self._stop_on_delivery, seed=self._seed,
                tracer=self._tracer, telemetry=self._telemetry,
            ).run(messages)
        check_endpoints(self._trace, messages)
        if len({m.id for m in messages}) != len(messages):
            raise ValueError("message ids must be unique")

        protocol = self._protocol
        self._decisions = self._approvals = 0
        protocol.prepare(self._trace)
        self._approvals_fn = protocol.vector_approvals

        interner = NodeInterner(self._trace.nodes)
        index_of = interner.index_of
        self._num_nodes = num_nodes = len(interner)
        self._node_of = interner.nodes
        self._index_of = index_of
        # the contact history is recorded only for a protocol that reads
        # it; verdicts and contact hooks see None otherwise
        self._history = (OnlineContactHistory() if protocol.reads_history
                         else None)
        self._stats = stats = ResourceStats()

        # message interning, fastpath-style: message id -> dense slot, whose
        # bit 1 << slot stands for the message in every bitmask
        self._messages_by_id = {m.id: m for m in messages}
        self._slot_of = {m.id: i for i, m in enumerate(messages)}
        self._size_of = {
            m.id: self._constraints.effective_size(m) for m in messages}
        self._dest_of = {m.id: index_of(m.destination) for m in messages}
        # infinite buffers admit everything and never evict, so the only
        # observable buffer state is per-node occupancy and its peak: two
        # float lists updated with the same +=/-=/max sequence NodeBuffer
        # would apply, skipping the BufferEntry allocations entirely
        self._fastbuf = self._constraints.buffer_capacity is None
        sizes = set(self._size_of.values())
        self._flooding = (self._fastbuf and self._copy and len(sizes) <= 1
                          and self._tracer is None)
        self._flood_size = sizes.pop() if self._flooding and sizes else 0.0
        self._code_path = "flood" if self._flooding else "fastpath"

        # contact/carried containers keep the exact types (and therefore
        # mutation-order-dependent iteration order) of the DES engine.  The
        # flood never reads the carried sets (its order across messages is
        # free), so it keeps none.
        self._active_counts: Dict[int, int] = {}
        self._active_peers: List[set] = [set() for _ in range(num_nodes)]
        self._carried: List[set] = ([] if self._flooding
                                    else [set() for _ in range(num_nodes)])
        # per message slot, its hop column (None before the source admits
        # it and after it expires): hop count per holder, -1 where unheld
        self._unheld = array("i", [-1]) * num_nodes
        self._hops: List[Optional[array]] = [None] * len(messages)
        self._delivered: Dict[int, tuple] = {}
        # per node, the messages it is the destination of (the flood's
        # delivery screen)
        self._dest_bits = [0] * num_nodes
        for slot, m in enumerate(messages):
            self._dest_bits[self._dest_of[m.id]] |= 1 << slot
        if self._fastbuf:
            self._buffers = []
            self._buf_used = [0.0] * num_nodes
            self._buf_peak = [0.0] * num_nodes
        else:
            self._buffers = [
                NodeBuffer(capacity=self._constraints.buffer_capacity,
                           policy=self._constraints.drop_policy)
                for _ in range(num_nodes)
            ]
        self._admission_sequence = 0
        # the flat fast-state: per-node bitmasks over message indices
        self._carried_bits = [0] * num_nodes
        self._ever_bits = [0] * num_nodes
        self._stop_bits = 0   # delivered-and-stopped or expired messages
        self._launched_bits = 0

        tracer = self._tracer
        buffered = None
        if tracer is not None:
            from ..obs.tracing import BufferedTracer

            buffered = BufferedTracer(tracer)
            self._run_tracer = buffered
        else:
            self._run_tracer = None

        self._message_list = message_list = list(messages)
        timeline = self._build_timeline(messages)

        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.begin(engine="vector", algorithm=protocol.name)
        self._replay(timeline, message_list, telemetry)
        if telemetry is not None:
            telemetry.finish()
        if buffered is not None:
            # drain the probe buffer into the caller's tracer; closing the
            # caller's tracer remains the caller's responsibility
            buffered.flush()

        outcomes = delivery_outcomes(messages, self._delivered)
        if self._fastbuf:
            stats.peak_buffer_occupancy = max(self._buf_peak, default=0.0)
        else:
            stats.peak_buffer_occupancy = max(
                (buffer.peak_used for buffer in self._buffers), default=0.0)
        stats.forwarding_decisions = self._decisions
        stats.forwarding_approvals = self._approvals
        return ConstrainedSimulationResult(
            algorithm=protocol.name, trace_name=self._trace.name,
            outcomes=outcomes, copies_sent=stats.copies_sent,
            constraints=self._constraints, stats=stats)

    # ------------------------------------------------------------------
    # timeline construction
    # ------------------------------------------------------------------
    def _build_timeline(self, messages: Sequence[Message]):
        """The full event set as compact numpy columns, sorted once.

        Events are numbered in the exact order the DES engine pushes its
        initial load (per contact: start then end; then creations; then
        expiries) and sorted by ``(time, kind, sequence)`` — the same key
        the heap orders by — via one stable numpy lexsort on
        ``(time, kind)``: stability makes construction order the
        sequence tie-break, so the replay order is identical to the DES
        engine's pop order.

        Returns four parallel arrays *already permuted into replay order*:
        ``float64`` times, ``int8`` kinds and ``int32`` interned endpoints
        ``a`` and ``b`` (column ``a`` carries the message index of a
        creation/expiry event), 17 B per event.  There is no pair column:
        the replay loop packs a contact's canonical pair key
        ``a * num_nodes + b`` when it counts it, and walks the columns in
        :data:`_CHUNK`-event slices (:func:`_chunks`), so only one slice
        at a time exists as Python scalars.
        """
        starts, ends, a_labels, b_labels = self._trace.as_arrays()
        num_contacts = len(starts)
        node_array = np.asarray(self._node_of)
        if (num_contacts and node_array.dtype.kind in "iuf"
                and a_labels.dtype.kind in "iuf"):
            # numeric labels: intern both endpoint columns in two
            # vectorized binary searches over the sorted node table
            a_index = np.searchsorted(node_array, a_labels)
            b_index = np.searchsorted(node_array, b_labels)
        else:
            index_of = self._index_of
            a_index = np.fromiter(
                (index_of(label) for label in a_labels.tolist()),
                dtype=np.int64, count=num_contacts)
            b_index = np.fromiter(
                (index_of(label) for label in b_labels.tolist()),
                dtype=np.int64, count=num_contacts)
        expiring = [
            (i, expiry)
            for i, expiry in ((i, self._constraints.effective_expiry(m))
                              for i, m in enumerate(messages))
            if expiry is not None
        ]
        split = 2 * num_contacts
        base = split + len(messages)
        total = base + len(expiring)
        times = np.empty(total, dtype=np.float64)
        kinds = np.empty(total, dtype=np.int8)
        ev_a = np.empty(total, dtype=np.int32)
        ev_b = np.zeros(total, dtype=np.int32)
        times[0:split:2] = starts
        times[1:split:2] = np.maximum(ends, starts)
        kinds[0:split:2] = CONTACT_START
        kinds[1:split:2] = CONTACT_END
        for column, values in ((ev_a, a_index), (ev_b, b_index)):
            column[0:split:2] = values
            column[1:split:2] = values
        del a_index, b_index
        times[split:base] = [message.creation_time for message in messages]
        kinds[split:base] = CREATE
        ev_a[split:base] = np.arange(len(messages))
        times[base:] = [expiry for _, expiry in expiring]
        kinds[base:] = EXPIRE
        ev_a[base:] = [message_index for message_index, _ in expiring]
        # least-significant key first; lexsort is stable, so equal
        # (time, kind) keys keep construction (sequence) order
        order = np.lexsort((kinds, times))
        # permute one column at a time, releasing each unsorted column
        # before the next is copied: the transient is one column wide
        columns = [times, kinds, ev_a, ev_b]
        del times, kinds, ev_a, ev_b
        for position in range(len(columns)):
            columns[position] = columns[position][order]
        return tuple(columns)

    # ------------------------------------------------------------------
    # the replay loop and event handlers (mirroring repro.sim.engine)
    # ------------------------------------------------------------------
    def _replay(self, timeline, message_list, telemetry) -> None:
        """Replay the sorted timeline: the one dispatch loop of every
        native run (the module docstring lists what its locals select).

        Contact bookkeeping is inlined (no per-event method call, state
        containers bound to locals) so the millions of screened-out
        contact events of a saturated city-scale run cost a handful of
        interpreter ops each.  Hook and tracer calls sit where the DES
        engine's handlers make them: the history record, the
        ``on_contact_start`` hook and ``contact_start`` come before the
        pair count, ``contact_end`` and ``on_contact_end`` after it.  A
        contact hook is called only if the protocol's class overrides it.
        On the flood gate a contact's offer floods.
        """
        num_nodes = self._num_nodes
        node_of = self._node_of
        counts = self._active_counts
        counts_get = counts.get
        counts_pop = counts.pop
        active_peers = self._active_peers
        carried_bits = self._carried_bits
        ever_bits = self._ever_bits
        offer = self._offer_flood if self._flooding else self._offer
        on_create = self._on_create
        on_expire = self._on_expire
        history = self._history
        record = None if history is None else history.record
        protocol = self._protocol
        start_hook = end_hook = None
        if type(protocol).on_contact_start is not RoutingProtocol.on_contact_start:
            start_hook = protocol.on_contact_start
        if type(protocol).on_contact_end is not RoutingProtocol.on_contact_end:
            end_hook = protocol.on_contact_end
        tracer = self._run_tracer
        remaining = len(timeline[0])
        for events in _chunks(timeline):
            for time, kind, a, b in events:
                if kind == CONTACT_START:
                    if tracer is not None:
                        tracer.emit("contact_start", time,
                                    a=node_of[a], b=node_of[b])
                    if record is not None:
                        record(node_of[a], node_of[b], time)
                    if start_hook is not None:
                        start_hook(node_of[a], node_of[b], time, history)
                    # Contact stores its endpoints canonically ordered, so
                    # the same unordered pair always packs to the same key
                    pair = a * num_nodes + b
                    counts[pair] = counts_get(pair, 0) + 1
                    active_peers[a].add(b)
                    active_peers[b].add(a)
                    # both endpoints offer each other their carried
                    # messages; the second screen rereads the stop mask
                    # because the first direction may deliver (_offer
                    # documents why skipping is counter-neutral)
                    cand = carried_bits[a] & ~(ever_bits[b] | self._stop_bits)
                    if cand:
                        offer(a, b, time, cand)
                    cand = carried_bits[b] & ~(ever_bits[a] | self._stop_bits)
                    if cand:
                        offer(b, a, time, cand)
                elif kind == CONTACT_END:
                    pair = a * num_nodes + b
                    left = counts_get(pair, 0) - 1
                    if left <= 0:
                        counts_pop(pair, None)
                        active_peers[a].discard(b)
                        active_peers[b].discard(a)
                    else:
                        counts[pair] = left
                    if tracer is not None:
                        tracer.emit("contact_end", time,
                                    a=node_of[a], b=node_of[b])
                    if end_hook is not None:
                        end_hook(node_of[a], node_of[b], time, history)
                elif kind == CREATE:
                    on_create(time, message_list[a])
                else:  # EXPIRE
                    on_expire(time, message_list[a])
                if telemetry is not None:
                    remaining -= 1
                    if telemetry.event(_KIND_NAMES[kind], remaining):
                        telemetry.sample_buffers(
                            time,
                            sum(self._buf_used) if self._fastbuf
                            else sum(buffer.used for buffer in self._buffers))

    def _on_create(self, time, message: Message) -> None:
        tracer = self._run_tracer
        if tracer is not None:
            tracer.emit("create", time, msg=message.id, src=message.source,
                        dst=message.destination)
        self._protocol.on_message_created(message, time)
        source = self._index_of(message.source)
        if self._fastbuf:
            used = self._buf_used[source] + self._size_of[message.id]
            self._buf_used[source] = used
            if used > self._buf_peak[source]:
                self._buf_peak[source] = used
        else:
            entry = BufferEntry(message_id=message.id,
                                size=self._size_of[message.id],
                                receive_time=time,
                                sequence=self._next_admission())
            admitted, evicted = self._buffers[source].admit(entry)
            if not admitted:
                self._stats.source_rejections += 1
                if tracer is not None:
                    tracer.emit("drop", time, msg=message.id,
                                node=message.source, reason="source_rejected")
                return
        slot = self._slot_of[message.id]
        bit = 1 << slot
        column = self._hops[slot] = self._unheld[:]
        column[source] = 0
        self._carried_bits[source] |= bit
        self._ever_bits[source] |= bit
        self._launched_bits |= bit
        if self._flooding:
            self._flood(source, bit, time)
            return
        # carried-set mutations must keep the DES engine's exact order
        # (add before evicting victims): set iteration order downstream
        # depends on the mutation history, and _offer walks that order
        self._carried[source].add(message.id)
        if not self._fastbuf:
            self._drop_evicted(source, evicted, time)
        self._cascade(message, source, time)

    def _on_expire(self, time, message: Message) -> None:
        message_id = message.id
        slot = self._slot_of[message_id]
        bit = 1 << slot
        self._stop_bits |= bit
        column = self._hops[slot]
        self._hops[slot] = None
        holders = ([] if column is None else (
            np.frombuffer(column, dtype=np.intc) >= 0).nonzero()[0].tolist())
        if self._run_tracer is not None:
            self._run_tracer.emit("expire", time, msg=message_id,
                                  copies=len(holders))
        if holders:
            not_bit = ~bit
            size = self._size_of[message_id]
            for node in holders:
                if not self._flooding:
                    self._carried[node].discard(message_id)
                self._carried_bits[node] &= not_bit
                if self._fastbuf:
                    self._buf_used[node] -= size
                else:
                    self._buffers[node].remove(message_id)
            self._stats.expired_copies += len(holders)
        if message_id not in self._delivered and self._launched_bits & bit:
            self._stats.expired_messages += 1

    # ------------------------------------------------------------------
    # the exchange path
    # ------------------------------------------------------------------
    def _offer(self, carrier: int, peer: int, time, cand: int) -> None:
        """One direction of a contact's exchange, bitmask-screened.

        *cand* is ``carried[carrier] & ~(ever_held[peer] | stopped)``,
        computed (and found non-zero) by the caller.  The screen removes
        exactly the offers the DES engine's own pre-decision guards
        reject (no live copy at the carrier, peer already ever held the
        message, message stopped/expired), so skipping them changes
        neither the delivery stream nor the decision counters.  The
        candidate mask is a snapshot taken once per direction; batch
        soundness of that snapshot is argued in the
        ``RoutingProtocol.vector_approvals`` docstring.
        """
        slot_of = self._slot_of
        by_id = self._messages_by_id
        batch = [by_id[mid] for mid in list(self._carried[carrier])
                 if (cand >> slot_of[mid]) & 1]
        attempt = self._attempt
        node_of = self._node_of
        verdicts = self._approvals_fn(node_of[carrier], node_of[peer], batch,
                                      time, self._history)
        for message, approved in zip(batch, verdicts):
            attempt(message, carrier, peer, time, approved=approved)

    def _attempt(self, message: Message, carrier: int, peer: int, time,
                 cascade: bool = True,
                 approved: Optional[bool] = None) -> bool:
        """Attempt to move *message* from *carrier* to *peer* at *time*.

        Guard order mirrors :meth:`DesSimulator._attempt` minus the fault
        guards and the receive-time guard, none of which can fire here.
        The DES engine needs the latter because a delayed channel lets a
        reception outlive its contact; on the native path every reception
        happens at the current event time of a time-sorted replay, so a
        carrier never holds a copy received after *time* — and a hop
        column keeps only the hop count.

        With ``approved=None`` (the relay) the protocol judges the one
        message through ``should_forward``; otherwise *approved* is its
        verdict from the contact's ``vector_approvals`` batch.  Either
        way one decision is charged per non-destination offer and one
        approval per True verdict, keeping ``ResourceStats`` identical to
        a DES run.
        """
        message_id = message.id
        slot = self._slot_of[message_id]
        bit = 1 << slot
        if not (self._carried_bits[carrier] & bit):
            return False
        if self._stop_bits & bit:
            return False
        if self._ever_bits[peer] & bit:
            return False
        hops = self._hops[slot][carrier] + 1
        node_of = self._node_of
        if peer == self._dest_of[message_id]:
            # mirror the DES engine: delivery needs no decision and
            # triggers neither a cascade from the destination nor a
            # hand-off removal
            return self._receive(message, peer, time, hops, carrier)
        self._decisions += 1
        if approved is None:
            approved = self._protocol.should_forward(
                node_of[carrier], node_of[peer], message, time, self._history)
        if not approved:
            return False
        self._approvals += 1
        if not self._receive(message, peer, time, hops, carrier):
            return False
        self._protocol.on_forwarded(message, node_of[carrier], node_of[peer],
                                    time)
        if self._run_tracer is not None:
            self._run_tracer.emit("forward", time, msg=message_id,
                                  src=node_of[carrier], dst=node_of[peer],
                                  hops=hops)
        if not self._copy:
            self._drop_copy(carrier, message_id)
        if cascade:
            self._cascade(message, peer, time)
        return True

    def _cascade(self, message: Message, start_node: int, time) -> None:
        """Zero-time relay over active contacts, bit-screened per peer.

        The traversal (stack order, ``list(set)`` snapshot per node) is
        the DES engine's; the inline bit tests skip exactly the attempts
        its guards would reject without touching any counter.
        """
        bit = 1 << self._slot_of[message.id]
        ever_bits = self._ever_bits
        active_peers = self._active_peers
        attempt = self._attempt
        frontier = [start_node]
        while frontier:
            node = frontier.pop()
            if self._stop_bits & bit:
                # the message was delivered mid-cascade (stop mode): every
                # remaining attempt would be guard-rejected, count-free
                break
            if not (self._carried_bits[node] & bit):
                continue  # hand-off moved the copy on; nothing to offer
            for peer in list(active_peers[node]):
                if ever_bits[peer] & bit:
                    continue
                if attempt(message, node, peer, time, cascade=False):
                    frontier.append(peer)

    # ------------------------------------------------------------------
    # the message-parallel flood (see the module docstring for the gate)
    # ------------------------------------------------------------------
    def _offer_flood(self, carrier: int, peer: int, time, cand: int) -> None:
        """One direction of a contact on the flood gate: land the whole
        candidate batch, then flood once from *peer* with every landed
        message except those *peer* is the destination of (a delivery by
        the contact itself relays no further, as in :meth:`_attempt`)."""
        landed = self._land(carrier, peer, time, cand)
        landed &= ~self._dest_bits[peer]
        if landed:
            self._flood(peer, landed, time)

    def _flood(self, start: int, live: int, time) -> None:
        """Zero-time relay of every message in *live* from *start* at once.

        One DFS over ``(node, message mask)`` entries; restricted to any
        one message it is :meth:`_cascade`'s DFS for that message.  Under
        the gate a landed copy stays carried for the whole relay, so only
        the stop mask (reread per peer: a landing may deliver) narrows a
        popped entry.
        """
        active_peers = self._active_peers
        ever_bits = self._ever_bits
        land = self._land
        stack = [(start, live)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, live = pop()
            for peer in list(active_peers[node]):
                cand = live & ~(ever_bits[peer] | self._stop_bits)
                if cand:
                    landed = land(node, peer, time, cand)
                    if landed:
                        push((peer, landed))

    def _land(self, carrier: int, peer: int, time, cand: int) -> int:
        """Judge the screened batch *cand* from *carrier* to *peer* as one
        ``vector_approvals`` call and land what passes; returns the mask
        of landed messages.

        Messages destined for *peer* land without a decision (minimal
        progress); every other one is charged one decision, and one
        approval if its verdict is True, exactly as :meth:`_attempt`
        charges a batch verdict.  The bookkeeping is that of
        :meth:`_attempt` and :meth:`_receive` for infinite buffers and
        ``copy`` semantics, applied to the whole batch: with one effective
        size the float occupancy sum, and so its peak, does not depend on
        the order.
        """
        message_list = self._message_list
        hop_columns = self._hops
        landed = delivering = cand & self._dest_bits[peer]
        judged = cand ^ delivering
        if judged:
            slots, batch = [], []
            while judged:
                low = judged & -judged
                judged ^= low
                slot = low.bit_length() - 1
                slots.append(slot)
                batch.append(message_list[slot])
            node_of = self._node_of
            carrier_node, peer_node = node_of[carrier], node_of[peer]
            verdicts = self._approvals_fn(carrier_node, peer_node, batch,
                                          time, self._history)
            on_forwarded = self._protocol.on_forwarded
            approvals = 0
            for slot, message, approved in zip(slots, batch, verdicts):
                if approved:
                    approvals += 1
                    column = hop_columns[slot]
                    column[peer] = column[carrier] + 1
                    landed |= 1 << slot
                    on_forwarded(message, carrier_node, peer_node, time)
            self._decisions += len(batch)
            self._approvals += approvals
        if not landed:
            return 0
        self._ever_bits[peer] |= landed
        self._carried_bits[peer] |= landed
        count = landed.bit_count()
        self._stats.copies_sent += count
        used = self._buf_used[peer]
        size = self._flood_size
        for _ in range(count):
            used += size
        self._buf_used[peer] = used
        if used > self._buf_peak[peer]:
            self._buf_peak[peer] = used
        while delivering:
            low = delivering & -delivering
            delivering ^= low
            slot = low.bit_length() - 1
            message = message_list[slot]
            column = hop_columns[slot]
            hops = column[peer] = column[carrier] + 1
            if message.id not in self._delivered:
                self._delivered[message.id] = (time, hops)
                if self._stop_on_delivery:
                    self._stop_bits |= low
                self._protocol.on_delivered(message, time)
        return landed

    # ------------------------------------------------------------------
    # reception and bookkeeping (mirroring the DES engine)
    # ------------------------------------------------------------------
    def _receive(self, message: Message, peer: int, time, hops: int,
                 carrier: int) -> bool:
        stats = self._stats
        message_id = message.id
        is_destination = peer == self._dest_of[message_id]
        tracer = self._run_tracer
        if self._fastbuf:
            used = self._buf_used[peer] + self._size_of[message_id]
            self._buf_used[peer] = used
            if used > self._buf_peak[peer]:
                self._buf_peak[peer] = used
            admitted, evicted = True, None
        else:
            entry = BufferEntry(message_id=message_id,
                                size=self._size_of[message_id],
                                receive_time=time,
                                sequence=self._next_admission())
            admitted, evicted = self._buffers[peer].admit(entry)
            if not admitted and not is_destination:
                stats.buffer_rejections += 1
                if tracer is not None:
                    tracer.emit("drop", time, msg=message_id,
                                node=self._node_of[peer], reason="rejected")
                return False
        slot = self._slot_of[message_id]
        bit = 1 << slot
        self._ever_bits[peer] |= bit
        stats.copies_sent += 1
        if is_destination and message_id not in self._delivered:
            self._delivered[message_id] = (time, hops)
            if self._stop_on_delivery:
                self._stop_bits |= bit
            self._protocol.on_delivered(message, time)
            if tracer is not None:
                tracer.emit("deliver", time, msg=message_id,
                            node=self._node_of[peer], hops=hops,
                            delay=time - message.creation_time,
                            src=self._node_of[carrier])
        if admitted:
            self._hops[slot][peer] = hops
            self._carried[peer].add(message_id)
            self._carried_bits[peer] |= bit
            if evicted:
                self._drop_evicted(peer, evicted, time)
        return True

    def _drop_copy(self, node: int, message_id: int) -> None:
        slot = self._slot_of[message_id]
        self._hops[slot][node] = -1
        self._carried[node].discard(message_id)
        self._carried_bits[node] &= ~(1 << slot)
        if self._fastbuf:
            self._buf_used[node] -= self._size_of[message_id]
        else:
            self._buffers[node].remove(message_id)

    def _drop_evicted(self, node: int, evicted: List[BufferEntry],
                      time) -> None:
        if not evicted:
            return
        tracer = self._run_tracer
        for entry in evicted:
            slot = self._slot_of[entry.message_id]
            self._hops[slot][node] = -1
            self._carried[node].discard(entry.message_id)
            self._carried_bits[node] &= ~(1 << slot)
            if tracer is not None:
                tracer.emit("drop", time, msg=entry.message_id,
                            node=self._node_of[node], reason="evicted")
        self._stats.buffer_evictions += len(evicted)

    # ------------------------------------------------------------------
    def _next_admission(self) -> int:
        sequence = self._admission_sequence
        self._admission_sequence += 1
        return sequence

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<VectorSimulator {self._protocol.name!r} "
                f"{'delegated' if self._delegate else 'native'}>")
