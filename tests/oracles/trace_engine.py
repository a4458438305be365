"""The trace-driven forwarding engine, kept as a test oracle.

This is the replay the paper's Section 6 study ran on before the study
moved to :class:`repro.sim.vector.VectorSimulator` (behind the public
:class:`repro.forwarding.ForwardingSimulator`).  It replays a contact
trace in time order with the paper's assumptions: infinite buffers,
bidirectional instantaneous exchanges, minimal progress (a carrier always
delivers to the destination it meets) and the zero-time relay cascade
over contacts that are active at the same instant.  Only the first
delivery of each message is recorded.

It stays independent of the DES and vector kernels on purpose: the
equivalence suites and the engine benchmarks compare those kernels with
it.  Node ids are interned to dense integers (the enumeration engine's
:class:`~repro.core.fastpath.NodeInterner`); each node keeps an index of
the message ids it carries, and ``ever_held`` is one int bitmask per
message.

Tests import it as ``from oracles.trace_engine import TraceEngine``
(pytest puts ``tests/`` on ``sys.path``); the benchmark scripts add
``tests/`` to ``sys.path`` themselves.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.contacts import ContactTrace
from repro.core.fastpath import NodeInterner
from repro.forwarding.algorithms import RoutingProtocol
from repro.forwarding.history import OnlineContactHistory
from repro.forwarding.messages import Message
from repro.forwarding.simulator import DeliveryOutcome, SimulationResult

__all__ = ["TraceEngine"]


# ----------------------------------------------------------------------
# event encoding: (time, priority, sequence, payload)
# priority orders simultaneous events: contact starts first (so zero-duration
# contacts are opened, exchanged over, and then closed rather than being
# closed before they open), then contact ends, then message creations (a
# message created the instant a contact ends does not see it as active,
# matching the half-open [start, end) contact semantics).
# ----------------------------------------------------------------------
_START, _END, _CREATE = 0, 1, 2

#: event-kind names for telemetry (the DES engine has its own richer set)
_KIND_NAMES = {_START: "contact_start", _END: "contact_end",
               _CREATE: "create"}


class _RunState:
    """Mutable per-run simulation state over interned node indices."""

    __slots__ = ("interner", "node_of", "active_counts", "active_peers",
                 "holdings", "carried", "ever_held", "delivered", "dest_index",
                 "copies_sent")

    def __init__(self, interner: NodeInterner, messages: Sequence[Message]) -> None:
        self.interner = interner
        self.node_of = interner.nodes
        num_nodes = len(interner)
        # reference counts for (possibly overlapping) contacts per pair
        self.active_counts: Dict[Tuple[int, int], int] = {}
        self.active_peers: List[Set[int]] = [set() for _ in range(num_nodes)]
        # holdings[message_id][node_index] = (receive_time, hop_count)
        self.holdings: Dict[int, Dict[int, Tuple[float, int]]] = {}
        # carried[node_index] = message ids the node currently holds
        self.carried: List[Set[int]] = [set() for _ in range(num_nodes)]
        # ever_held[message_id] = bitmask of node indices that carried the
        # message at some point; a node never re-receives such a message (in
        # hand-off mode this is what prevents ping-ponging within a contact).
        self.ever_held: Dict[int, int] = {}
        self.delivered: Dict[int, Tuple[float, int]] = {}
        self.copies_sent = 0
        index_of = interner.index_of
        self.dest_index: Dict[int, int] = {
            m.id: index_of(m.destination) for m in messages
        }


class TraceEngine:
    """Replay a trace under one forwarding algorithm.

    Parameters
    ----------
    trace:
        The contact trace to replay.
    algorithm:
        The forwarding strategy, a
        :class:`~repro.routing.RoutingProtocol` (one of the paper's six
        or a stateful zoo protocol).  ``prepare`` is called once per run
        with the full trace, then the lifecycle hooks (message creation,
        contact start/end, forwarded, delivered) fire in event order.
    copy_semantics:
        ``"copy"`` (default) — the carrier keeps its copy after forwarding,
        as assumed throughout the paper (infinite buffers, nodes hold
        messages forever).  ``"handoff"`` — single-copy forwarding where the
        carrier relinquishes the message, provided for cost-oriented
        extension experiments.
    stop_on_delivery:
        Stop propagating a message once it has been delivered.  Does not
        change success rate or delay.
    tracer:
        Optional structured-event probe (any object with
        ``emit(event, time, **fields)``; see :mod:`repro.obs.tracing`).
        ``None`` (the default) keeps the hot path allocation-free — every
        probe site is a single ``is not None`` check.
    telemetry:
        Optional :class:`repro.obs.EngineTelemetry` collecting event
        counts and wall-clock for the run.  ``None`` disables it.
    """

    def __init__(
        self,
        trace: ContactTrace,
        algorithm: RoutingProtocol,
        copy_semantics: str = "copy",
        stop_on_delivery: bool = True,
        tracer=None,
        telemetry=None,
    ) -> None:
        if copy_semantics not in ("copy", "handoff"):
            raise ValueError("copy_semantics must be 'copy' or 'handoff'")
        self._trace = trace
        self._protocol = algorithm
        self._copy = copy_semantics == "copy"
        self._stop_on_delivery = stop_on_delivery
        self._tracer = tracer
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    def run(self, messages: Sequence[Message]) -> SimulationResult:
        """Simulate the delivery of *messages* and return the outcomes."""
        for message in messages:
            if message.source not in self._trace.nodes:
                raise ValueError(f"message {message.id}: unknown source {message.source}")
            if message.destination not in self._trace.nodes:
                raise ValueError(
                    f"message {message.id}: unknown destination {message.destination}"
                )
        self._protocol.prepare(self._trace)

        interner = NodeInterner(self._trace.nodes)
        index_of = interner.index_of
        state = _RunState(interner, messages)
        history = OnlineContactHistory()
        by_id: Dict[int, Message] = {m.id: m for m in messages}

        events: List[Tuple[float, int, int, object]] = []
        sequence = 0
        for contact in self._trace:
            payload = (contact, index_of(contact.a), index_of(contact.b))
            events.append((contact.start, _START, sequence, payload))
            sequence += 1
            events.append((max(contact.end, contact.start), _END, sequence, payload))
            sequence += 1
        for message in messages:
            events.append((message.creation_time, _CREATE, sequence, message))
            sequence += 1
        events.sort(key=lambda e: (e[0], e[1], e[2]))

        protocol = self._protocol
        tracer = self._tracer
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.begin(engine="trace", algorithm=protocol.name)
        for time, kind, _, payload in events:
            if kind == _END:
                contact, a, b = payload  # type: ignore[misc]
                if tracer is not None:
                    tracer.emit("contact_end", time, a=contact.a, b=contact.b)
                self._close_contact(state, a, b)
                protocol.on_contact_end(contact.a, contact.b, time, history)
            elif kind == _START:
                contact, a, b = payload  # type: ignore[misc]
                if tracer is not None:
                    tracer.emit("contact_start", time, a=contact.a,
                                b=contact.b)
                history.record(contact.a, contact.b, time)
                protocol.on_contact_start(contact.a, contact.b, time, history)
                self._open_contact(state, a, b)
                self._exchange_on_contact(state, a, b, time, history, by_id)
            else:  # _CREATE
                message = payload  # type: ignore[assignment]
                if tracer is not None:
                    tracer.emit("create", time, msg=message.id,
                                src=message.source, dst=message.destination)
                protocol.on_message_created(message, time)
                source = index_of(message.source)
                state.holdings[message.id] = {source: (time, 0)}
                state.carried[source].add(message.id)
                state.ever_held[message.id] = 1 << source
                self._cascade(state, message, source, time, history)
            if telemetry is not None:
                telemetry.event(_KIND_NAMES[kind])
        if telemetry is not None:
            telemetry.finish()

        outcomes = []
        for message in messages:
            if message.id in state.delivered:
                delivery_time, hops = state.delivered[message.id]
                outcomes.append(DeliveryOutcome(message=message, delivered=True,
                                                delivery_time=delivery_time,
                                                hop_count=hops))
            else:
                outcomes.append(DeliveryOutcome(message=message, delivered=False,
                                                delivery_time=None, hop_count=None))
        return SimulationResult(algorithm=self._protocol.name,
                                trace_name=self._trace.name, outcomes=outcomes,
                                copies_sent=state.copies_sent)

    # ------------------------------------------------------------------
    @staticmethod
    def _open_contact(state: _RunState, a: int, b: int) -> None:
        pair = (a, b) if a <= b else (b, a)
        state.active_counts[pair] = state.active_counts.get(pair, 0) + 1
        state.active_peers[a].add(b)
        state.active_peers[b].add(a)

    @staticmethod
    def _close_contact(state: _RunState, a: int, b: int) -> None:
        pair = (a, b) if a <= b else (b, a)
        remaining = state.active_counts.get(pair, 0) - 1
        if remaining <= 0:
            state.active_counts.pop(pair, None)
            state.active_peers[a].discard(b)
            state.active_peers[b].discard(a)
        else:
            state.active_counts[pair] = remaining

    # ------------------------------------------------------------------
    def _exchange_on_contact(
        self,
        state: _RunState,
        a: int,
        b: int,
        time: float,
        history: OnlineContactHistory,
        by_id: Dict[int, Message],
    ) -> None:
        """Both endpoints of a new contact offer each other their messages."""
        for carrier, peer in ((a, b), (b, a)):
            for message_id in list(state.carried[carrier]):
                self._try_transfer(state, by_id[message_id], carrier, peer,
                                   time, history)

    def _cascade(
        self,
        state: _RunState,
        message: Message,
        start_node: int,
        time: float,
        history: OnlineContactHistory,
    ) -> None:
        """Propagate a freshly received message over currently active contacts."""
        frontier = [start_node]
        while frontier:
            node = frontier.pop()
            for peer in list(state.active_peers[node]):
                moved = self._try_transfer(state, message, node, peer, time,
                                           history, cascade=False)
                if moved:
                    frontier.append(peer)

    def _try_transfer(
        self,
        state: _RunState,
        message: Message,
        carrier: int,
        peer: int,
        time: float,
        history: OnlineContactHistory,
        cascade: bool = True,
    ) -> bool:
        """Attempt to move *message* from *carrier* to *peer* at *time*.

        Returns True if the peer newly received a copy (delivery included).
        """
        holders = state.holdings.get(message.id)
        if holders is None or carrier not in holders:
            return False
        if message.id in state.delivered and self._stop_on_delivery:
            return False
        if state.ever_held[message.id] >> peer & 1:
            return False
        receive_time, hops = holders[carrier]
        if time < receive_time:
            return False
        # Minimal progress: contact with the destination always delivers.
        if peer == state.dest_index[message.id]:
            holders[peer] = (time, hops + 1)
            state.carried[peer].add(message.id)
            state.ever_held[message.id] |= 1 << peer
            state.copies_sent += 1
            if message.id not in state.delivered:
                state.delivered[message.id] = (time, hops + 1)
                self._protocol.on_delivered(message, time)
                if self._tracer is not None:
                    self._tracer.emit(
                        "deliver", time, msg=message.id,
                        node=state.node_of[peer], hops=hops + 1,
                        delay=time - message.creation_time,
                        src=state.node_of[carrier])
            return True
        node_of = state.node_of
        if not self._protocol.should_forward(node_of[carrier], node_of[peer],
                                             message, time, history):
            return False
        holders[peer] = (time, hops + 1)
        state.carried[peer].add(message.id)
        state.ever_held[message.id] |= 1 << peer
        state.copies_sent += 1
        self._protocol.on_forwarded(message, node_of[carrier], node_of[peer], time)
        if self._tracer is not None:
            self._tracer.emit("forward", time, msg=message.id,
                              src=node_of[carrier], dst=node_of[peer],
                              hops=hops + 1)
        if not self._copy:
            holders.pop(carrier, None)
            state.carried[carrier].discard(message.id)
        if cascade:
            self._cascade(state, message, peer, time, history)
        return True
