"""Resource-constrained discrete-event forwarding engine.

The paper's Section 6 simulation replays contacts under idealized
assumptions: infinite buffers, instantaneous bidirectional exchanges, no
message expiry.  :class:`DesSimulator` is an event-driven engine (heap-based
queue, no simpy dependency) that relaxes each assumption independently via
:class:`ResourceConstraints`:

* **finite per-node buffers** with a drop policy (:mod:`repro.sim.buffers`);
* **bandwidth-limited contacts** — a transfer of ``size`` bytes over a link
  with ``bandwidth`` bytes/s occupies the link for ``size / bandwidth``
  seconds; transfers on one link serialize; a transfer that does not finish
  before the contact closes carries its partial progress over and resumes
  on the pair's next contact;
* **message TTL** — copies of an expired message are freed everywhere and no
  delivery can happen at or after the expiry instant;
* **channel faults** (:class:`repro.sim.faults.ChannelSpec`) — each transfer
  is lost with a seeded probability and retransmitted with capped
  exponential backoff while the contact lasts; successful receptions arrive
  after a propagation delay plus uniform jitter;
* **node churn** (:class:`repro.sim.faults.ChurnSpec`) — a seeded crash/
  reboot schedule: a crash wipes the node's buffer and truncates its open
  contacts (the protocol's ``on_contact_end`` hook fires early, so stateful
  protocols observe the loss), and a down node neither sends, receives nor
  sources messages until it reboots.

Equivalence guarantee
---------------------
With every constraint disabled (the default :data:`UNCONSTRAINED`), the
engine reproduces the trace-driven replay of Section 6 (kept as a test
oracle, ``tests/oracles/trace_engine.py``) *exactly*: the same event
encoding (contact starts < ends < creations at equal times, in trace/message
order), the same exchange order on contact start (both endpoints offer their
carried messages), the same zero-time relay cascade over active contacts,
and the same per-message structures (including iteration over the same
``set`` types), so delivery sets, first-delivery times, hop counts, tie
order and copy counts all match.  ``tests/test_sim_equivalence.py`` enforces
this on all four paper dataset stand-ins.

Semantics choices under constraints (documented, deterministic):

* A node that ever held a copy never receives it again — even if the copy
  was evicted (mirrors the trace simulator's ``ever_held`` relation and
  prevents buffer-drop ping-pong).  A node whose buffer *rejected* a copy
  may receive it later.
* Delivery is reception at the destination radio: it always succeeds, even
  when the destination's buffer cannot store a relaying copy.
* An in-flight (bandwidth-delayed) transfer completes even if the carrier
  evicted its copy meanwhile, unless the message expired or was already
  received by the peer — then the bytes were wasted (counted, dropped).
* Forwarding decisions are made when a transfer is scheduled, at the
  current contact history.

Fault semantics (documented, deterministic — all draws flow through
:func:`repro.synth.seeding.derive_rng` off the ``seed`` argument, labels
``"channel"`` and ``"churn"``, so serial, parallel and resumed runs make
byte-identical draws):

* A loss draw happens once per launched transfer, in event order.  A lost
  transfer still spends its bytes and link time; retransmission *n* waits
  ``min(retx_base * 2**n, retx_cap)`` seconds and is only scheduled while
  the contact is still open (and within ``retx_limit``).  Each
  retransmission re-evaluates the forwarding decision at the then-current
  history.
* Delayed receptions complete even if the contact closed meanwhile (the
  bytes were on the air), but are cancelled if the receiver is down, the
  message expired or was already delivered (in stop mode).
* A crash truncates every open contact of the node: the bookkeeping and the
  protocol's ``on_contact_end`` hook run at crash time and the trace's own
  later ``CONTACT_END`` for those contacts is suppressed.  A contact that
  starts while either endpoint is down is skipped entirely.  A node that
  lost its copy to a crash never re-receives that message (the
  ``ever_held`` relation, as with evictions).  A message created at a down
  source counts as a source rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Set, Tuple

from ..contacts import Contact, ContactTrace
from ..core.fastpath import NodeInterner
from ..forwarding.history import OnlineContactHistory
from ..forwarding.messages import Message
from ..forwarding.simulator import SimulationResult, check_endpoints, delivery_outcomes
from ..routing.base import RoutingProtocol
from ..scenario.base import ConstraintSpec, register_spec
from ..synth.seeding import derive_rng
from .buffers import DROP_OLDEST, DROP_POLICIES, BufferEntry, NodeBuffer
from .events import (
    CONTACT_END,
    CONTACT_START,
    CREATE,
    EXPIRE,
    NODE_DOWN,
    NODE_UP,
    RETRANSMIT,
    TRANSFER_DONE,
    EventQueue,
)
from .faults import ChannelSpec, ChurnSpec

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "ResourceConstraints",
    "UNCONSTRAINED",
    "ResourceStats",
    "ConstrainedSimulationResult",
    "DesSimulator",
]

#: :class:`ResourceConstraints` axes a sweep/experiment grid can vary.
SWEEPABLE_PARAMETERS = ("buffer_capacity", "bandwidth", "ttl", "message_size")

#: Human-readable telemetry labels for the event kinds of the main loop.
_KIND_NAMES = {
    CONTACT_START: "contact_start",
    CONTACT_END: "contact_end",
    CREATE: "create",
    TRANSFER_DONE: "transfer_done",
    RETRANSMIT: "retransmit",
    NODE_DOWN: "node_down",
    NODE_UP: "node_up",
    EXPIRE: "expire",
}


@register_spec
@dataclass(frozen=True)
class ResourceConstraints(ConstraintSpec):
    """Resource limits applied by :class:`DesSimulator`.

    Registered as the ``"resource"`` constraint-spec kind, so constraint
    sets round-trip through JSON scenario files (``to_dict``/``from_dict``
    come from :class:`repro.scenario.base.SpecBase`; a scenario dict may
    omit the ``kind`` since this is the default constraint spec).

    Every field defaults to "unlimited"; enable constraints independently.

    Parameters
    ----------
    buffer_capacity:
        Per-node buffer capacity in bytes (``None`` = infinite).
    bandwidth:
        Link bandwidth in bytes/second (``None`` = instantaneous transfers).
        Bytes transferable during one contact = bandwidth × contact duration.
    ttl:
        Default time-to-live in seconds applied to messages whose own
        ``ttl`` is ``None`` (``None`` = no expiry).  A message's explicit
        ``ttl`` always wins.
    message_size:
        When set, overrides every message's ``size`` (bytes) — convenient
        for sweeping load without regenerating workloads.
    drop_policy:
        Buffer eviction policy: ``"drop-oldest"`` (default),
        ``"drop-youngest"`` or ``"drop-largest"``.
    channel:
        Optional :class:`~repro.sim.faults.ChannelSpec` — per-contact loss
        probability, propagation delay and jitter, with retransmission
        backoff.  ``None`` (and a null spec) means a perfect channel.
    churn:
        Optional :class:`~repro.sim.faults.ChurnSpec` — a seeded node
        crash/reboot schedule.  ``None`` (and a null spec) means no churn.
    """

    kind: ClassVar[str] = "resource"

    buffer_capacity: Optional[float] = None
    bandwidth: Optional[float] = None
    ttl: Optional[float] = None
    message_size: Optional[float] = None
    drop_policy: str = DROP_OLDEST
    channel: Optional[ChannelSpec] = None
    churn: Optional[ChurnSpec] = None

    def __post_init__(self) -> None:
        if self.buffer_capacity is not None and self.buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive or None")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive or None")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive or None")
        if self.message_size is not None and self.message_size <= 0:
            raise ValueError("message_size must be positive or None")
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(f"unknown drop policy {self.drop_policy!r}; "
                             f"known: {', '.join(DROP_POLICIES)}")
        if self.channel is not None and not isinstance(self.channel,
                                                       ChannelSpec):
            raise ValueError(f"channel must be a ChannelSpec or None, "
                             f"got {self.channel!r}")
        if self.churn is not None and not isinstance(self.churn, ChurnSpec):
            raise ValueError(f"churn must be a ChurnSpec or None, "
                             f"got {self.churn!r}")

    @property
    def is_unconstrained(self) -> bool:
        """True when the engine degenerates to the idealized simulator."""
        return (self.buffer_capacity is None and self.bandwidth is None
                and self.ttl is None and self.active_channel is None
                and self.active_churn is None)

    @property
    def active_channel(self) -> Optional[ChannelSpec]:
        """The channel spec if it actually applies faults, else ``None``."""
        if self.channel is not None and not self.channel.is_null:
            return self.channel
        return None

    @property
    def active_churn(self) -> Optional[ChurnSpec]:
        """The churn spec if it actually applies faults, else ``None``."""
        if self.churn is not None and not self.churn.is_null:
            return self.churn
        return None

    def to_dict(self) -> Dict[str, object]:
        """Like :meth:`SpecBase.to_dict`, but omitting absent fault specs
        so pre-fault scenario JSON (and its golden fixtures) round-trips
        byte-identically."""
        payload = super().to_dict()
        if self.channel is None:
            payload.pop("channel", None)
        if self.churn is None:
            payload.pop("churn", None)
        return payload

    def effective_size(self, message: Message) -> float:
        return self.message_size if self.message_size is not None else message.size

    def effective_expiry(self, message: Message) -> Optional[float]:
        if message.ttl is not None:
            return message.creation_time + message.ttl
        if self.ttl is not None:
            return message.creation_time + self.ttl
        return None

    def with_overrides(self, **changes) -> "ResourceConstraints":
        """A copy with the given fields replaced (sweep convenience)."""
        return replace(self, **changes)


#: The idealized configuration: the DES engine equals the paper's model.
UNCONSTRAINED = ResourceConstraints()


@dataclass
class ResourceStats:
    """Resource-related counters of one :class:`DesSimulator` run."""

    copies_sent: int = 0
    bytes_sent: float = 0.0
    buffer_evictions: int = 0
    buffer_rejections: int = 0
    source_rejections: int = 0
    expired_messages: int = 0
    expired_copies: int = 0
    partial_transfers: int = 0
    resumed_transfers: int = 0
    cancelled_transfers: int = 0
    peak_buffer_occupancy: float = 0.0
    forwarding_decisions: int = 0
    forwarding_approvals: int = 0
    lost_transfers: int = 0
    retransmissions: int = 0
    node_crashes: int = 0
    churn_dropped_copies: int = 0
    truncated_contacts: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "copies_sent": self.copies_sent,
            "bytes_sent": self.bytes_sent,
            "buffer_evictions": self.buffer_evictions,
            "buffer_rejections": self.buffer_rejections,
            "source_rejections": self.source_rejections,
            "expired_messages": self.expired_messages,
            "expired_copies": self.expired_copies,
            "partial_transfers": self.partial_transfers,
            "resumed_transfers": self.resumed_transfers,
            "cancelled_transfers": self.cancelled_transfers,
            "peak_buffer_occupancy": self.peak_buffer_occupancy,
            "forwarding_decisions": self.forwarding_decisions,
            "forwarding_approvals": self.forwarding_approvals,
            "lost_transfers": self.lost_transfers,
            "retransmissions": self.retransmissions,
            "node_crashes": self.node_crashes,
            "churn_dropped_copies": self.churn_dropped_copies,
            "truncated_contacts": self.truncated_contacts,
        }


@dataclass
class ConstrainedSimulationResult(SimulationResult):
    """A :class:`SimulationResult` plus resource accounting.

    ``telemetry`` is an optional run-telemetry payload (the
    :meth:`repro.obs.EngineTelemetry.as_dict` of the producing run) the
    experiment worker attaches when telemetry collection is on.  It is
    diagnostic only: excluded from equality and from the persisted record
    encoding, so decoded store records still compare equal to fresh runs.
    """

    constraints: ResourceConstraints = UNCONSTRAINED
    stats: ResourceStats = field(default_factory=ResourceStats)
    telemetry: Optional[Dict[str, object]] = field(default=None, repr=False,
                                                   compare=False)

    def summary(self) -> Dict[str, object]:
        """The base summary extended with the resource counters."""
        merged = super().summary()
        merged.update(self.stats.as_dict())
        return merged


_Pair = Tuple[int, int]


class _DesState:
    """Mutable per-run DES state over interned node indices.

    The contact/holding structures are deliberately the *same types* the
    trace-driven oracle uses (lists of ``set``), so that in unconstrained
    mode every iteration order — and therefore the delivery stream — is
    identical.
    """

    __slots__ = ("interner", "node_of", "active_counts", "active_peers",
                 "active_until", "holdings", "carried", "ever_held",
                 "delivered", "dest_index", "buffers", "link_busy",
                 "progress", "in_flight", "expired", "admission_sequence",
                 "down", "open_payloads", "severed", "retx_failures",
                 "pending_retx")

    def __init__(self, interner: NodeInterner, messages: Sequence[Message],
                 constraints: ResourceConstraints) -> None:
        self.interner = interner
        self.node_of = interner.nodes
        num_nodes = len(interner)
        self.active_counts: Dict[_Pair, int] = {}
        self.active_peers: List[Set[int]] = [set() for _ in range(num_nodes)]
        # active_until[pair] = end of the latest currently open contact
        self.active_until: Dict[_Pair, float] = {}
        self.holdings: Dict[int, Dict[int, Tuple[float, int]]] = {}
        self.carried: List[Set[int]] = [set() for _ in range(num_nodes)]
        self.ever_held: Dict[int, int] = {}
        self.delivered: Dict[int, Tuple[float, int]] = {}
        self.buffers: List[NodeBuffer] = [
            NodeBuffer(capacity=constraints.buffer_capacity,
                       policy=constraints.drop_policy)
            for _ in range(num_nodes)
        ]
        # link_busy[pair] = time until which the pair's link is transferring
        self.link_busy: Dict[_Pair, float] = {}
        # progress[(message_id, carrier, peer)] = bytes sent in past contacts
        self.progress: Dict[Tuple[int, int, int], float] = {}
        self.in_flight: Set[Tuple[int, int, int]] = set()
        self.expired: Set[int] = set()
        self.admission_sequence = 0
        # churn: nodes currently crashed; open contact payloads (tracked
        # only when churn is active, keyed by payload identity so the
        # shared start/end payload tuple links the two events); payload ids
        # whose CONTACT_END must be skipped (truncated early or never
        # observed because an endpoint was down at the start)
        self.down: Set[int] = set()
        self.open_payloads: Dict[int, Tuple[Contact, int, int]] = {}
        self.severed: Set[int] = set()
        # channel: consecutive losses per transfer key (drives the backoff)
        # and transfer keys with a retransmission already scheduled
        self.retx_failures: Dict[Tuple[int, int, int], int] = {}
        self.pending_retx: Set[Tuple[int, int, int]] = set()
        index_of = interner.index_of
        self.dest_index: Dict[int, int] = {
            m.id: index_of(m.destination) for m in messages
        }

    def next_admission(self) -> int:
        sequence = self.admission_sequence
        self.admission_sequence += 1
        return sequence


class DesSimulator:
    """Event-driven replay of a trace under resource constraints.

    Parameters
    ----------
    trace:
        The contact trace to replay.
    algorithm:
        The forwarding strategy, a
        :class:`~repro.routing.RoutingProtocol`; its lifecycle hooks fire
        at the same points as in the vector kernel.
    constraints:
        The resource limits; defaults to :data:`UNCONSTRAINED`, in which
        case the run is delivery-stream-equivalent to
        :class:`~repro.forwarding.ForwardingSimulator`.
    copy_semantics, stop_on_delivery:
        As in :class:`~repro.forwarding.ForwardingSimulator`.
    seed:
        Master seed for the fault models (loss/jitter draws and the churn
        schedule derive their independent streams from it via
        :func:`~repro.synth.seeding.derive_rng`).  Irrelevant without
        active faults; ``None`` with faults means irreproducible draws.
    tracer:
        Optional structured-event probe (anything with
        ``emit(event, time, **fields)``, e.g. a
        :class:`repro.obs.RecordingTracer`).  ``None`` (the default)
        disables tracing entirely — every probe site is a single
        ``is not None`` check, and the simulated behaviour never depends
        on the tracer.
    telemetry:
        Optional :class:`repro.obs.EngineTelemetry` collecting event
        counters and buffer-occupancy samples for ``metrics.json``.
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
        self._channel = constraints.active_channel
        self._churn = constraints.active_churn
        # run-scoped fields, rebound by run()
        self._state: Optional[_DesState] = None
        self._history = OnlineContactHistory()
        self._queue = EventQueue()
        self._stats = ResourceStats()
        self._messages_by_id: Dict[int, Message] = {}
        self._channel_rng = None

    @property
    def constraints(self) -> ResourceConstraints:
        return self._constraints

    # ------------------------------------------------------------------
    def run(self, messages: Sequence[Message]) -> ConstrainedSimulationResult:
        """Simulate the delivery of *messages* under the constraints."""
        check_endpoints(self._trace, messages)
        self._decisions = self._approvals = 0
        self._protocol.prepare(self._trace)

        interner = NodeInterner(self._trace.nodes)
        index_of = interner.index_of
        state = self._state = _DesState(interner, messages, self._constraints)
        self._messages_by_id = {m.id: m for m in messages}
        self._history = OnlineContactHistory()
        self._stats = ResourceStats()
        queue = self._queue = EventQueue()

        # Initial events, encoded exactly as the trace-driven oracle
        # encodes them (same kinds-relative order, same sequence assignment)
        # so unconstrained runs sort — and therefore replay — identically.
        initial = []
        for contact in self._trace:
            payload = (contact, index_of(contact.a), index_of(contact.b))
            initial.append((contact.start, CONTACT_START,
                            queue.next_sequence(), payload))
            initial.append((max(contact.end, contact.start), CONTACT_END,
                            queue.next_sequence(), payload))
        for message in messages:
            initial.append((message.creation_time, CREATE,
                            queue.next_sequence(), message))
        for message in messages:
            expiry = self._constraints.effective_expiry(message)
            if expiry is not None:
                initial.append((expiry, EXPIRE, queue.next_sequence(), message))
        # fault events come after the baseline load so that without faults
        # the sequence numbering — and hence the event stream — is
        # unchanged; the kind priorities place them correctly regardless
        self._channel_rng = (derive_rng(self._seed, "channel")
                             if self._channel is not None else None)
        if self._churn is not None:
            schedule = self._churn.schedule(self._trace.nodes,
                                            self._trace.duration, self._seed)
            for label, windows in schedule.items():
                node = index_of(label)
                for down, up in windows:
                    initial.append((down, NODE_DOWN,
                                    queue.next_sequence(), node))
                    initial.append((up, NODE_UP, queue.next_sequence(), node))
        queue.extend_sorted(initial)

        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.begin(engine="des", algorithm=self._protocol.name)
        buffers = state.buffers
        while queue:
            time, kind, _, payload = queue.pop()
            if kind == CONTACT_START:
                self._on_contact_start(time, payload)
            elif kind == CONTACT_END:
                self._on_contact_end(time, payload)
            elif kind == CREATE:
                self._on_create(time, payload)
            elif kind == TRANSFER_DONE:
                self._on_transfer_done(time, payload)
            elif kind == RETRANSMIT:
                self._on_retransmit(time, payload)
            elif kind == NODE_DOWN:
                self._on_node_down(time, payload)
            elif kind == NODE_UP:
                self._on_node_up(time, payload)
            else:  # EXPIRE
                self._on_expire(time, payload)
            if telemetry is not None and telemetry.event(_KIND_NAMES[kind],
                                                         len(queue)):
                telemetry.sample_buffers(
                    time, sum(buffer.used for buffer in buffers))
        if telemetry is not None:
            telemetry.finish()

        outcomes = delivery_outcomes(messages, state.delivered)
        stats = self._stats
        stats.peak_buffer_occupancy = max(
            (buffer.peak_used for buffer in state.buffers), default=0.0)
        stats.forwarding_decisions = self._decisions
        stats.forwarding_approvals = self._approvals
        self._state = None
        return ConstrainedSimulationResult(
            algorithm=self._protocol.name, trace_name=self._trace.name,
            outcomes=outcomes, copies_sent=stats.copies_sent,
            constraints=self._constraints, stats=stats)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_contact_start(self, time: float,
                          payload: Tuple[Contact, int, int]) -> None:
        state = self._state
        contact, a, b = payload
        if state.down and (a in state.down or b in state.down):
            # a contact is only ever observed from its start: with an
            # endpoint down, neither the protocols nor the history see it,
            # and its CONTACT_END is skipped via the severed mark
            state.severed.add(id(payload))
            self._stats.truncated_contacts += 1
            return
        if self._churn is not None:
            state.open_payloads[id(payload)] = payload
        if self._tracer is not None:
            self._tracer.emit("contact_start", time, a=contact.a, b=contact.b)
        self._history.record(contact.a, contact.b, time)
        self._protocol.on_contact_start(contact.a, contact.b, time,
                                        self._history)
        pair = (a, b) if a <= b else (b, a)
        state.active_counts[pair] = state.active_counts.get(pair, 0) + 1
        state.active_peers[a].add(b)
        state.active_peers[b].add(a)
        until = max(contact.end, contact.start)
        existing = state.active_until.get(pair)
        if existing is None or until > existing:
            state.active_until[pair] = until
        # both endpoints offer each other their carried messages
        by_id = self._messages_by_id
        for carrier, peer in ((a, b), (b, a)):
            for message_id in list(state.carried[carrier]):
                self._attempt(by_id[message_id], carrier, peer, time)

    def _on_contact_end(self, time: float,
                        payload: Tuple[Contact, int, int]) -> None:
        state = self._state
        if state.severed and id(payload) in state.severed:
            # truncated at a crash (bookkeeping and the protocol hook fired
            # then) or never observed (an endpoint was down at the start)
            state.severed.discard(id(payload))
            return
        if self._churn is not None:
            state.open_payloads.pop(id(payload), None)
        contact, a, b = payload
        pair = (a, b) if a <= b else (b, a)
        remaining = state.active_counts.get(pair, 0) - 1
        if remaining <= 0:
            state.active_counts.pop(pair, None)
            state.active_peers[a].discard(b)
            state.active_peers[b].discard(a)
            state.active_until.pop(pair, None)
        else:
            state.active_counts[pair] = remaining
        if self._tracer is not None:
            self._tracer.emit("contact_end", time, a=contact.a, b=contact.b)
        self._protocol.on_contact_end(contact.a, contact.b, time,
                                      self._history)

    def _on_create(self, time: float, message: Message) -> None:
        state = self._state
        tracer = self._tracer
        if tracer is not None:
            tracer.emit("create", time, msg=message.id, src=message.source,
                        dst=message.destination)
        source_index = state.interner.index_of(message.source)
        if state.down and source_index in state.down:
            # a down source never emits the message — it counts as a
            # source rejection, like a full source buffer
            self._stats.source_rejections += 1
            if tracer is not None:
                tracer.emit("drop", time, msg=message.id, node=message.source,
                            reason="source_rejected")
            return
        self._protocol.on_message_created(message, time)
        source = source_index
        entry = BufferEntry(message_id=message.id,
                            size=self._constraints.effective_size(message),
                            receive_time=time, sequence=state.next_admission())
        admitted, evicted = state.buffers[source].admit(entry)
        if not admitted:
            self._stats.source_rejections += 1
            if tracer is not None:
                tracer.emit("drop", time, msg=message.id, node=message.source,
                            reason="source_rejected")
            return
        state.holdings[message.id] = {source: (time, 0)}
        state.carried[source].add(message.id)
        state.ever_held[message.id] = 1 << source
        self._drop_evicted(source, evicted, time)
        self._cascade(message, source, time)

    def _on_expire(self, time: float, message: Message) -> None:
        state = self._state
        message_id = message.id
        state.expired.add(message_id)
        holders = state.holdings.pop(message_id, None)
        if self._tracer is not None:
            self._tracer.emit("expire", time, msg=message_id,
                              copies=len(holders) if holders else 0)
        if holders:
            for node in holders:
                state.carried[node].discard(message_id)
                state.buffers[node].remove(message_id)
            self._stats.expired_copies += len(holders)
        # a message rejected at its source buffer never existed — it counts
        # as a source rejection, not additionally as an expiry
        if message_id not in state.delivered and message_id in state.ever_held:
            self._stats.expired_messages += 1

    def _on_node_down(self, time: float, node: int) -> None:
        state = self._state
        tracer = self._tracer
        state.down.add(node)
        self._stats.node_crashes += 1
        if tracer is not None:
            tracer.emit("crash", time, node=state.node_of[node])
        # truncate every open contact touching the node: the pair
        # bookkeeping and the protocol's contact-end hook run now, and the
        # trace's own CONTACT_END for these payloads is suppressed
        for payload_id, payload in list(state.open_payloads.items()):
            contact, a, b = payload
            if a != node and b != node:
                continue
            del state.open_payloads[payload_id]
            state.severed.add(payload_id)
            self._stats.truncated_contacts += 1
            pair = (a, b) if a <= b else (b, a)
            remaining = state.active_counts.get(pair, 0) - 1
            if remaining <= 0:
                state.active_counts.pop(pair, None)
                state.active_peers[a].discard(b)
                state.active_peers[b].discard(a)
                state.active_until.pop(pair, None)
            else:
                state.active_counts[pair] = remaining
            if tracer is not None:
                tracer.emit("contact_end", time, a=contact.a, b=contact.b,
                            truncated=True)
            self._protocol.on_contact_end(contact.a, contact.b, time,
                                          self._history)
        # the crash wipes the node's buffer: every carried copy is lost
        for message_id in list(state.carried[node]):
            self._drop_copy(node, message_id)
            self._stats.churn_dropped_copies += 1
            if tracer is not None:
                tracer.emit("drop", time, msg=message_id,
                            node=state.node_of[node], reason="churn")

    def _on_node_up(self, time: float, node: int) -> None:
        # the node rejoins empty; contacts that started during the outage
        # stay unobserved for their remainder (a contact is only ever
        # entered at its start event)
        self._state.down.discard(node)
        if self._tracer is not None:
            self._tracer.emit("reboot", time, node=self._state.node_of[node])

    def _on_retransmit(self, time: float,
                       payload: Tuple[Message, int, int]) -> None:
        """A lost transfer's backoff expired: try again, if still sane."""
        message, carrier, peer = payload
        state = self._state
        state.pending_retx.discard((message.id, carrier, peer))
        # _attempt re-checks every guard (copy still held, contact still
        # open, endpoints up, not delivered/expired) and re-evaluates the
        # forwarding decision at the current history
        self._attempt(message, carrier, peer, time)

    def _on_transfer_done(
        self, time: float,
        payload: Tuple[Message, int, int, int],
    ) -> None:
        """A bandwidth-delayed transfer finished moving its last byte."""
        state = self._state
        message, carrier, peer, hops = payload
        key = (message.id, carrier, peer)
        state.in_flight.discard(key)
        state.progress.pop(key, None)
        state.retx_failures.pop(key, None)
        # The bytes are already on the air when the carrier evicts its copy,
        # so eviction does not cancel the transfer; expiry, a completed
        # delivery (in stop mode), a duplicate reception and a crashed
        # receiver do.
        if (message.id in state.expired
                or (message.id in state.delivered and self._stop_on_delivery)
                or state.ever_held.get(message.id, 0) >> peer & 1
                or peer in state.down):
            self._stats.cancelled_transfers += 1
            if self._tracer is not None:
                self._tracer.emit("drop", time, msg=message.id,
                                  node=state.node_of[peer], reason="cancelled")
            return
        received = self._receive(message, peer, time, hops, carrier)
        if not received:
            return
        node_of = state.node_of
        if peer != state.dest_index[message.id]:
            self._protocol.on_forwarded(message, node_of[carrier],
                                        node_of[peer], time)
            if self._tracer is not None:
                self._tracer.emit("forward", time, msg=message.id,
                                  src=node_of[carrier], dst=node_of[peer],
                                  hops=hops)
            # mirror the instantaneous path: delivery at the destination
            # neither costs the carrier its copy (hand-off) nor cascades
            if not self._copy:
                self._drop_copy(carrier, message.id)
            self._cascade(message, peer, time)

    # ------------------------------------------------------------------
    # transfer machinery
    # ------------------------------------------------------------------
    def _cascade(self, message: Message, start_node: int, time: float) -> None:
        """Zero-time relay over currently active contacts (mirrors the
        trace-driven oracle's cascade exactly)."""
        state = self._state
        frontier = [start_node]
        while frontier:
            node = frontier.pop()
            for peer in list(state.active_peers[node]):
                if self._attempt(message, node, peer, time, cascade=False):
                    frontier.append(peer)

    def _attempt(self, message: Message, carrier: int, peer: int, time: float,
                 cascade: bool = True) -> bool:
        """Attempt to move *message* from *carrier* to *peer* at *time*.

        Returns True if the peer received a copy instantly (delivery
        included) — a scheduled, bandwidth-delayed transfer returns False
        because the peer holds nothing yet.  Guard order mirrors the
        trace-driven oracle's ``_try_transfer``.
        """
        state = self._state
        message_id = message.id
        holders = state.holdings.get(message_id)
        if holders is None or carrier not in holders:
            return False
        if state.down and (carrier in state.down or peer in state.down):
            return False
        if message_id in state.delivered and self._stop_on_delivery:
            return False
        if state.ever_held[message_id] >> peer & 1:
            return False
        receive_time, hops = holders[carrier]
        if time < receive_time:
            return False
        is_destination = peer == state.dest_index[message_id]
        if not is_destination:
            self._decisions += 1
            if not self._protocol.should_forward(
                    state.node_of[carrier], state.node_of[peer],
                    message, time, self._history):
                return False
            self._approvals += 1
        if self._constraints.bandwidth is not None or self._channel is not None:
            self._schedule_transfer(message, carrier, peer, time, hops + 1)
            return False
        # instantaneous transfer
        received = self._receive(message, peer, time, hops + 1, carrier)
        if not received:
            return False
        if is_destination:
            # mirror the trace simulator: delivery neither triggers a
            # cascade from the destination nor a hand-off removal
            return True
        self._protocol.on_forwarded(message, state.node_of[carrier],
                                    state.node_of[peer], time)
        if self._tracer is not None:
            self._tracer.emit("forward", time, msg=message_id,
                              src=state.node_of[carrier],
                              dst=state.node_of[peer], hops=hops + 1)
        if not self._copy:
            self._drop_copy(carrier, message_id)
        if cascade:
            self._cascade(message, peer, time)
        return True

    def _schedule_transfer(self, message: Message, carrier: int, peer: int,
                           time: float, hops: int) -> None:
        """Queue the transfer on the pair's (possibly faulty) link."""
        state = self._state
        stats = self._stats
        key = (message.id, carrier, peer)
        if key in state.in_flight or key in state.pending_retx:
            return
        if not self._copy and any(
                flight[0] == message.id and flight[1] == carrier
                for flight in state.in_flight):
            # hand-off: the carrier's single copy is already committed to an
            # in-flight transfer; offering it to a second peer would fork it
            return
        pair = (carrier, peer) if carrier <= peer else (peer, carrier)
        contact_end = state.active_until.get(pair)
        if contact_end is None:
            return
        rate = self._constraints.bandwidth
        if rate is None:
            # channel faults without a bandwidth model: the link itself is
            # instantaneous (no serialization, no partial progress), only
            # loss and propagation delay apply
            self._launch(message, carrier, peer, time, hops,
                         self._constraints.effective_size(message),
                         time, contact_end)
            return
        start = max(time, state.link_busy.get(pair, time))
        if start >= contact_end:
            return  # no link capacity left in this contact
        already_sent = state.progress.get(key, 0.0)
        if already_sent > 0.0:
            stats.resumed_transfers += 1
        remaining = max(self._constraints.effective_size(message) - already_sent,
                        0.0)
        completion = start + remaining / rate
        if completion <= contact_end:
            state.link_busy[pair] = completion
            self._launch(message, carrier, peer, time, hops, remaining,
                         completion, contact_end)
        else:
            sent_now = rate * (contact_end - start)
            state.progress[key] = already_sent + sent_now
            state.link_busy[pair] = contact_end
            stats.bytes_sent += sent_now
            stats.partial_transfers += 1

    def _launch(self, message: Message, carrier: int, peer: int, time: float,
                hops: int, size: float, completion: float,
                contact_end: float) -> None:
        """Put *size* bytes on the air; the channel decides their fate.

        Without a channel spec this is the historical success path: the
        reception fires at *completion*.  With one, the transfer is lost
        with probability ``loss`` — the bytes and link time are spent
        either way — and a lost transfer schedules a retransmission after
        a capped exponential backoff, strictly within the contact.
        """
        state = self._state
        stats = self._stats
        key = (message.id, carrier, peer)
        channel = self._channel
        stats.bytes_sent += size
        if channel is not None and channel.loss > 0.0 \
                and self._channel_rng.random() < channel.loss:
            stats.lost_transfers += 1
            if self._tracer is not None:
                self._tracer.emit("loss", time, msg=message.id,
                                  src=state.node_of[carrier],
                                  dst=state.node_of[peer])
            state.progress.pop(key, None)  # the lost bytes resend in full
            failures = state.retx_failures.get(key, 0)
            retry_at = completion + channel.backoff(failures)
            if (channel.retx_limit is None or failures < channel.retx_limit) \
                    and retry_at < contact_end:
                state.retx_failures[key] = failures + 1
                state.pending_retx.add(key)
                stats.retransmissions += 1
                if self._tracer is not None:
                    self._tracer.emit("retransmit", time, msg=message.id,
                                      src=state.node_of[carrier],
                                      dst=state.node_of[peer], at=retry_at)
                self._queue.push(retry_at, RETRANSMIT, (message, carrier, peer))
            else:
                # give up for this contact; a fresh offer (next contact
                # start, or a later cascade) restarts the backoff ladder
                state.retx_failures.pop(key, None)
            return
        state.in_flight.add(key)
        arrival = completion
        if channel is not None:
            arrival += channel.delay
            if channel.jitter > 0.0:
                arrival += channel.jitter * self._channel_rng.random()
        self._queue.push(arrival, TRANSFER_DONE, (message, carrier, peer, hops))

    def _receive(self, message: Message, peer: int, time: float,
                 hops: int, carrier: int) -> bool:
        """Hand a copy from *carrier* to *peer*; True if it was received.

        Delivery at the destination always succeeds; a relaying copy is
        stored only if the buffer admits it.
        """
        state = self._state
        stats = self._stats
        message_id = message.id
        is_destination = peer == state.dest_index[message_id]
        entry = BufferEntry(message_id=message_id,
                            size=self._constraints.effective_size(message),
                            receive_time=time, sequence=state.next_admission())
        admitted, evicted = state.buffers[peer].admit(entry)
        if not admitted and not is_destination:
            stats.buffer_rejections += 1
            if self._tracer is not None:
                self._tracer.emit("drop", time, msg=message_id,
                                  node=state.node_of[peer], reason="rejected")
            return False
        state.ever_held[message_id] |= 1 << peer
        stats.copies_sent += 1
        if is_destination and message_id not in state.delivered:
            state.delivered[message_id] = (time, hops)
            self._protocol.on_delivered(message, time)
            if self._tracer is not None:
                self._tracer.emit("deliver", time, msg=message_id,
                                  node=state.node_of[peer], hops=hops,
                                  delay=time - message.creation_time,
                                  src=state.node_of[carrier])
        if admitted:
            holders = state.holdings.get(message_id)
            if holders is not None:
                holders[peer] = (time, hops)
            else:  # defensive: holdings exist whenever copies circulate
                state.holdings[message_id] = {peer: (time, hops)}
            state.carried[peer].add(message_id)
            self._drop_evicted(peer, evicted, time)
        return True

    # ------------------------------------------------------------------
    def _drop_copy(self, node: int, message_id: int) -> None:
        """Remove one node's copy (hand-off semantics or eviction)."""
        state = self._state
        holders = state.holdings.get(message_id)
        if holders is not None:
            holders.pop(node, None)
        state.carried[node].discard(message_id)
        state.buffers[node].remove(message_id)

    def _drop_evicted(self, node: int, evicted: List[BufferEntry],
                      time: float) -> None:
        """Unregister copies the node's buffer just evicted."""
        if not evicted:
            return
        state = self._state
        tracer = self._tracer
        for entry in evicted:
            holders = state.holdings.get(entry.message_id)
            if holders is not None:
                holders.pop(node, None)
            state.carried[node].discard(entry.message_id)
            if tracer is not None:
                tracer.emit("drop", time, msg=entry.message_id,
                            node=state.node_of[node], reason="evicted")
        self._stats.buffer_evictions += len(evicted)
