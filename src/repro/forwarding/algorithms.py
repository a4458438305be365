"""The forwarding-protocol API and the six algorithms of Section 6.

Every forwarding strategy — the paper's six heuristics here and the
stateful zoo of :mod:`repro.routing.protocols` — implements
:class:`RoutingProtocol` (lifecycle in :mod:`repro.routing.base`): given
that a *carrier* holding a copy of a message is in contact with a *peer*,
``should_forward`` decides whether the peer receives a copy.  Delivery to the
destination itself is not an algorithm decision — every reasonable algorithm
delivers on contact with the destination (the paper's *minimal progress*
assumption) and the simulator enforces it.

The paper's six are per-contact tests that keep no per-node state and use
none of the lifecycle hooks, so all six judge a contact's candidates as one
``vector_approvals`` batch in the vector engine.  They span the paper's
design axes:

====================  ===========  =========  =====================
algorithm             destination  hop scope  knowledge
====================  ===========  =========  =====================
Epidemic              unaware      multi      none (flooding)
FRESH                 aware        single     recent history
Greedy                aware        single     complete past history
Greedy Online         unaware      single     complete past history
Greedy Total          unaware      single     past + future (oracle)
Dynamic Programming   aware        multi      past + future (oracle)
====================  ===========  =========  =====================
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence

from ..contacts import ContactTrace, NodeId
from .history import OnlineContactHistory
from .meed import MeedTable
from .messages import Message

__all__ = [
    "RoutingProtocol",
    "UtilityForwarding",
    "EpidemicForwarding",
    "FreshForwarding",
    "GreedyForwarding",
    "GreedyOnlineForwarding",
    "GreedyTotalForwarding",
    "DynamicProgrammingForwarding",
    "default_algorithms",
    "algorithm_names",
    "algorithm_by_name",
]


class RoutingProtocol(ABC):
    """Interface implemented by every forwarding strategy.

    The lifecycle (``prepare``, the hooks and ``should_forward``) is
    described in :mod:`repro.routing.base`; every engine calls it at the
    same points in the same event order.
    """

    #: Human-readable name used in result tables and the leaderboard.
    name: str = "abstract"

    #: Whether the protocol needs the full trace ahead of time.
    uses_future_knowledge: bool = False

    #: Whether the protocol keeps per-node state between decisions.
    stateful: bool = True

    #: Short description of the replication discipline for the zoo table
    #: ("flooding", "single-copy", "L copies", "probabilistic", "utility").
    replication: str = "flooding"

    #: What the protocol knows ("none", "history", "oracle", "learned").
    knowledge: str = "none"

    #: Whether the vector engine may judge a contact's candidates as one
    #: ``vector_approvals`` batch and skip the per-contact lifecycle hooks
    #: (``on_contact_start``/``end``), which must then be no-ops for the
    #: protocol.  On a large trace most contact events move no message, so
    #: this is where most of the vector engine's per-event win comes from.
    vector_fastpath: bool = False

    #: Whether the protocol's verdicts read the online contact history.  On
    #: the batched path the vector engine records the history only for such
    #: a protocol, and hands it to ``vector_approvals``; every other batched
    #: protocol gets ``None`` there.  Every other engine path records it.
    reads_history: bool = False

    vector_approvals: Optional[
        Callable[[NodeId, NodeId, Sequence[Message], float,
                  Optional[OnlineContactHistory]], List[bool]]
    ] = None
    """Optional batch twin of ``should_forward`` for the vector engine.

    ``vector_approvals(carrier, peer, messages, now, history)`` returns one
    verdict per offered message, evaluated against the protocol's
    *current* state, and must equal ``[should_forward(carrier, peer, m,
    now, history) for m in messages]``.  *history* is the run's
    :class:`OnlineContactHistory` when the protocol sets ``reads_history``
    and ``None`` otherwise, so a protocol that reads it without declaring
    so fails at its first batch.  The engine uses the method only when
    ``vector_fastpath`` is set, and only for candidates that already
    survived its bitmask screen (the carrier holds a live copy, the peer
    never held one).  It charges the same forwarding decisions and
    approvals either way, so the resource counters of a vector run match
    the DES engine's bit for bit.  ``None`` keeps the protocol on the
    scalar decision path.

    Batch evaluation is sound because judging one message never changes
    the verdict of another in the same batch: ``on_forwarded`` (where
    budgets are spent and tokens move) only touches the state of the
    message that actually moved, which appears exactly once per batch.  A
    protocol whose verdicts couple across messages must leave this
    ``None``.  The history changes only at contact starts, never inside a
    zero-time relay, so verdicts that read it meet the same contract.

    Batches are formed inside the zero-time relay too: the engine's
    message-parallel flood judges every message a relay node can pass to
    one peer as one batch, so the relays of different messages
    interleave.  Each message still sees its own calls in its own order,
    but ``should_forward``, ``on_forwarded`` and ``on_delivered`` for one
    message must not read or write another message's state.
    """

    def prepare(self, trace: ContactTrace) -> None:
        """Reset per-run state and precompute any oracle state.

        Called once before every run; subclasses that keep state must
        reset it here so that one instance can be run repeatedly.
        """

    # ------------------------------------------------------------------
    # lifecycle hooks (default: no-ops)
    # ------------------------------------------------------------------
    def on_message_created(self, message: Message, now: float) -> None:
        """*message* entered the network at ``message.source``."""

    def on_contact_start(self, a: NodeId, b: NodeId, now: float,
                         history: OnlineContactHistory) -> None:
        """A contact between *a* and *b* opened at *now*."""

    def on_contact_end(self, a: NodeId, b: NodeId, now: float,
                       history: OnlineContactHistory) -> None:
        """A contact between *a* and *b* closed at *now*."""

    def on_forwarded(self, message: Message, carrier: NodeId, peer: NodeId,
                     now: float) -> None:
        """A copy of *message* actually moved from *carrier* to *peer*."""

    def on_delivered(self, message: Message, now: float) -> None:
        """*message* reached its destination (first delivery only)."""

    # ------------------------------------------------------------------
    @abstractmethod
    def should_forward(
        self,
        carrier: NodeId,
        peer: NodeId,
        message: Message,
        now: float,
        history: OnlineContactHistory,
    ) -> bool:
        """Return True if *carrier* should hand a copy of *message* to *peer*."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class UtilityForwarding(RoutingProtocol):
    """Forward when the peer's utility for the destination is strictly higher.

    The concrete algorithms below only differ in their utility function; ties
    do not trigger a transfer (both nodes are equally good carriers), which
    in particular prevents two nodes with no information from ping-ponging
    copies.
    """

    stateful = False
    replication = "utility"
    knowledge = "history"
    vector_fastpath = True

    @abstractmethod
    def utility(
        self,
        node: NodeId,
        destination: NodeId,
        now: float,
        history: OnlineContactHistory,
    ) -> float:
        """Larger is better; ``-inf`` means "knows nothing useful"."""

    def should_forward(
        self,
        carrier: NodeId,
        peer: NodeId,
        message: Message,
        now: float,
        history: OnlineContactHistory,
    ) -> bool:
        destination = message.destination
        return (self.utility(peer, destination, now, history)
                > self.utility(carrier, destination, now, history))

    def vector_approvals(self, carrier, peer, messages, now, history):
        utility = self.utility
        return [utility(peer, m.destination, now, history)
                > utility(carrier, m.destination, now, history)
                for m in messages]


class EpidemicForwarding(RoutingProtocol):
    """Flooding [Vahdat & Becker]: hand a copy to every encountered node.

    Epidemic forwarding finds the optimal path whenever one exists, so it
    upper-bounds both success rate and delay for every other algorithm — the
    paper uses it as the reference throughout.  It consults neither the
    contact history nor any hook, so the vector engine runs it on the fast
    path.
    """

    name = "Epidemic"
    stateful = False
    vector_fastpath = True

    def should_forward(self, carrier, peer, message, now, history) -> bool:
        return True

    def vector_approvals(self, carrier, peer, messages, now, history):
        return [True] * len(messages)


class FreshForwarding(UtilityForwarding):
    """FRESH [Dubois-Ferriere, Grossglauser & Vetterli]:

    forward to the peer if it has met the destination more recently than the
    carrier has.  Nodes that never met the destination have utility ``-inf``.
    """

    name = "FRESH"
    reads_history = True

    def utility(self, node, destination, now, history) -> float:
        last = history.last_contact_time(node, destination)
        return -math.inf if last is None else last


class GreedyForwarding(UtilityForwarding):
    """Greedy (destination aware, complete past history):

    forward to the peer if it has met the destination more *times* since the
    start of the simulation than the carrier has.
    """

    name = "Greedy"
    reads_history = True

    def utility(self, node, destination, now, history) -> float:
        return float(history.contacts_between(node, destination))


class GreedyOnlineForwarding(UtilityForwarding):
    """Greedy Online (destination unaware, past history only):

    forward to the peer if it has had more total contacts (with anyone) since
    the start of the simulation than the carrier.
    """

    name = "Greedy Online"
    reads_history = True

    def utility(self, node, destination, now, history) -> float:
        return float(history.total_contacts(node))

    def vector_approvals(self, carrier, peer, messages, now, history):
        # destination unaware: one comparison judges the whole batch
        return [self.utility(peer, None, now, history)
                > self.utility(carrier, None, now, history)] * len(messages)


class GreedyTotalForwarding(UtilityForwarding):
    """Greedy Total (destination unaware, past and future knowledge):

    forward to the peer if it has more total contacts *over the whole trace*
    than the carrier.  This is the oracle version of Greedy Online and the
    algorithm that most directly implements "push the message up the
    contact-rate gradient".
    """

    name = "Greedy Total"
    uses_future_knowledge = True
    knowledge = "oracle"

    def __init__(self) -> None:
        self._totals: Dict[NodeId, int] = {}

    def prepare(self, trace: ContactTrace) -> None:
        self._totals = trace.contact_counts()

    def utility(self, node, destination, now, history) -> float:
        if not self._totals:
            raise RuntimeError("GreedyTotalForwarding.prepare() was not called")
        return float(self._totals.get(node, 0))

    # destination unaware too: one comparison judges the whole batch
    vector_approvals = GreedyOnlineForwarding.vector_approvals


class DynamicProgrammingForwarding(RoutingProtocol):
    """Dynamic Programming (Minimum Expected Delay, destination aware, oracle).

    Pairwise expected delays are computed from the full trace; the message is
    forwarded to a peer whose minimum expected delay to the destination
    (Dijkstra over the expected-delay graph) is strictly smaller than the
    carrier's.  This is the paper's adaptation of the MED/MEED algorithms of
    [9, 10].
    """

    name = "Dynamic Programming"
    uses_future_knowledge = True
    stateful = False
    replication = "utility"
    knowledge = "oracle"
    vector_fastpath = True

    def __init__(self) -> None:
        self._table: Optional[MeedTable] = None

    def prepare(self, trace: ContactTrace) -> None:
        self._table = MeedTable.from_trace(trace)

    @property
    def table(self) -> MeedTable:
        if self._table is None:
            raise RuntimeError("DynamicProgrammingForwarding.prepare() was not called")
        return self._table

    def should_forward(self, carrier, peer, message, now, history) -> bool:
        table = self.table
        destination = message.destination
        return table.distance(peer, destination) < table.distance(carrier, destination)

    def vector_approvals(self, carrier, peer, messages, now, history):
        distance = self.table.distance
        return [distance(peer, m.destination) < distance(carrier, m.destination)
                for m in messages]


def default_algorithms() -> List[RoutingProtocol]:
    """Fresh instances of the six algorithms compared in the paper."""
    return [
        EpidemicForwarding(),
        FreshForwarding(),
        GreedyForwarding(),
        GreedyTotalForwarding(),
        GreedyOnlineForwarding(),
        DynamicProgrammingForwarding(),
    ]


#: The six paper algorithms by their display name; the scenario registry and
#: CLI of :mod:`repro.sim` instantiate algorithms through this table, and
#:  — because instances are created per run — parallel runners can ship the
#: *name* to worker processes instead of pickling prepared oracle state.
_ALGORITHM_CLASSES = {
    cls.name: cls
    for cls in (
        EpidemicForwarding,
        FreshForwarding,
        GreedyForwarding,
        GreedyTotalForwarding,
        GreedyOnlineForwarding,
        DynamicProgrammingForwarding,
    )
}


def algorithm_names() -> List[str]:
    """The registered algorithm names, in the paper's comparison order."""
    return list(_ALGORITHM_CLASSES)


def algorithm_by_name(name: str) -> RoutingProtocol:
    """A fresh, unprepared instance of the named algorithm."""
    try:
        cls = _ALGORITHM_CLASSES[name]
    except KeyError:
        known = ", ".join(_ALGORITHM_CLASSES)
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None
    return cls()
