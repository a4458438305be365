"""The stateful protocol zoo.

Six protocols from the DTN literature the paper predates, all expressed
against the :class:`~repro.routing.base.RoutingProtocol` lifecycle:

====================== =========== ============= ==========================
protocol               state       replication   reference
====================== =========== ============= ==========================
Direct Delivery        none        single-copy   Grossglauser & Tse
First Contact          token owner single-copy   Jain, Fall & Patra
Binary Spray-and-Wait  copy budget L copies      Spyropoulos et al.
Source Spray-and-Wait  copy budget L copies      Spyropoulos et al.
PRoPHET                P(a,b)      utility       Lindgren, Doria & Schelén
Hypergossip            hash gate   probabilistic Drabkin et al. / PONS
====================== =========== ============= ==========================

Every protocol is deterministic given the event order (Hypergossip draws
its coin from a keyed hash, not a live RNG), so runs are reproducible,
parallel-safe and identical across both engines.

Delivery to the destination is the engines' minimal-progress rule: a
protocol is never asked whether to deliver, and delivery spends no
replication budget.  The single-copy and spray protocols track logical
copy *ownership* themselves, which keeps them correct under the engines'
default keep-a-copy semantics: stale holders simply refuse to forward.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..contacts import ContactTrace, NodeId
from ..forwarding.messages import Message
from .base import RoutingProtocol

__all__ = [
    "DirectDeliveryProtocol",
    "FirstContactProtocol",
    "BinarySprayAndWaitProtocol",
    "SourceSprayAndWaitProtocol",
    "ProphetProtocol",
    "HypergossipProtocol",
]


class DirectDeliveryProtocol(RoutingProtocol):
    """Hold the message until the source meets the destination itself.

    The cheapest possible protocol (exactly one copy, zero transfers) and
    the delay/success lower bound every replication scheme is measured
    against.
    """

    name = "Direct Delivery"
    stateful = False
    replication = "single-copy"
    knowledge = "none"

    def vector_approvals(self, carrier, peer, messages, now, history):
        # minimal progress already covers the destination
        return [False] * len(messages)


class FirstContactProtocol(RoutingProtocol):
    """Single-copy relay: the token moves to the first *new* peer met.

    The current owner hands the (logical) single copy to the first
    encountered node that has not already carried the message; previous
    carriers keep a dead copy they will never offer again.  This is the
    classic first-contact random-walk forwarding of DTN routing.
    """

    name = "First Contact"
    replication = "single-copy"
    knowledge = "none"

    def __init__(self) -> None:
        self._owner: Dict[int, NodeId] = {}

    def prepare(self, trace: ContactTrace) -> None:
        self._owner = {}

    def on_message_created(self, message: Message, now: float) -> None:
        self._owner[message.id] = message.source

    def on_forwarded(self, message, carrier, peer, now) -> None:
        if self._owner.get(message.id) == carrier:
            self._owner[message.id] = peer

    def vector_approvals(self, carrier, peer, messages, now, history):
        owner = self._owner
        return [owner.get(m.id) == carrier for m in messages]


class _SprayAndWaitBase(RoutingProtocol):
    """Shared copy-budget bookkeeping of the two spray-and-wait variants.

    ``copies`` maps message id -> {node: logical copies held}.  The budget
    is allocated at creation (L copies at the source), *spent* in
    ``on_forwarded`` (so rejected transfers cost nothing) and conserved:
    the per-message sum never exceeds L (property-tested in
    ``tests/test_routing_properties.py``).
    """

    replication = "L copies"
    knowledge = "none"

    def __init__(self, copies: int = 8) -> None:
        if copies < 1:
            raise ValueError("the copy budget L must be at least 1")
        self.budget = copies
        self._copies: Dict[int, Dict[NodeId, int]] = {}

    def prepare(self, trace: ContactTrace) -> None:
        self._copies = {}

    def on_message_created(self, message: Message, now: float) -> None:
        self._copies[message.id] = {message.source: self.budget}

    def copies_held(self, message_id: int, node: NodeId) -> int:
        """Logical copies *node* currently owns (test/diagnostic hook)."""
        return self._copies.get(message_id, {}).get(node, 0)

    def total_copies(self, message_id: int) -> int:
        """Total logical copies of the message in the network."""
        return sum(self._copies.get(message_id, {}).values())

    def vector_approvals(self, carrier, peer, messages, now, history):
        copies = self._copies
        return [copies.get(m.id, {}).get(carrier, 0) > 1 for m in messages]


class BinarySprayAndWaitProtocol(_SprayAndWaitBase):
    """Binary spray-and-wait [Spyropoulos, Psounis & Raghavendra 2005].

    A node holding ``n > 1`` copies hands ``floor(n / 2)`` to the next new
    node it meets and keeps the rest; a node down to one copy waits for the
    destination.  Spraying fans out exponentially, so the budget is spread
    in O(log L) hops.
    """

    name = "Binary Spray-and-Wait"

    def on_forwarded(self, message, carrier, peer, now) -> None:
        holders = self._copies.get(message.id)
        if holders is None:
            return
        held = holders.get(carrier, 0)
        if held <= 1:
            return
        give = held // 2
        holders[carrier] = held - give
        holders[peer] = holders.get(peer, 0) + give


class SourceSprayAndWaitProtocol(_SprayAndWaitBase):
    """Source spray-and-wait: only the source sprays, one copy at a time.

    The source hands single copies to the first ``L - 1`` distinct nodes it
    meets; every relay immediately enters the wait phase.  Slower to spread
    than binary spraying but concentrates knowledge (and blame) at the
    source.
    """

    name = "Source Spray-and-Wait"

    def vector_approvals(self, carrier, peer, messages, now, history):
        copies = self._copies
        return [carrier == m.source
                and copies.get(m.id, {}).get(carrier, 0) > 1
                for m in messages]

    def on_forwarded(self, message, carrier, peer, now) -> None:
        holders = self._copies.get(message.id)
        if holders is None or carrier != message.source:
            return
        held = holders.get(carrier, 0)
        if held <= 1:
            return
        holders[carrier] = held - 1
        holders[peer] = holders.get(peer, 0) + 1


class ProphetProtocol(RoutingProtocol):
    """PRoPHET [Lindgren, Doria & Schelén]: probabilistic routing using a
    history of encounters and transitivity.

    Every node maintains delivery predictabilities ``P(node, other)`` in
    ``[0, 1]``:

    * **encounter**: on contact, ``P += (1 - P) * p_encounter``;
    * **aging**: ``P *= gamma ** (elapsed / aging_interval)`` before every
      read or update;
    * **transitivity**: meeting *b* lifts ``P(a, c)`` to at least
      ``P(a, b) * P(b, c) * beta`` for every *c* that *b* knows.

    A copy is forwarded when the peer's predictability for the destination
    is strictly higher than the carrier's (the paper's tie-refusing
    utility-gradient rule, which also prevents ping-ponging).

    **State layout.**  ``prepare(trace)`` interns the trace's nodes to
    indices ``0..n-1`` and allocates one dense ``float64`` matrix:
    row ``P[i]`` is node *i*'s whole table, ``P[i, j]`` its predictability
    for node *j*, and a zero entry stands for "never learned".  A second,
    per-node column records when each row was last aged (NaN until first
    touched).  A node the trace did not name (the hooks may be driven
    without ``prepare``) is interned on first touch; the matrix doubles
    when it is full.  Memory is ``8 n^2`` bytes: 8 MB at 1 000 nodes,
    800 MB at 10 000.  Each contact is a handful of row operations, so
    the per-contact cost is a few vectorised passes over ``n`` floats
    instead of a Python walk over the peer's table.  The row views are
    kept in a list (rebuilt whenever the matrix is), so a contact indexes
    no matrix.

    **Bit-identity.**  The results equal those of per-node dict tables
    bit for bit, with no tolerance: (1) the row operations apply the same
    IEEE multiplies in the same order, ``(via * p) * beta`` for
    transitivity and one aging factor per row touch, aged eagerly under
    the same ``now > last`` guard; (2) ``np.maximum`` equals the
    strict-``>`` update on the finite, non-negative values the entries
    take; (3) a zero entry behaves exactly like an absent key, for aging
    (``0 * factor == 0``), transitivity (it lifts nothing) and reads;
    (4) the diagonal stays zero (endpoints differ, and transitivity zeroes
    the learner's own column), so the candidate for the peer's own column
    is already zero, as the dict version skips ``c == b``.
    Direction two of the transitivity update reads the row direction one
    just wrote, as the dict version did.
    """

    name = "PRoPHET"
    replication = "utility"
    knowledge = "learned"

    def __init__(self, p_encounter: float = 0.75, beta: float = 0.25,
                 gamma: float = 0.98, aging_interval: float = 60.0) -> None:
        if not 0.0 < p_encounter <= 1.0:
            raise ValueError("p_encounter must be in (0, 1]")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if aging_interval <= 0.0:
            raise ValueError("aging_interval must be positive")
        self.p_encounter = p_encounter
        self.beta = beta
        self.gamma = gamma
        self.aging_interval = aging_interval
        self._reset(())

    def prepare(self, trace: ContactTrace) -> None:
        self._reset(trace.nodes)

    def _reset(self, nodes: Iterable[NodeId]) -> None:
        self._index: Dict[NodeId, int] = {
            node: index for index, node in enumerate(nodes)}
        size = max(len(self._index), 1)
        self._p = np.zeros((size, size))
        self._rows = list(self._p)
        self._scratch = np.empty(size)
        self._last: List[float] = [math.nan] * size

    def _add(self, node: NodeId) -> int:
        """Intern *node*, doubling the matrix when it is full."""
        index = self._index[node] = len(self._index)
        size = len(self._last)
        if index == size:
            grown = np.zeros((2 * size, 2 * size))
            grown[:size, :size] = self._p
            self._p = grown
            self._rows = list(grown)
            self._scratch = np.empty(2 * size)
            self._last.extend([math.nan] * size)
        return index

    # ------------------------------------------------------------------
    def _age(self, node: NodeId, now: float) -> int:
        """Age *node*'s row to *now* and return its index."""
        index = self._index.get(node)
        if index is None:
            index = self._add(node)
        last = self._last[index]
        if now > last:
            self._rows[index] *= self.gamma ** (
                (now - last) / self.aging_interval)
        if not last > now:  # max(now, last); a NaN (never aged) gives now
            self._last[index] = now
        return index

    def predictability(self, node: NodeId, other: NodeId,
                       now: Optional[float] = None) -> float:
        """``P(node, other)``, aged to *now* when given."""
        if node == other:
            return 1.0
        if now is not None:
            index = self._age(node, now)
        else:
            index = self._index.get(node)
            if index is None:
                return 0.0
        column = self._index.get(other)
        return 0.0 if column is None else self._p.item(index, column)

    def on_contact_start(self, a, b, now, history) -> None:
        index = self._index
        i = index.get(a)
        if i is None:
            i = self._add(a)
        j = index.get(b)
        if j is None:
            j = self._add(b)
        rows, last = self._rows, self._last
        row_i, row_j = rows[i], rows[j]
        # _age(a, now), then _age(b, now), inlined
        then = last[i]
        if now > then:
            row_i *= self.gamma ** ((now - then) / self.aging_interval)
        if not then > now:
            last[i] = now
        then = last[j]
        if now > then:
            row_j *= self.gamma ** ((now - then) / self.aging_interval)
        if not then > now:
            last[j] = now
        p_ab = row_i.item(j)
        row_i[j] = p_ab + (1.0 - p_ab) * self.p_encounter
        p_ba = row_j.item(i)
        row_j[i] = p_ba + (1.0 - p_ba) * self.p_encounter
        # transitivity: each endpoint learns through the other
        scratch, beta = self._scratch, self.beta
        for mine, row, theirs, via in ((i, row_i, j, row_j),
                                       (j, row_j, i, row_i)):
            np.multiply(via, row.item(theirs), out=scratch)
            scratch *= beta
            scratch[mine] = 0.0
            np.maximum(row, scratch, out=row)

    def vector_approvals(self, carrier, peer, messages, now, history):
        predictability = self.predictability
        return [predictability(peer, m.destination, now)
                > predictability(carrier, m.destination, now)
                for m in messages]


class HypergossipProtocol(RoutingProtocol):
    """Hypergossip-style probabilistic flooding.

    Epidemic forwarding where every (message, carrier, peer) offer passes a
    Bernoulli gate with probability *p*.  The coin is drawn from a keyed
    BLAKE2 hash of ``(seed, message id, carrier, peer)`` rather than a live
    RNG, so the decision is a pure function of its arguments: re-asking
    gives the same answer, parallel workers agree, and both engines produce
    identical streams.  With ``p = 1`` this *is* Epidemic; lowering *p*
    trades delivery odds for copies, which is the knob the gossip
    literature (hypergossip in PONS among others) tunes adaptively.
    """

    name = "Hypergossip"
    stateful = False
    replication = "probabilistic"
    knowledge = "none"

    def __init__(self, p: float = 0.7, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("forwarding probability p must be in [0, 1]")
        self.p = p
        self.seed = seed

    def _coin(self, message_id: int, carrier: NodeId, peer: NodeId) -> float:
        key = f"{self.seed}|{message_id}|{carrier!r}|{peer!r}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def vector_approvals(self, carrier, peer, messages, now, history):
        if self.p >= 1.0:
            return [True] * len(messages)
        coin = self._coin
        return [coin(m.id, carrier, peer) < self.p for m in messages]
