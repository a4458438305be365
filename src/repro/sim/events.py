"""Event encoding and heap-based event queue for the DES engine.

An event is the tuple ``(time, kind, sequence, payload)``.  The kind encodes
the priority of simultaneous events; the relative order of contact starts,
contact ends and message creations is exactly the one the idealized
trace-driven replay uses (starts < ends < creations), which is one of the
ingredients of the engine-equivalence guarantee:

``EXPIRE``
    TTL expiries fire before anything else at the same instant — a message
    is live during ``[creation, creation + ttl)``, so a contact starting
    exactly at the expiry time cannot deliver it.
``NODE_DOWN`` / ``NODE_UP``
    Churn transitions (crash, then reboot) precede contact events: a node
    crashing the instant a contact starts never observes that contact, and
    a node rebooting at that instant does.  A zero-length downtime wipes
    the buffer and rejoins in one instant (down sorts before up).
``CONTACT_START``
    Starts precede ends so zero-duration contacts are opened, exchanged
    over, and then closed.
``TRANSFER_DONE``
    Bandwidth-limited transfers completing exactly at a contact's end
    succeed (the bytes fit the contact), hence before ``CONTACT_END``.
``RETRANSMIT``
    A lost transfer's backoff expiring re-attempts the transfer; the
    engine only schedules these strictly inside the contact, and at equal
    instants completed transfers land before re-attempts.
``CONTACT_END``
    Precedes creations: a message created the instant a contact ends does
    not see it as active (half-open ``[start, end)`` contact semantics).
``CREATE``
    Message creations come last at any instant.

The integer values changed when the churn/retransmission kinds were added,
but the *relative* order of the original five kinds is unchanged — which is
what the engine-equivalence guarantee depends on.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

__all__ = [
    "EXPIRE",
    "NODE_DOWN",
    "NODE_UP",
    "CONTACT_START",
    "TRANSFER_DONE",
    "RETRANSMIT",
    "CONTACT_END",
    "CREATE",
    "Event",
    "EventQueue",
]

EXPIRE = 0
NODE_DOWN = 1
NODE_UP = 2
CONTACT_START = 3
TRANSFER_DONE = 4
RETRANSMIT = 5
CONTACT_END = 6
CREATE = 7

Event = Tuple[float, int, int, Any]


class EventQueue:
    """A min-heap of events ordered by ``(time, kind, sequence)``.

    The sequence number breaks remaining ties deterministically in push
    order, so two runs that push the same events always pop them in the
    same order.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def next_sequence(self) -> int:
        """Reserve and return the next sequence number."""
        sequence = self._sequence
        self._sequence += 1
        return sequence

    def push(self, time: float, kind: int, payload: Any) -> None:
        """Schedule *payload* at *time* with the given *kind* priority."""
        heapq.heappush(self._heap, (time, kind, self.next_sequence(), payload))

    def extend_sorted(self, events: List[Event]) -> None:
        """Bulk-load events (heapified in place; cheaper than n pushes)."""
        self._heap.extend(events)
        heapq.heapify(self._heap)

    def pop(self) -> Event:
        return heapq.heappop(self._heap)
