"""Finite per-node message buffers with configurable drop policies.

The paper assumes infinite buffers; real devices do not have them.  A
:class:`NodeBuffer` tracks the copies a node currently stores, accounts
occupancy in bytes, and — when a new copy does not fit — evicts stored
copies according to one of three classic DTN drop policies:

* ``drop-oldest`` — evict the copy received longest ago first (FIFO, the
  default in most DTN simulators);
* ``drop-youngest`` — evict the most recently received copy first (protects
  old copies that have survived long enough to be rare);
* ``drop-largest`` — evict the largest stored copy first (frees the most
  space per eviction).

Capacity ``None`` means an infinite buffer: every admission succeeds and no
eviction ever happens, which is what the engine-equivalence suite relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "DROP_OLDEST",
    "DROP_YOUNGEST",
    "DROP_LARGEST",
    "DROP_POLICIES",
    "BufferEntry",
    "NodeBuffer",
]

DROP_OLDEST = "drop-oldest"
DROP_YOUNGEST = "drop-youngest"
DROP_LARGEST = "drop-largest"
DROP_POLICIES = (DROP_OLDEST, DROP_YOUNGEST, DROP_LARGEST)


@dataclass(frozen=True)
class BufferEntry:
    """One stored message copy."""

    message_id: int
    size: float
    receive_time: float
    #: Global admission sequence number; breaks receive-time ties so
    #: eviction order is fully deterministic.
    sequence: int


class NodeBuffer:
    """The message copies one node currently stores.

    Not a queue: lookup/removal is by message id; eviction order is decided
    by the drop policy over all stored entries.
    """

    __slots__ = ("capacity", "policy", "_entries", "used", "peak_used")

    def __init__(self, capacity: Optional[float] = None,
                 policy: str = DROP_OLDEST) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for infinite)")
        if policy not in DROP_POLICIES:
            raise ValueError(f"unknown drop policy {policy!r}; "
                             f"known: {', '.join(DROP_POLICIES)}")
        self.capacity = capacity
        self.policy = policy
        self._entries: Dict[int, BufferEntry] = {}
        self.used = 0.0
        self.peak_used = 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._entries

    def entries(self) -> List[BufferEntry]:
        """Stored entries in admission order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------
    def _eviction_key(self, entry: BufferEntry) -> Tuple[float, float]:
        if self.policy == DROP_OLDEST:
            # smallest (receive_time, sequence) evicted first
            return (entry.receive_time, entry.sequence)
        if self.policy == DROP_YOUNGEST:
            return (-entry.receive_time, -entry.sequence)
        # DROP_LARGEST: largest size first; ties broken oldest-first
        return (-entry.size, entry.sequence)

    def admit(self, entry: BufferEntry) -> Tuple[bool, List[BufferEntry]]:
        """Try to store *entry*, evicting per policy to make room.

        Returns ``(admitted, evicted)``.  When the entry is larger than the
        whole buffer it is rejected outright and nothing is evicted.  The
        occupancy invariant ``used <= capacity`` holds on return either way.
        """
        if entry.message_id in self._entries:
            raise ValueError(f"message {entry.message_id} already stored")
        if entry.size <= 0:
            raise ValueError("entry size must be positive")
        if self.capacity is None:
            self._entries[entry.message_id] = entry
            self.used += entry.size
            self.peak_used = max(self.peak_used, self.used)
            return True, []
        if entry.size > self.capacity:
            return False, []
        evicted: List[BufferEntry] = []
        while self.used + entry.size > self.capacity:
            if not self._entries:
                # only the float residue of the evicted sizes is left
                self.used = 0.0
                break
            victim = min(self._entries.values(), key=self._eviction_key)
            del self._entries[victim.message_id]
            self.used -= victim.size
            evicted.append(victim)
        self._entries[entry.message_id] = entry
        self.used += entry.size
        self.peak_used = max(self.peak_used, self.used)
        return True, evicted

    def remove(self, message_id: int) -> Optional[BufferEntry]:
        """Drop the copy of *message_id* if stored; returns the entry."""
        entry = self._entries.pop(message_id, None)
        if entry is not None:
            self.used -= entry.size
        return entry
