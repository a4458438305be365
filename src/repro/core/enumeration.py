"""Enumeration of the k shortest valid paths for a message.

This module implements the dynamic program of Figure 3 in the paper: given a
message ``(σ, δ, t1)`` and the space-time graph of a contact trace, it walks
the timesteps in order while maintaining, for every node, up to ``k``
shortest (fewest-hop) valid paths that have reached that node, and it streams
out every valid path that reaches the destination together with its arrival
time.  The first emitted delivery is the optimal path (the one epidemic
forwarding would find); the stream as a whole is the raw material for the
path-explosion analysis (``T1``, ``T_n``, ``TE``) of Sections 4–5.

Validity (Section 4.1) is enforced by construction:

* **loop avoidance** — a path is never extended to a node it already visits;
* **minimal progress** — the destination is never an intermediate node;
* **first preference** — whenever a node holding paths is in contact with the
  destination, those paths are delivered at that step and removed, and every
  path elsewhere in the system that passes through that node is purged: any
  later delivery of such a path would arrive after the node could already
  have delivered it, so it is not a first-preference path.

Hand-off opportunities
----------------------
A stored path held by node ``x`` is handed to a neighbour ``y`` at step ``s``
when either (a) the contact edge ``x–y`` is *fresh* at ``s`` (it was not
active at ``s − 1``), or (b) the path itself arrived at ``x`` during step
``s``.  A path received during a step may continue over any active edge in
the same step (zero-weight chaining, as in the space-time graph of [13]).
This matches how messages actually propagate — a transfer happens when a
contact starts or when a new message arrives during an ongoing contact — and
avoids counting the same physical hand-off once per timestep for
long-lasting contacts.  The resulting counts are, if anything, conservative,
which is the same direction of conservatism the paper argues for when it
excludes looping paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..contacts import ContactTrace, NodeId
from .path import Hop, Path
from .space_time_graph import SpaceTimeGraph

__all__ = [
    "Delivery",
    "EnumerationResult",
    "PathEnumerator",
    "enumerate_paths",
    "enumerate_batch",
]

#: Default number of paths kept per node, matching the paper's k >= 2000.
DEFAULT_K = 2000

#: Enumerators accepted by :class:`PathEnumerator` (its ``engine`` argument).  ``"fast"`` runs the interned
#: bitmask dynamic program over the graph's precomputed step tables;
#: ``"reference"`` runs the original frozenset/Path implementation.  Both
#: produce identical delivery streams (enforced by the equivalence suite).
ENUMERATORS = ("fast", "reference")


class Delivery:
    """One valid path reaching the destination.

    Attributes
    ----------
    path:
        The full path, ending at the destination.
    time:
        Arrival (vertex) time of the final hop, in seconds.
    step:
        The timestep index at which delivery occurred.
    hop_count:
        The path's hop count.

    A delivery is immutable; equality, hashing and ``repr`` are those of
    the value ``Delivery(path, time, step)``.  The fast engine emits it
    with the path's cons chain and hop count only; the :class:`Path`
    (with its validation) is built when ``path`` is first read, so a
    caller that reads only times and hop counts never builds one.
    """

    __slots__ = ("_path", "_link", "_time", "_step", "_hop_count")

    def __init__(self, path: Path, time: float, step: int) -> None:
        self._path = path
        self._link = None
        self._time = time
        self._step = step
        self._hop_count = path.hop_count

    time = property(attrgetter("_time"))
    step = property(attrgetter("_step"))
    hop_count = property(attrgetter("_hop_count"))

    @property
    def path(self) -> Path:
        path = self._path
        if path is None:
            path = self._path = Path(hops=_materialize_hops(self._link))
            self._link = None
        return path

    @property
    def duration(self) -> float:
        return self.path.duration

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.path, self._time, self._step)
                == (other.path, other._time, other._step))

    def __hash__(self) -> int:
        return hash((self.path, self._time, self._step))

    def __repr__(self) -> str:
        return (f"Delivery(path={self.path!r}, time={self._time!r}, "
                f"step={self._step!r})")


@dataclass
class EnumerationResult:
    """The ordered stream of deliveries for one message.

    Attributes
    ----------
    source, destination:
        The message endpoints.
    creation_time:
        ``t1`` — when the message was generated.
    deliveries:
        All valid paths that reached the destination before enumeration
        stopped, sorted by arrival time (ties broken by hop count).
    stopped_early:
        True if enumeration stopped because a stop rule fired (k deliveries
        in one step, or the total-delivery cap); False if the trace window
        was exhausted.
    steps_processed:
        Number of timesteps the dynamic program iterated over.
    """

    source: NodeId
    destination: NodeId
    creation_time: float
    deliveries: List[Delivery] = field(default_factory=list)
    stopped_early: bool = False
    steps_processed: int = 0

    # ------------------------------------------------------------------
    @property
    def num_deliveries(self) -> int:
        return len(self.deliveries)

    @property
    def delivered(self) -> bool:
        """True if at least one path reached the destination."""
        return bool(self.deliveries)

    @property
    def optimal_duration(self) -> Optional[float]:
        """``T(σ, δ, t1)`` — duration of the optimal (first) path, or None."""
        if not self.deliveries:
            return None
        return self.deliveries[0].time - self.creation_time

    def arrival_times(self) -> List[float]:
        """Delivery times (absolute, seconds) of every enumerated path."""
        return [d.time for d in self.deliveries]

    def arrival_durations(self) -> List[float]:
        """Delays (relative to creation) of every enumerated path."""
        return [d.time - self.creation_time for d in self.deliveries]

    def time_of_nth_path(self, n: int) -> Optional[float]:
        """``T_n`` — absolute time at which the n-th path (1-based) arrives."""
        if n < 1:
            raise ValueError("n is 1-based and must be >= 1")
        if len(self.deliveries) < n:
            return None
        return self.deliveries[n - 1].time

    def paths(self) -> List[Path]:
        return [d.path for d in self.deliveries]


@dataclass
class _StoredPath:
    """A path currently held at some node, with bookkeeping for hand-offs."""

    path: Path
    node_set: FrozenSet[NodeId]
    arrival_step: int

    @property
    def hop_count(self) -> int:
        return self.path.hop_count


class PathEnumerator:
    """k-shortest valid path enumerator over a space-time graph.

    Parameters
    ----------
    graph:
        The space-time graph of the contact trace (Δ-discretised).
    k:
        Maximum number of paths maintained per node, and the per-step
        delivery count that triggers the paper's stop rule.
    engine:
        ``"fast"`` (default) — the interned bitmask dynamic program backed by
        the graph's precomputed :class:`~repro.core.fastpath.StepTables`;
        ``"reference"`` — the original frozenset/Path implementation, kept as
        the ground truth the fast engine is verified against.  Both engines
        emit byte-identical delivery streams.
    """

    def __init__(self, graph: SpaceTimeGraph, k: int = DEFAULT_K,
                 engine: str = "fast") -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if engine not in ENUMERATORS:
            raise ValueError(f"engine must be one of {ENUMERATORS}, got {engine!r}")
        self._graph = graph
        self._k = k
        self._engine = engine

    @property
    def graph(self) -> SpaceTimeGraph:
        return self._graph

    @property
    def k(self) -> int:
        return self._k

    @property
    def engine(self) -> str:
        return self._engine

    # ------------------------------------------------------------------
    def enumerate(
        self,
        source: NodeId,
        destination: NodeId,
        creation_time: float,
        max_total_deliveries: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> EnumerationResult:
        """Enumerate valid paths for the message ``(source, destination, creation_time)``.

        Parameters
        ----------
        max_total_deliveries:
            Optional cap on the cumulative number of deliveries; enumeration
            stops at the end of the step in which the cap is reached.  This
            is how the path-explosion analysis asks for "the first n paths".
        max_steps:
            Optional cap on the number of timesteps processed (a horizon).

        Returns
        -------
        EnumerationResult
            Deliveries in arrival order.  Enumeration also stops, per the
            paper's rule, as soon as ``k`` or more paths reach the
            destination within a single timestep.
        """
        self._validate_message(source, destination, creation_time)
        if self._engine == "fast":
            return self._enumerate_fast(source, destination, creation_time,
                                        max_total_deliveries, max_steps)
        return self._enumerate_reference(source, destination, creation_time,
                                         max_total_deliveries, max_steps)

    def enumerate_batch(
        self,
        messages: Iterable[Tuple[NodeId, NodeId, float]],
        max_total_deliveries: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> List[EnumerationResult]:
        """Enumerate every ``(source, destination, creation_time)`` message.

        The space-time graph's step tables are warmed once up front, so the
        per-message cost is the dynamic program alone.  Results are returned
        in input order.
        """
        if self._engine == "fast":
            self._graph.step_tables()
        return [
            self.enumerate(source, destination, creation_time,
                           max_total_deliveries=max_total_deliveries,
                           max_steps=max_steps)
            for source, destination, creation_time in messages
        ]

    # ------------------------------------------------------------------
    def _enumerate_reference(
        self,
        source: NodeId,
        destination: NodeId,
        creation_time: float,
        max_total_deliveries: Optional[int],
        max_steps: Optional[int],
    ) -> EnumerationResult:
        graph = self._graph
        result = EnumerationResult(source=source, destination=destination,
                                   creation_time=creation_time)
        start_step = graph.step_of_time(creation_time)
        store: Dict[NodeId, List[_StoredPath]] = {
            source: [_StoredPath(Path.single(source, creation_time),
                                 frozenset((source,)), start_step)]
        }
        # Store entries are deleted when they go empty (so dead nodes stop
        # being iterated), but the hand-off snapshot must still process
        # nodes in the order the original algorithm would: a dict key's
        # position is its *first*-insertion position, kept here forever even
        # across delete/re-insert cycles.
        first_slot: Dict[NodeId, int] = {source: 0}
        last_step = graph.num_steps
        if max_steps is not None:
            last_step = min(last_step, start_step + max_steps)

        for step in range(start_step, last_step):
            result.steps_processed += 1
            adjacency = graph.adjacency(step)
            if not adjacency and not store:
                continue
            arrival_time = graph.time_of_step(step)
            delivered_this_step = self._process_step(
                store, first_slot, adjacency, step, arrival_time, destination,
                result,
            )
            if delivered_this_step >= self._k:
                result.stopped_early = True
                break
            if (max_total_deliveries is not None
                    and result.num_deliveries >= max_total_deliveries):
                result.stopped_early = True
                break
        self._sort_deliveries(result)
        return result

    # ------------------------------------------------------------------
    def _validate_message(self, source: NodeId, destination: NodeId, creation_time: float) -> None:
        nodes = self._graph.nodes
        if source not in nodes:
            raise ValueError(f"source {source} is not a node of the trace")
        if destination not in nodes:
            raise ValueError(f"destination {destination} is not a node of the trace")
        if source == destination:
            raise ValueError("source and destination must differ")
        if not 0 <= creation_time <= self._graph.trace.duration:
            raise ValueError(
                f"creation time {creation_time} outside the trace window "
                f"[0, {self._graph.trace.duration}]"
            )

    # ------------------------------------------------------------------
    def _process_step(
        self,
        store: Dict[NodeId, List[_StoredPath]],
        first_slot: Dict[NodeId, int],
        adjacency: Dict[NodeId, Set[NodeId]],
        step: int,
        arrival_time: float,
        destination: NodeId,
        result: EnumerationResult,
    ) -> int:
        """Run deliveries and hand-offs for one timestep.

        Returns the number of deliveries made during this step.
        """
        graph = self._graph
        delivered = 0
        dest_neighbors: Set[NodeId] = set(adjacency.get(destination, ()))

        # 1. Deliveries from nodes already holding paths (first preference:
        #    their stored paths are delivered now and removed).  The store
        #    entry is deleted outright — leaving an empty list behind would
        #    make the purge and snapshot phases below iterate dead entries
        #    for the rest of the enumeration.
        for node in list(dest_neighbors):
            held = store.get(node)
            if not held:
                continue
            for stored in held:
                self._emit(result, stored.path, destination, arrival_time, step)
                delivered += 1
            del store[node]

        # 1b. First-preference purge: any path that passes through a node
        #     currently in contact with the destination can only deliver
        #     *later* than that node could have delivered it, so it is not a
        #     first-preference path and is dropped everywhere in the system.
        #     Nodes left with no paths are dropped from the store entirely.
        if dest_neighbors:
            emptied: List[NodeId] = []
            for node, held in store.items():
                kept = [s for s in held if not (s.node_set & dest_neighbors)]
                if len(kept) != len(held):
                    if kept:
                        store[node] = kept
                    else:
                        emptied.append(node)
            for node in emptied:
                del store[node]

        # 2. Hand-offs.  Work from a snapshot of the stores taken after the
        #    delivery phase, so paths placed during this step are extended
        #    exactly once (by the within-step cascade below).  Nodes are
        #    processed in first-insertion order — the position they would
        #    occupy in the store dict had empty entries never been pruned.
        frontier: List[Tuple[NodeId, _StoredPath]] = []
        ordered = sorted(store.items(), key=lambda item: first_slot[item[0]])
        snapshot = {node: list(held) for node, held in ordered}
        for node, held in snapshot.items():
            if node not in adjacency:
                continue
            neighbors = adjacency[node]
            for peer in neighbors:
                if peer == destination:
                    continue
                fresh = not (step > 0 and graph.in_contact(node, peer, step - 1))
                for stored in held:
                    if not fresh and stored.arrival_step < step:
                        # Ongoing contact, old path: the hand-off already
                        # happened in an earlier step.
                        continue
                    if peer in stored.node_set:
                        continue
                    new_path = stored.path.extended(peer, arrival_time)
                    new_stored = _StoredPath(new_path,
                                             stored.node_set | {peer}, step)
                    delivered += self._place(
                        store, first_slot, adjacency, new_stored, peer,
                        destination, arrival_time, step, result, frontier,
                    )

        # 3. Within-step cascade: paths that just arrived can keep moving
        #    over any active edge during the same step.
        while frontier:
            node, stored = frontier.pop()
            neighbors = adjacency.get(node)
            if not neighbors:
                continue
            for peer in neighbors:
                if peer == destination or peer in stored.node_set:
                    continue
                new_path = stored.path.extended(peer, arrival_time)
                new_stored = _StoredPath(new_path, stored.node_set | {peer}, step)
                delivered += self._place(
                    store, first_slot, adjacency, new_stored, peer,
                    destination, arrival_time, step, result, frontier,
                )
        return delivered

    def _place(
        self,
        store: Dict[NodeId, List[_StoredPath]],
        first_slot: Dict[NodeId, int],
        adjacency: Dict[NodeId, Set[NodeId]],
        stored: _StoredPath,
        node: NodeId,
        destination: NodeId,
        arrival_time: float,
        step: int,
        result: EnumerationResult,
        frontier: List[Tuple[NodeId, _StoredPath]],
    ) -> int:
        """Place a newly created path at *node*.

        If *node* is currently in contact with the destination the path is
        delivered immediately (and, per first preference, neither stored nor
        extended further).  Otherwise it joins the node's store subject to
        the k-shortest cap and the within-step frontier.

        Returns the number of deliveries caused (0 or 1).
        """
        if destination in adjacency.get(node, ()):  # immediate delivery
            self._emit(result, stored.path, destination, arrival_time, step)
            return 1
        held = store.get(node)
        if held is None:
            held = store[node] = []
            if node not in first_slot:
                first_slot[node] = len(first_slot)
        if len(held) < self._k:
            held.append(stored)
            frontier.append((node, stored))
            return 0
        # At capacity: keep the k shortest by hop count.
        worst_index = max(range(len(held)), key=lambda i: held[i].hop_count)
        if held[worst_index].hop_count > stored.hop_count:
            held[worst_index] = stored
            frontier.append((node, stored))
        return 0

    @staticmethod
    def _emit(result: EnumerationResult, path: Path, destination: NodeId,
              arrival_time: float, step: int) -> None:
        delivered_path = path.extended(destination, arrival_time)
        result.deliveries.append(Delivery(path=delivered_path,
                                          time=arrival_time, step=step))

    @staticmethod
    def _sort_deliveries(result: EnumerationResult) -> None:
        result.deliveries.sort(key=lambda d: (d.time, d.hop_count))

    # ------------------------------------------------------------------
    # fast engine: interned bitmask dynamic program
    # ------------------------------------------------------------------
    # A stored path is the tuple (link, mask, arrival_step, hop_count) where
    #
    # * link  — a (parent_link, node, arrival_time) cons cell; the full hop
    #   sequence is materialised into a Path object only when the path is
    #   actually delivered;
    # * mask  — int bitmask of the visited nodes (loop avoidance and the
    #   first-preference purge become single AND operations);
    # * arrival_step / hop_count — as in the reference engine.
    #
    # The engine replays the reference engine's iteration orders exactly
    # (see fastpath module docstring), so the two delivery streams are
    # identical including tie order.  After the creation step it only
    # visits steps, nodes and edges where the fresh-edge index says a
    # hand-off, delivery or purge can happen (the exactness argument is in
    # the fastpath module docstring).

    def _enumerate_fast(
        self,
        source: NodeId,
        destination: NodeId,
        creation_time: float,
        max_total_deliveries: Optional[int],
        max_steps: Optional[int],
    ) -> EnumerationResult:
        graph = self._graph
        tables = graph.step_tables()
        interner = tables.interner
        index_of = interner.index_of
        node_of = interner.nodes
        k = self._k
        delta = graph.delta

        src_idx = index_of(source)
        dst_idx = index_of(destination)
        result = EnumerationResult(source=source, destination=destination,
                                   creation_time=creation_time)
        start_step = graph.step_of_time(creation_time)
        last_step = graph.num_steps
        if max_steps is not None:
            last_step = min(last_step, start_step + max_steps)

        root_link = (None, source, creation_time)
        store: Dict[int, List[tuple]] = {
            src_idx: [(root_link, 1 << src_idx, start_step, 0)]
        }
        # first-insertion order of store keys (see _enumerate_reference):
        # preserved across delete/re-insert cycles so hand-offs visit nodes
        # exactly in the reference engine's order.
        first_slot: Dict[int, int] = {src_idx: 0}
        # emissions: (time, delivered_hop_count, step, delivered_link)
        emitted: List[Tuple[float, int, int, tuple]] = []
        # hop-count buckets of exactly the stores holding k paths (see
        # _CapIndex); dropped whenever a delivery or purge shrinks the list
        caps: Dict[int, _CapIndex] = {}
        if k == 1:
            caps[src_idx] = _CapIndex(store[src_idx])

        raw_adjacency = graph._adjacency
        neighbor_lists = tables.neighbor_lists
        neighbor_masks = tables.neighbor_masks
        fresh_lists = tables.fresh_lists
        next_fresh = tables.next_fresh
        dest_fresh_column = next_fresh[dst_idx]
        total_deliveries = 0
        step = start_step
        while step < last_step:
            arrival_time = (step + 1) * delta
            neighbor_list = neighbor_lists[step]
            # Each node's peers its stored paths may be handed to at this
            # step: every active peer at the creation step (the root path
            # is new then), the fresh peers afterwards.  Nodes absent from
            # it hand off nothing, and when the destination is absent no
            # path holder or path-visited node can be in contact with it,
            # so the delivery and purge phases are skipped.
            peers_t = (neighbor_list if step == start_step
                       else fresh_lists[step])
            peers_of = neighbor_list.get
            dest_mask = neighbor_masks[step].get(dst_idx, 0)
            delivered = 0

            if dst_idx in peers_t:
                # 1. Deliveries.  The reference engine iterates a set *copy*
                #    of the destination's adjacency; perform the identical
                #    operation on the identical set object so tie order
                #    matches exactly.
                for node in set(raw_adjacency[step][destination]):
                    idx = index_of(node)
                    held = store.get(idx)
                    if not held:
                        continue
                    for link, _, _, hop_count in held:
                        emitted.append((arrival_time, hop_count + 1, step,
                                        (link, destination, arrival_time)))
                    delivered += len(held)
                    del store[idx]
                    caps.pop(idx, None)

                # 1b. First-preference purge: one AND per stored path.
                emptied: List[int] = []
                for idx, held in store.items():
                    kept = [entry for entry in held
                            if not (entry[1] & dest_mask)]
                    if len(kept) != len(held):
                        caps.pop(idx, None)
                        if kept:
                            store[idx] = kept
                        else:
                            emptied.append(idx)
                for idx in emptied:
                    del store[idx]

            # 2. Hand-offs from the post-delivery snapshot, then 3. the
            #    within-step cascade over zero-weight edges: paths placed
            #    during this step keep moving over any active edge.  Both
            #    phases feed one placement loop as (paths, peers) batches,
            #    each peer taking the paths in order: the snapshot's holders
            #    first, then the frontier drained LIFO down to its None
            #    sentinel.
            holders = [(list(store[idx]), peers_t[idx])
                       for idx in sorted((idx for idx in store
                                          if idx in peers_t),
                                         key=first_slot.__getitem__)]
            frontier: List[Optional[tuple]] = [None]
            push = frontier.append
            for entries, peers in chain(holders, iter(frontier.pop, None)):
                for peer_idx in peers:
                    if peer_idx == dst_idx:
                        continue
                    bit = 1 << peer_idx
                    peer = node_of[peer_idx]
                    if dest_mask & bit:
                        # immediate delivery (first preference)
                        for entry in entries:
                            if not entry[1] & bit:
                                emitted.append((
                                    arrival_time, entry[3] + 2, step,
                                    ((entry[0], peer, arrival_time),
                                     destination, arrival_time)))
                                delivered += 1
                        continue
                    # Placements below touch only this peer's store, so its
                    # list and cap index stay valid for the whole batch.
                    held = store.get(peer_idx)
                    cap = None if held is None else caps.get(peer_idx)
                    for entry in entries:
                        mask = entry[1]
                        if mask & bit:
                            continue
                        hop_count = entry[3] + 1
                        if cap is None:
                            if held is None:
                                held = store[peer_idx] = []
                                if peer_idx not in first_slot:
                                    first_slot[peer_idx] = len(first_slot)
                            new_entry = ((entry[0], peer, arrival_time),
                                         mask | bit, step, hop_count)
                            held.append(new_entry)
                            push(((new_entry,), peers_of(peer_idx, ())))
                            if len(held) == k:
                                cap = caps[peer_idx] = _CapIndex(held)
                        elif cap.max_hops > hop_count:
                            # At capacity: keep the k shortest by hop count,
                            # replacing the first position holding the
                            # maximum.
                            new_entry = ((entry[0], peer, arrival_time),
                                         mask | bit, step, hop_count)
                            held[cap.replace(hop_count)] = new_entry
                            push(((new_entry,), peers_of(peer_idx, ())))

            total_deliveries += delivered
            if delivered >= k or (
                    max_total_deliveries is not None
                    and total_deliveries >= max_total_deliveries):
                result.stopped_early = True
                last_step = step + 1
                break
            if not store:
                break
            # Jump to the next step at which the destination or a path
            # holder has a fresh edge; the steps in between are no-ops.
            step += 1
            if step < last_step:
                step = min(dest_fresh_column[step],
                           min(next_fresh[idx][step] for idx in store))
        # Skipped steps count as processed, as in the reference engine.
        result.steps_processed = max(0, last_step - start_step)
        emitted.sort(key=lambda record: (record[0], record[1]))
        # Paths are built from their cons chains only when read.
        new = Delivery.__new__
        deliveries = result.deliveries
        for time, hop_count, step, link in emitted:
            delivery = new(Delivery)
            delivery._path = None
            delivery._link = link
            delivery._time = time
            delivery._step = step
            delivery._hop_count = hop_count
            deliveries.append(delivery)
        return result


class _CapIndex:
    """Slot positions of a full store, bucketed by hop count.

    The reference rule replaces "the first position holding the maximum hop
    count"; with a min-heap of positions per hop count that position is the
    top of the ``max_hops`` bucket, found in O(log k) instead of a rescan of
    all k entries.  Built when a placement fills the store to k paths;
    dropped whenever a delivery or the purge shrinks the store.
    """

    __slots__ = ("buckets", "max_hops")

    def __init__(self, held: List[tuple]) -> None:
        buckets: Dict[int, List[int]] = {}
        for position, entry in enumerate(held):
            # positions arrive in increasing order: each list is a heap
            buckets.setdefault(entry[3], []).append(position)
        self.buckets = buckets
        self.max_hops = max(buckets)

    def replace(self, hop_count: int) -> int:
        """Move the first maximum-hop position to *hop_count*; return it."""
        buckets = self.buckets
        worst = buckets[self.max_hops]
        position = heapq.heappop(worst)
        bucket = buckets.get(hop_count)  # hop_count < max_hops: not worst
        if bucket is None:
            buckets[hop_count] = [position]
        else:
            heapq.heappush(bucket, position)
        if not worst:
            del buckets[self.max_hops]
            self.max_hops = max(buckets)
        return position


def _materialize_hops(link: tuple) -> Tuple[Hop, ...]:
    """Expand a (parent, node, time) cons chain into a hop tuple."""
    hops: List[Hop] = []
    while link is not None:
        parent, node, time = link
        hops.append((node, time))
        link = parent
    hops.reverse()
    return tuple(hops)


# ----------------------------------------------------------------------
# module-level conveniences
# ----------------------------------------------------------------------
def _coerce_graph(trace_or_graph, delta: float) -> SpaceTimeGraph:
    if isinstance(trace_or_graph, SpaceTimeGraph):
        return trace_or_graph
    if isinstance(trace_or_graph, ContactTrace):
        return SpaceTimeGraph(trace_or_graph, delta=delta)
    raise TypeError(
        f"expected ContactTrace or SpaceTimeGraph, got {type(trace_or_graph)!r}"
    )


def enumerate_paths(
    trace_or_graph,
    source: NodeId,
    destination: NodeId,
    creation_time: float,
    k: int = DEFAULT_K,
    max_total_deliveries: Optional[int] = None,
    delta: float = 10.0,
    engine: str = "fast",
) -> EnumerationResult:
    """One-shot enumeration from a trace or a prebuilt space-time graph.

    When iterating over many messages of the same trace, build the
    :class:`SpaceTimeGraph` once and use :class:`PathEnumerator` (or
    :func:`enumerate_batch`) directly to avoid rebuilding it per message.
    """
    graph = _coerce_graph(trace_or_graph, delta)
    enumerator = PathEnumerator(graph, k=k, engine=engine)
    return enumerator.enumerate(source, destination, creation_time,
                                max_total_deliveries=max_total_deliveries)


def enumerate_batch(
    trace_or_graph,
    messages: Iterable[Tuple[NodeId, NodeId, float]],
    k: int = DEFAULT_K,
    max_total_deliveries: Optional[int] = None,
    delta: float = 10.0,
    engine: str = "fast",
) -> List[EnumerationResult]:
    """Enumerate a batch of ``(source, destination, creation_time)`` messages.

    The space-time graph and its fast-path step tables are built once and
    shared across the whole batch; results are returned in input order.
    """
    graph = _coerce_graph(trace_or_graph, delta)
    enumerator = PathEnumerator(graph, k=k, engine=engine)
    return enumerator.enumerate_batch(
        messages, max_total_deliveries=max_total_deliveries)
