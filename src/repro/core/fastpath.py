"""Fast-core substrate for the path-enumeration dynamic program.

The enumeration of Figure 3 spends essentially all of its time in three
inner-loop operations: loop-avoidance membership tests (``peer in
path.node_set``), the first-preference purge (``node_set & dest_neighbors``),
and path extension (``node_set | {peer}`` plus a new :class:`~repro.core.path.Path`).
On the seed implementation each of those allocates or walks a ``frozenset``.

This module provides the integer substrate that turns all three into single
machine-word operations, the standard remedy used by contact-graph /
DTN simulators:

* :class:`NodeInterner` — a dense bijection ``NodeId <-> [0, n)`` so a set of
  nodes becomes an ``int`` bitmask (node *i* ↦ bit ``1 << i``);
* :class:`StepTables` — per-timestep structures precomputed once per
  :class:`~repro.core.space_time_graph.SpaceTimeGraph`:

  - ``neighbor_lists[step][i]`` — the interned neighbours of node *i*, used
    by the within-step cascade, which may follow any active edge;
  - ``neighbor_masks[step][i]`` — the same neighbourhood as a bitmask, used
    for the first-preference purge and for O(1) "is this node in contact
    with the destination" tests;
  - the *fresh-edge index*.  A contact edge is fresh at ``step`` when it was
    not active at ``step - 1``.  ``fresh_lists[step][i]`` holds node *i*'s
    fresh peers in ``neighbor_lists`` order (only nodes with at least one
    fresh edge have an entry), ``fresh_masks[step]`` is the bitmask of those
    nodes, and ``next_fresh[i][step]`` is the first step ``>= step`` at
    which node *i* has a fresh edge.  The first step at which a node has any
    edge is always a fresh step, so this column also answers "when is this
    node next active at all".

Why the fresh-edge index is enough
----------------------------------
After its first step, the dynamic program only needs to look at a step
where the destination or a path-holding node has a fresh edge; every other
step is a no-op and is jumped over.  Three facts make that exact:

1. At the end of every step, no node in contact with the destination at
   that step holds a path: its paths were delivered, and a path placed at it
   is delivered at once rather than stored.
2. At the end of every step, no stored path visits such a node: the
   first-preference purge removed those paths, and a path can only come to
   visit the node by being placed there.
3. Every stored path is older than the current step (the one exception is
   the source's root path at the creation step), so it is handed off only
   over fresh edges; paths that arrive during a step continue over any
   active edge in the same step's cascade.

So at a step where neither the destination nor a path holder has a fresh
edge, an ongoing contact with the destination has nothing to deliver
(fact 1) and nothing to purge (fact 2), and no stored path can be handed
off (fact 3).  For the same reasons, within a processed step only the
destination's fresh neighbours can hold or be visited by a stored path, and
only path holders with fresh edges can hand off.

Ordering contract
-----------------
The fast engine must reproduce the seed engine's delivery stream *exactly*,
including the order of same-time same-hop-count ties, which in the seed
implementation is inherited from Python ``set`` iteration order.  For that
reason ``neighbor_lists`` is built by iterating the graph's original
adjacency sets, preserving their iteration order verbatim, and
``fresh_lists`` keeps that order.  Do not sort these lists.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from ..contacts import NodeId

__all__ = ["NodeInterner", "StepTables"]


class NodeInterner:
    """Dense, deterministic bijection between node ids and ``[0, n)`` indices.

    Indices are assigned in sorted node order, so the mapping depends only on
    the node population, never on trace or insertion order.
    """

    __slots__ = ("_nodes", "_index")

    def __init__(self, nodes: Iterable[NodeId]) -> None:
        self._nodes: Tuple[NodeId, ...] = tuple(sorted(set(nodes)))
        self._index: Dict[NodeId, int] = {n: i for i, n in enumerate(self._nodes)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids in index order."""
        return self._nodes

    def index_of(self, node: NodeId) -> int:
        """The dense index of *node* (raises ``KeyError`` for unknown nodes)."""
        return self._index[node]

    def node_at(self, index: int) -> NodeId:
        """The node id occupying *index*."""
        return self._nodes[index]

    # ------------------------------------------------------------------
    # bitmask helpers
    # ------------------------------------------------------------------
    def bit_of(self, node: NodeId) -> int:
        """The single-bit mask of *node*."""
        return 1 << self._index[node]

    def mask_of(self, nodes: Iterable[NodeId]) -> int:
        """The bitmask with one bit set per node in *nodes*."""
        mask = 0
        index = self._index
        for node in nodes:
            mask |= 1 << index[node]
        return mask

    def nodes_of(self, mask: int) -> FrozenSet[NodeId]:
        """The node set encoded by *mask* (inverse of :meth:`mask_of`)."""
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        nodes = []
        table = self._nodes
        index = 0
        while mask:
            if mask & 1:
                nodes.append(table[index])
            mask >>= 1
            index += 1
        return frozenset(nodes)


class StepTables:
    """Per-step indexes precomputed from a space-time graph's adjacency.

    Built once (lazily) per graph via
    :meth:`repro.core.space_time_graph.SpaceTimeGraph.step_tables` and shared
    by every enumeration over that graph.
    """

    __slots__ = ("interner", "neighbor_lists", "neighbor_masks",
                 "fresh_lists", "fresh_masks", "next_fresh", "num_steps")

    def __init__(
        self,
        interner: NodeInterner,
        neighbor_lists: List[Dict[int, List[int]]],
        neighbor_masks: List[Dict[int, int]],
        fresh_lists: List[Dict[int, List[int]]],
        fresh_masks: List[int],
        next_fresh: List[Sequence[int]],
    ) -> None:
        self.interner = interner
        self.neighbor_lists = neighbor_lists
        self.neighbor_masks = neighbor_masks
        self.fresh_lists = fresh_lists
        self.fresh_masks = fresh_masks
        self.next_fresh = next_fresh
        self.num_steps = len(neighbor_lists)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, nodes: Iterable[NodeId],
              adjacency_by_step: Sequence[Dict[NodeId, set]]) -> "StepTables":
        """Build the tables from a per-step ``{node: set_of_peers}`` sequence.

        ``neighbor_lists`` and ``fresh_lists`` preserve the iteration order
        of each adjacency set (see the module docstring's ordering contract).
        """
        interner = NodeInterner(nodes)
        index_of = interner._index
        num_steps = len(adjacency_by_step)

        neighbor_lists: List[Dict[int, List[int]]] = []
        neighbor_masks: List[Dict[int, int]] = []
        fresh_lists: List[Dict[int, List[int]]] = []
        fresh_masks: List[int] = []
        fresh_steps: List[List[int]] = [[] for _ in range(len(interner))]
        prev: Dict[NodeId, set] = {}
        for step, adjacency in enumerate(adjacency_by_step):
            lists: Dict[int, List[int]] = {}
            masks: Dict[int, int] = {}
            fresh: Dict[int, List[int]] = {}
            fresh_mask = 0
            for node, peers in adjacency.items():
                prev_peers = prev.get(node, ())
                idx = index_of[node]
                entries = []
                fresh_peers = []
                mask = 0
                for peer in peers:  # natural set order — do not sort
                    peer_idx = index_of[peer]
                    entries.append(peer_idx)
                    mask |= 1 << peer_idx
                    if peer not in prev_peers:
                        fresh_peers.append(peer_idx)
                lists[idx] = entries
                masks[idx] = mask
                if fresh_peers:
                    fresh[idx] = fresh_peers
                    fresh_mask |= 1 << idx
                    fresh_steps[idx].append(step)
            neighbor_lists.append(lists)
            neighbor_masks.append(masks)
            fresh_lists.append(fresh)
            fresh_masks.append(fresh_mask)
            prev = adjacency

        next_fresh: List[Sequence[int]] = []
        for steps in fresh_steps:
            column: List[int] = []
            for fresh_step in steps:
                column.extend([fresh_step] * (fresh_step + 1 - len(column)))
            column.extend([num_steps] * (num_steps + 1 - len(column)))
            next_fresh.append(column)

        return cls(interner, neighbor_lists, neighbor_masks, fresh_lists,
                   fresh_masks, next_fresh)

    # ------------------------------------------------------------------
    def first_fresh_step(self, index: int, step: int) -> int:
        """First step ``>= step`` at which node *index* has a fresh edge.

        Returns ``num_steps`` when the node has no further fresh edges.
        """
        if step >= self.num_steps:
            return self.num_steps
        return self.next_fresh[index][step]

    def dest_mask(self, index: int, step: int) -> int:
        """Bitmask of the nodes in contact with node *index* at *step*."""
        return self.neighbor_masks[step].get(index, 0)
