"""Space-time graph representation of a contact trace.

Section 4.1 of the paper converts the sequence of node contacts into a
*space-time graph* (following Merugu, Ammar and Zegura [13]): time is
discretised in increments of Δ (10 s in all the paper's experiments), a
vertex is a pair ``(node, T)`` with ``T = cΔ``, and there are two kinds of
edges:

* zero-weight *contact* edges ``(x_i, T) → (x_j, T)`` whenever ``x_i`` was in
  contact with ``x_j`` at any time during ``[T − Δ, T)``, and
* unit-weight *waiting* edges ``(x_i, T) → (x_i, T + Δ)`` for every node.

The class below stores the graph implicitly as one contact-adjacency map per
timestep — that is all the path-enumeration dynamic program needs.  The
explicit vertex and edge lists of the Figure 2 illustration are built from
these maps by :func:`repro.analysis.figures.figure2_space_time_graph_example`.

Step indexing convention: step ``s`` (0-based) covers the half-open interval
``[sΔ, (s+1)Δ)`` and corresponds to the paper's vertex time ``T = (s+1)Δ``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..contacts import Contact, ContactTrace, NodeId
from .fastpath import NodeInterner, StepTables

__all__ = ["SpaceTimeGraph", "DEFAULT_DELTA"]

#: The paper uses Δ = 10 seconds throughout.
DEFAULT_DELTA = 10.0

Adjacency = Dict[NodeId, Set[NodeId]]


class SpaceTimeGraph:
    """Discretised space-time view of a :class:`ContactTrace`.

    Parameters
    ----------
    trace:
        The contact trace to discretise.
    delta:
        Timestep length Δ in seconds (default 10 s, as in the paper).
    """

    def __init__(self, trace: ContactTrace, delta: float = DEFAULT_DELTA) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self._trace = trace
        self._delta = float(delta)
        self._num_steps = max(1, int(math.ceil(trace.duration / delta)))
        self._adjacency: List[Adjacency] = [dict() for _ in range(self._num_steps)]
        self._step_tables: Optional[StepTables] = None
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for contact in self._trace:
            first = int(contact.start // self._delta)
            if contact.duration == 0:
                last = first
            else:
                # A contact active anywhere inside [sΔ, (s+1)Δ) creates a
                # contact edge at step s.  The contact interval is half-open,
                # [start, end), so an end instant that falls exactly on a
                # step edge does not reach into the following step: the last
                # step is floor(end / Δ), stepped back by one when end is an
                # exact multiple of Δ.  End times are taken at face value —
                # an end one ulp past a boundary extends into the next step
                # (the seed's 1e-9 epsilon instead silently truncated any
                # contact ending within a nanosecond past a boundary).
                quotient, remainder = divmod(contact.end, self._delta)
                last = int(quotient)
                if remainder == 0.0:
                    last -= 1
            last = min(last, self._num_steps - 1)
            first = min(first, self._num_steps - 1)
            for step in range(first, last + 1):
                self._add_edge(step, contact.a, contact.b)

    def _add_edge(self, step: int, a: NodeId, b: NodeId) -> None:
        adj = self._adjacency[step]
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def trace(self) -> ContactTrace:
        return self._trace

    @property
    def delta(self) -> float:
        """Timestep length Δ in seconds."""
        return self._delta

    @property
    def num_steps(self) -> int:
        """Number of timesteps covering the trace window."""
        return self._num_steps

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        return self._trace.nodes

    @property
    def interner(self) -> NodeInterner:
        """The dense node-id interner shared by the fast-path structures."""
        return self.step_tables().interner

    def step_tables(self) -> StepTables:
        """Per-step fast-path indexes (interned neighbour lists, neighbour
        bitmasks, and the fresh-edge index with its next-fresh-step column).

        Built lazily on first use and cached for the lifetime of the graph,
        so the cost is paid once per trace rather than once per message.
        """
        if self._step_tables is None:
            self._step_tables = StepTables.build(self.nodes, self._adjacency)
        return self._step_tables

    def step_of_time(self, t: float) -> int:
        """The step whose interval ``[sΔ, (s+1)Δ)`` contains instant *t*."""
        if t < 0:
            raise ValueError(f"negative time {t}")
        step = int(t // self._delta)
        return min(step, self._num_steps - 1)

    def time_of_step(self, step: int) -> float:
        """The paper's vertex time ``T = (step + 1)Δ`` for a step index."""
        self._check_step(step)
        return (step + 1) * self._delta

    def _check_step(self, step: int) -> None:
        if not 0 <= step < self._num_steps:
            raise IndexError(f"step {step} out of range [0, {self._num_steps})")

    # ------------------------------------------------------------------
    # adjacency queries
    # ------------------------------------------------------------------
    def adjacency(self, step: int) -> Adjacency:
        """The contact adjacency (node → set of peers) at *step*."""
        self._check_step(step)
        return self._adjacency[step]

    def neighbors(self, node: NodeId, step: int) -> FrozenSet[NodeId]:
        """Nodes in contact with *node* during *step*."""
        self._check_step(step)
        return frozenset(self._adjacency[step].get(node, frozenset()))

    def in_contact(self, a: NodeId, b: NodeId, step: int) -> bool:
        """True if nodes *a* and *b* share a contact edge at *step*."""
        self._check_step(step)
        return b in self._adjacency[step].get(a, ())

    def degree(self, node: NodeId, step: int) -> int:
        """Number of contact edges incident to *node* at *step*."""
        return len(self.neighbors(node, step))

    def active_nodes(self, step: int) -> FrozenSet[NodeId]:
        """Nodes with at least one contact edge at *step*."""
        self._check_step(step)
        return frozenset(self._adjacency[step].keys())

    def reachable_within_step(self, node: NodeId, step: int) -> FrozenSet[NodeId]:
        """All nodes reachable from *node* via zero-weight edges at *step*.

        This is the connected component of *node* in the step's contact graph
        (excluding *node* itself).  It is the set of nodes a message held by
        *node* could reach "instantaneously" within the timestep under
        epidemic forwarding.
        """
        self._check_step(step)
        adj = self._adjacency[step]
        if node not in adj:
            return frozenset()
        seen: Set[NodeId] = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for peer in adj.get(current, ()):  # pragma: no branch
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        seen.discard(node)
        return frozenset(seen)

    def components(self, step: int) -> List[FrozenSet[NodeId]]:
        """Connected components of the contact graph at *step*."""
        self._check_step(step)
        adj = self._adjacency[step]
        remaining = set(adj.keys())
        components: List[FrozenSet[NodeId]] = []
        while remaining:
            root = next(iter(remaining))
            component = {root} | set(self.reachable_within_step(root, step))
            components.append(frozenset(component))
            remaining -= component
        return components

    def first_contact_step(self, a: NodeId, b: NodeId, start_step: int = 0) -> Optional[int]:
        """First step ``>= start_step`` at which *a* and *b* are in contact."""
        for step in range(max(0, start_step), self._num_steps):
            if self.in_contact(a, b, step):
                return step
        return None

    def contact_steps(self, node: NodeId) -> List[int]:
        """All steps at which *node* has at least one contact edge."""
        return [s for s in range(self._num_steps) if self._adjacency[s].get(node)]

    def total_contact_edges(self) -> int:
        """Total number of (undirected) contact edges over all steps."""
        return sum(
            sum(len(peers) for peers in adj.values()) // 2
            for adj in self._adjacency
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpaceTimeGraph: {len(self.nodes)} nodes, {self._num_steps} steps, "
            f"delta={self._delta}s>"
        )
