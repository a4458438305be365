"""Forwarding paths and their validity rules.

Section 4 of the paper defines a path as a sequence of tuples
``((x_1, t_1), (x_2, t_2), ..., (x_k, t_k))`` with non-decreasing times where
consecutive nodes are in contact at the hand-off time.  A *valid* path (the
only kind the enumeration counts) additionally respects:

* **loop avoidance** — no node appears more than once;
* **minimal progress** — the destination, if present, appears only at the
  end: a node holding a message always delivers when it meets the
  destination;
* **first preference** — if an intermediate node that held the message met
  the destination strictly before the path's delivery time, the path is not
  counted (the node would have delivered then).

This module provides the :class:`Path` value type and the validity
predicates; the dynamic program in :mod:`repro.core.enumeration` constructs
only valid paths, and the predicates here let tests verify that invariant
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from ..contacts import NodeId
from .space_time_graph import SpaceTimeGraph

__all__ = [
    "Hop",
    "Path",
    "is_loop_free",
    "respects_minimal_progress",
    "respects_first_preference",
    "is_valid_path",
    "is_time_feasible",
]

#: A hop is a (node, time) pair: the node received the message at that time.
Hop = Tuple[NodeId, float]


@dataclass(frozen=True)
class Path:
    """An immutable space-time path.

    ``hops[0]`` is the source at the message creation time; subsequent hops
    record each node that received a copy and when.
    """

    hops: Tuple[Hop, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a path needs at least one hop (the source)")
        times = [t for _, t in self.hops]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError(f"hop times must be non-decreasing, got {times}")

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, node: NodeId, time: float) -> "Path":
        """The trivial path consisting of the source alone."""
        return cls(hops=((node, time),))

    def extended(self, node: NodeId, time: float) -> "Path":
        """Return a new path with one extra hop appended."""
        return Path(hops=self.hops + ((node, time),))

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """The node sequence visited by the path."""
        return tuple(n for n, _ in self.hops)

    @property
    def times(self) -> Tuple[float, ...]:
        """The hop times."""
        return tuple(t for _, t in self.hops)

    @property
    def source(self) -> NodeId:
        return self.hops[0][0]

    @property
    def last_node(self) -> NodeId:
        return self.hops[-1][0]

    @property
    def start_time(self) -> float:
        return self.hops[0][1]

    @property
    def end_time(self) -> float:
        return self.hops[-1][1]

    @property
    def hop_count(self) -> int:
        """Number of hops (hand-offs); the paper's path *length*."""
        return len(self.hops) - 1

    @property
    def duration(self) -> float:
        """Elapsed time between message creation and the last hop."""
        return self.end_time - self.start_time

    def node_set(self) -> FrozenSet[NodeId]:
        return frozenset(self.nodes)

    def visits(self, node: NodeId) -> bool:
        return node in self.nodes

    def delivers_to(self, destination: NodeId) -> bool:
        """True if the path ends at *destination*."""
        return self.last_node == destination

    def intermediate_nodes(self) -> Tuple[NodeId, ...]:
        """Nodes other than the source and the final hop."""
        if len(self.hops) <= 2:
            return ()
        return tuple(n for n, _ in self.hops[1:-1])

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self):
        return iter(self.hops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " -> ".join(f"{n}@{t:.0f}" for n, t in self.hops)
        return f"Path({inner})"


# ----------------------------------------------------------------------
# validity predicates
# ----------------------------------------------------------------------
def is_loop_free(path: Path) -> bool:
    """True if no node appears more than once."""
    nodes = path.nodes
    return len(nodes) == len(set(nodes))


def respects_minimal_progress(path: Path, destination: NodeId) -> bool:
    """True if the destination appears only at the end of the path (if at all)."""
    nodes = path.nodes
    if destination not in nodes:
        return True
    return nodes.index(destination) == len(nodes) - 1


def is_time_feasible(path: Path, graph: SpaceTimeGraph) -> bool:
    """True if every hand-off happens over an existing contact edge.

    Each hop ``(x_{i+1}, t_{i+1})`` must correspond to a contact between
    ``x_i`` and ``x_{i+1}`` during the step containing ``t_{i+1}`` (the
    paper's condition "x_i is in contact with x_{i+1} at time t_{i+1}").
    Hop times beyond the trace window are infeasible.
    """
    for (prev_node, _), (node, time) in zip(path.hops, path.hops[1:]):
        if time > graph.trace.duration + graph.delta + 1e-9:
            return False
        step = _step_of_vertex_time(graph, time)
        if not graph.in_contact(prev_node, node, step):
            return False
    return True


def respects_first_preference(path: Path, graph: SpaceTimeGraph, destination: NodeId) -> bool:
    """True if no node that held the message met the destination strictly
    before the path's final hop time.

    Only meaningful for paths that end at *destination*; paths that do not
    reach the destination trivially satisfy it (they may still be extended).
    """
    if not path.delivers_to(destination):
        return True
    delivery_step = _step_of_vertex_time(graph, path.end_time)
    for index, (node, received_time) in enumerate(path.hops[:-1]):
        # the first hop is the creation instant, not a vertex time: a
        # creation at an exact multiple of Δ starts the step it opens
        received_step = (graph.step_of_time(max(received_time, 0.0))
                         if index == 0
                         else _step_of_vertex_time(graph, received_time))
        for step in range(received_step, delivery_step):
            if graph.in_contact(node, destination, step):
                return False
    return True


def is_valid_path(path: Path, graph: SpaceTimeGraph, destination: NodeId) -> bool:
    """Combined validity: loop-free, minimal progress, time-feasible, and
    first preference (the definition of a *valid path* in Section 4.1)."""
    return (
        is_loop_free(path)
        and respects_minimal_progress(path, destination)
        and is_time_feasible(path, graph)
        and respects_first_preference(path, graph, destination)
    )


def _step_of_vertex_time(graph: SpaceTimeGraph, time: float) -> int:
    """Map a path hop time back to a step index.

    Hop times produced by the enumerator are vertex times ``T = (s + 1)Δ``
    (step *end* labels); those map back to step ``s``.  Message creation
    times, which are generally not multiples of Δ, map to the step that
    contains them — the message exists from that step onwards.
    """
    if time <= 0:
        return 0
    delta = graph.delta
    ratio = time / delta
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9 and nearest >= 1:
        return min(int(nearest) - 1, graph.num_steps - 1)
    return graph.step_of_time(time)
