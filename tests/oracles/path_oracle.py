"""Exhaustive oracles for the paper's path counts (Section 4.1).

:func:`valid_paths` lists every valid path of a message by depth-first
search, one path at a time, from the validity rules that
:mod:`repro.core.enumeration`'s module docstring states, not from either
enumerator:

* **loop avoidance** — a path never visits a node twice;
* **minimal progress** — the destination appears only at the end;
* **hand-off** — a holder passes the path to a peer at step ``s`` over a
  contact edge that is *fresh* at ``s`` (not active at ``s − 1``), or over
  any active edge in the step the holder received the path (the source
  receives it in its creation step), so a path may chain through several
  nodes within one step;
* **first preference** — a holder delivers at its first step in contact
  with the destination, and a path dies at the first step any of its
  earlier holders is in contact with the destination (that holder
  delivers instead); a step's deliveries come before its purge.

There is no ``k``: the DFS keeps every path, so its set is what both
enumerators must emit with ``k`` unbounded, and its n-th arrival time is
the ``T_n`` they must report at ``k = n``.

:func:`epidemic_infection_times` and :func:`first_delivery_time` are a
third, independent way to get ``T1``: a step-wise epidemic closure.

Tests import them as ``from oracles.path_oracle import ...`` (pytest puts
``tests/`` on ``sys.path``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.contacts import NodeId
from repro.core import SpaceTimeGraph

__all__ = ["valid_paths", "epidemic_infection_times", "first_delivery_time"]

#: a path as its hops: ``((source, t1), (node, time), ..., (destination, T))``
Hops = Tuple[Tuple[NodeId, float], ...]


def valid_paths(graph: SpaceTimeGraph, source: NodeId, destination: NodeId,
                creation_time: float) -> List[Hops]:
    """Every valid path of the message, as sorted hop tuples."""
    adjacency = [graph.adjacency(step) for step in range(graph.num_steps)]
    found: List[Hops] = []

    def follow(hops: Hops, received: int) -> None:
        holder = hops[-1][0]
        visited = {node for node, _ in hops}
        for step in range(received, len(adjacency)):
            active = adjacency[step]
            near = active.get(destination, ())
            time = graph.time_of_step(step)
            if holder in near:
                found.append(hops + ((destination, time),))
                return
            if not visited.isdisjoint(near):
                return  # purged: an earlier holder delivers now
            for peer in active.get(holder, ()):
                if peer in visited:
                    continue
                fresh = step == 0 or peer not in adjacency[step - 1].get(
                    holder, ())
                if fresh or step == received:
                    follow(hops + ((peer, time),), step)

    follow(((source, creation_time),), graph.step_of_time(creation_time))
    return sorted(found)


def epidemic_infection_times(
    graph: SpaceTimeGraph,
    source: NodeId,
    creation_time: float,
) -> Dict[NodeId, float]:
    """Earliest time each node can receive a message under epidemic forwarding.

    Implemented as a step-wise epidemic closure over the space-time graph:
    at every step, every connected component of the contact graph that
    contains an infected node becomes entirely infected at that step's vertex
    time.  The source is "infected" at the creation time itself.

    The value for a node equals the arrival time of the optimal path to that
    node, i.e. ``T(σ, x, t1) = T_Epidemic`` from the paper.
    """
    if source not in graph.nodes:
        raise ValueError(f"source {source} is not a node of the trace")
    infection: Dict[NodeId, float] = {source: creation_time}
    start_step = graph.step_of_time(creation_time)
    for step in range(start_step, graph.num_steps):
        adjacency = graph.adjacency(step)
        if not adjacency:
            continue
        if len(infection) == len(graph.nodes):
            break
        arrival_time = graph.time_of_step(step)
        for component in graph.components(step):
            if any(node in infection for node in component):
                for node in component:
                    infection.setdefault(node, arrival_time)
    return infection


def first_delivery_time(
    graph: SpaceTimeGraph,
    source: NodeId,
    destination: NodeId,
    creation_time: float,
) -> Optional[float]:
    """``T1`` — arrival time of the optimal path, or None if undeliverable.

    Cheaper than full enumeration; agrees with the first delivery of
    :meth:`PathEnumerator.enumerate` (a property exercised by the tests).
    """
    if destination not in graph.nodes:
        raise ValueError(f"destination {destination} is not a node of the trace")
    times = epidemic_infection_times(graph, source, creation_time)
    return times.get(destination)
