"""Minimum Expected Delay (MEED) metric used by the Dynamic Programming algorithm.

The paper's "Dynamic Programming" forwarding algorithm is based on the
Minimum Expected Delay idea of Jain, Fall and Patra [9] (and the MEED
refinement of Jones, Li and Ward [10]): compute the expected waiting delay
between every pair of nodes from their (full, i.e. future-knowledge) contact
history, then route each message along the path that minimises the total
expected delay to the destination.

Two pieces are implemented here:

* :func:`pairwise_expected_delays` — for every pair that meets at least once,
  the expected time a message arriving at a uniformly random instant would
  wait for the next contact of that pair.  With contacts at intervals
  ``[s_1, e_1], ..., [s_m, e_m]`` over a window of length ``T`` the waiting
  time is 0 while a contact is active and decreases linearly to the next
  contact start otherwise; the timeline is treated as wrapping around (the
  standard stationarity approximation), so the expectation is
  ``Σ gap_i² / (2 T)`` over the inter-contact gaps including the wrap-around
  gap.
* :class:`MeedTable` — all-pairs minimum expected delay obtained by running
  Dijkstra over the contact graph weighted by the pairwise expected delays,
  with per-destination distance lookups used by the forwarding rule
  ("forward to the peer whose expected remaining delay is smaller").

The Dijkstra is a plain ``heapq`` search that relaxes with ``dist[v] + w``,
so its distances are the exact float values of a textbook Dijkstra on the
same graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Tuple

from ..contacts import ContactTrace, NodeId

__all__ = ["pairwise_expected_delays", "MeedTable"]


def pairwise_expected_delays(trace: ContactTrace) -> Dict[Tuple[NodeId, NodeId], float]:
    """Expected waiting delay for each node pair that meets at least once.

    Returns a mapping from the canonical ``(min, max)`` pair to the expected
    delay in seconds.  Pairs that never meet are absent (their expected delay
    is effectively infinite and they contribute no edge to the MEED graph).
    """
    duration = trace.duration
    if duration <= 0:
        return {}
    per_pair: Dict[Tuple[NodeId, NodeId], List[Tuple[float, float]]] = {}
    for contact in trace:
        per_pair.setdefault(contact.pair, []).append((contact.start, contact.end))

    delays: Dict[Tuple[NodeId, NodeId], float] = {}
    for pair, intervals in per_pair.items():
        intervals.sort()
        merged = _merge_intervals(intervals)
        gaps: List[float] = []
        for (prev_start, prev_end), (next_start, next_end) in zip(merged, merged[1:]):
            gaps.append(max(0.0, next_start - prev_end))
        # Wrap-around gap: from the end of the last contact, through the end
        # of the window, to the start of the first contact.
        first_start = merged[0][0]
        last_end = merged[-1][1]
        gaps.append(max(0.0, (duration - last_end) + first_start))
        expected = sum(g * g for g in gaps) / (2.0 * duration)
        delays[pair] = expected
    return delays


def _merge_intervals(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping contact intervals of the same pair."""
    merged: List[Tuple[float, float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


Adjacency = Dict[NodeId, Dict[NodeId, float]]


def _meed_graph(trace: ContactTrace) -> Adjacency:
    """Undirected MEED graph: every trace node, one edge per meeting pair."""
    adjacency: Adjacency = {node: {} for node in trace.nodes}
    for (a, b), delay in pairwise_expected_delays(trace).items():
        adjacency.setdefault(a, {})[b] = delay
        adjacency.setdefault(b, {})[a] = delay
    return adjacency


def _dijkstra(adjacency: Adjacency, source: NodeId,
              target: Optional[NodeId] = None
              ) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
    """Single-source Dijkstra; returns ``(distances, predecessors)``.

    Distances are settled in non-decreasing order and the search stops once
    *target* (if given) is settled.  ``predecessors`` maps every reached
    node except *source* to the node it was first reached from at its final
    distance.
    """
    dist: Dict[NodeId, float] = {}
    seen: Dict[NodeId, float] = {source: 0.0}
    pred: Dict[NodeId, NodeId] = {}
    tie = count()
    fringe = [(0.0, next(tie), source)]
    while fringe:
        dist_v, _, v = heapq.heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        if v == target:
            break
        for u, weight in adjacency[v].items():
            vu_dist = dist_v + weight
            # Weights are non-negative, so a settled node never improves.
            if vu_dist < seen.get(u, math.inf):
                seen[u] = vu_dist
                pred[u] = v
                heapq.heappush(fringe, (vu_dist, next(tie), u))
    return dist, pred


@dataclass
class MeedTable:
    """All-pairs minimum expected delays over the MEED graph.

    Build with :meth:`from_trace`; query with :meth:`distance`.
    """

    distances: Dict[NodeId, Dict[NodeId, float]]

    @classmethod
    def from_trace(cls, trace: ContactTrace) -> "MeedTable":
        """Compute the table from the full trace (future knowledge)."""
        adjacency = _meed_graph(trace)
        return cls(distances={source: _dijkstra(adjacency, source)[0]
                              for source in adjacency})

    def distance(self, node: NodeId, destination: NodeId) -> float:
        """Minimum expected delay from *node* to *destination* (inf if disconnected)."""
        return self.distances.get(node, {}).get(destination, math.inf)

    def reachable(self, node: NodeId, destination: NodeId) -> bool:
        return math.isfinite(self.distance(node, destination))

    def expected_delay_path(self, trace: ContactTrace, source: NodeId,
                            destination: NodeId) -> Optional[List[NodeId]]:
        """The min-expected-delay node sequence, or None if disconnected.

        Provided for inspection and examples; the forwarding rule itself only
        needs the distances.
        """
        dist, pred = _dijkstra(_meed_graph(trace), source, destination)
        if destination not in dist:
            return None
        path = [destination]
        while path[-1] != source:
            path.append(pred[path[-1]])
        path.reverse()
        return path
