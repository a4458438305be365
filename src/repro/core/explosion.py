"""Path-explosion analysis (Section 4.2 of the paper).

Given the delivery stream produced by :mod:`repro.core.enumeration`, this
module computes the quantities the paper builds its measurement study on:

* ``T1`` — the arrival time of the optimal (first) path; its duration
  ``T1 − t1`` is the *optimal path duration* (Figure 4a);
* ``T_n`` — the arrival time of the n-th path;
* ``TE = T_n* − T1`` — the *time to explosion*, where ``n*`` is the explosion
  threshold (2000 in the paper, configurable here) (Figure 4b);
* the full arrival curve (number of paths delivered as a function of time
  since ``T1``) used in Figures 6 and 12.

The per-message result is an :class:`ExplosionRecord`; :func:`analyze_dataset`
runs the analysis over a batch of messages and is the workhorse behind the
Figure 4/5/6/8 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..contacts import ContactTrace, NodeId
from .enumeration import EnumerationResult, PathEnumerator, DEFAULT_K
from .path import Path
from .space_time_graph import SpaceTimeGraph

__all__ = [
    "DEFAULT_EXPLOSION_THRESHOLD",
    "ExplosionRecord",
    "analyze_message",
    "analyze_dataset",
    "random_messages",
    "arrival_curve",
]

#: The paper declares path explosion at 2000 delivered paths (and notes the
#: number is not sacrosanct).
DEFAULT_EXPLOSION_THRESHOLD = 2000


@dataclass
class ExplosionRecord:
    """Path-explosion summary for a single message ``(σ, δ, t1)``."""

    source: NodeId
    destination: NodeId
    creation_time: float
    n_explosion: int
    num_paths: int
    optimal_duration: Optional[float]
    time_to_explosion: Optional[float]
    arrival_durations: List[float] = field(default_factory=list)
    hop_counts: List[int] = field(default_factory=list)
    paths: List[Path] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        """True if at least one path reached the destination."""
        return self.num_paths > 0

    @property
    def exploded(self) -> bool:
        """True if at least ``n_explosion`` paths reached the destination."""
        return self.num_paths >= self.n_explosion

    @property
    def t1(self) -> Optional[float]:
        """Absolute arrival time of the optimal path."""
        if not self.delivered:
            return None
        return self.creation_time + self.arrival_durations[0]

    def arrivals_since_t1(self) -> List[float]:
        """Delivery times measured from the optimal path's arrival."""
        if not self.delivered:
            return []
        first = self.arrival_durations[0]
        return [d - first for d in self.arrival_durations]


def analyze_message(
    enumerator: PathEnumerator,
    source: NodeId,
    destination: NodeId,
    creation_time: float,
    n_explosion: int = DEFAULT_EXPLOSION_THRESHOLD,
    keep_paths: bool = False,
) -> ExplosionRecord:
    """Enumerate paths for one message and summarise its explosion behaviour.

    Parameters
    ----------
    enumerator:
        A :class:`PathEnumerator` built over the dataset's space-time graph;
        its ``k`` should be at least ``n_explosion`` for ``TE`` to be exact.
    keep_paths:
        Store the full paths in the record (needed for hop-gradient analysis,
        Figures 14–15; costs memory for large ``n_explosion``).

    The record's times and hop counts are read from the deliveries
    without their paths, so with ``keep_paths=False`` the fast engine
    builds no :class:`~repro.core.path.Path` (a delivery builds its path
    when ``path`` is first read).
    """
    if n_explosion < 1:
        raise ValueError("n_explosion must be >= 1")
    result = enumerator.enumerate(
        source, destination, creation_time,
        max_total_deliveries=n_explosion,
    )
    durations = result.arrival_durations()
    time_to_explosion: Optional[float] = None
    if len(durations) >= n_explosion:
        time_to_explosion = durations[n_explosion - 1] - durations[0]
    return ExplosionRecord(
        source=source,
        destination=destination,
        creation_time=creation_time,
        n_explosion=n_explosion,
        num_paths=result.num_deliveries,
        optimal_duration=result.optimal_duration,
        time_to_explosion=time_to_explosion,
        arrival_durations=durations,
        hop_counts=[d.hop_count for d in result.deliveries],
        paths=result.paths() if keep_paths else [],
    )


def random_messages(
    trace: ContactTrace,
    num_messages: int,
    seed: Union[int, np.random.Generator, None] = None,
    generation_window: Optional[Tuple[float, float]] = None,
) -> List[Tuple[NodeId, NodeId, float]]:
    """Draw ``(source, destination, creation_time)`` triples uniformly at random.

    Sources and destinations are distinct nodes chosen uniformly from the
    trace's node set; creation times are uniform over *generation_window*
    (default: the first two-thirds of the trace, mirroring the paper's
    "messages only during the initial 2 hours of each 3-hour window").
    """
    if num_messages < 0:
        raise ValueError("num_messages must be non-negative")
    if trace.num_nodes < 2:
        raise ValueError("need at least two nodes to create messages")
    rng = np.random.default_rng(seed)
    nodes = sorted(trace.nodes)
    if generation_window is None:
        generation_window = (0.0, trace.duration * 2.0 / 3.0)
    lo, hi = generation_window
    if not 0 <= lo < hi <= trace.duration:
        raise ValueError(f"invalid generation window {generation_window}")
    messages: List[Tuple[NodeId, NodeId, float]] = []
    for _ in range(num_messages):
        src_index = int(rng.integers(len(nodes)))
        dst_index = int(rng.integers(len(nodes) - 1))
        if dst_index >= src_index:
            dst_index += 1
        t1 = float(rng.uniform(lo, hi))
        messages.append((nodes[src_index], nodes[dst_index], t1))
    return messages


def analyze_dataset(
    trace: ContactTrace,
    messages: Iterable[Tuple[NodeId, NodeId, float]],
    n_explosion: int = DEFAULT_EXPLOSION_THRESHOLD,
    k: Optional[int] = None,
    delta: float = 10.0,
    keep_paths: bool = False,
    graph: Optional[SpaceTimeGraph] = None,
    engine: str = "fast",
) -> List[ExplosionRecord]:
    """Run the path-explosion analysis over a batch of messages.

    Builds the space-time graph once (unless one is supplied) and reuses it
    for every message.  *engine* selects the enumeration engine (``"fast"``
    or ``"reference"``; see :class:`PathEnumerator`).
    """
    if graph is None:
        graph = SpaceTimeGraph(trace, delta=delta)
    enumerator = PathEnumerator(graph, k=k if k is not None else max(n_explosion, 1),
                                engine=engine)
    records = []
    for source, destination, creation_time in messages:
        records.append(
            analyze_message(enumerator, source, destination, creation_time,
                            n_explosion=n_explosion, keep_paths=keep_paths)
        )
    return records


def arrival_curve(
    record: ExplosionRecord,
    bin_seconds: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative number of delivered paths versus time since ``T1``.

    When *bin_seconds* is None the raw (time, cumulative count) staircase is
    returned; otherwise arrivals are binned, which is how Figure 6 presents
    the growth of the path count for slow-explosion messages.
    """
    arrivals = np.array(record.arrivals_since_t1(), dtype=float)
    if arrivals.size == 0:
        return np.array([]), np.array([])
    if bin_seconds is None:
        counts = np.arange(1, arrivals.size + 1, dtype=float)
        return arrivals, counts
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    last = arrivals.max()
    n_bins = int(np.floor(last / bin_seconds)) + 1
    edges = np.arange(n_bins + 1, dtype=float) * bin_seconds
    histogram, _ = np.histogram(arrivals, bins=edges)
    return edges[:-1], np.cumsum(histogram).astype(float)
