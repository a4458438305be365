"""Per-figure data builders.

One function per figure of the paper's evaluation.  Each returns plain data
structures (numpy arrays, dicts, dataclass lists) holding exactly the series
the corresponding figure plots; the benchmark harness prints them and
EXPERIMENTS.md records the comparison with the paper.  Heavy inputs
(explosion records, forwarding comparisons) are produced once by the runners
in :mod:`repro.analysis.experiments` and passed in, so building several
figures from the same study does not repeat the expensive work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..contacts import ContactTrace, NodeId, contact_count_distribution, contact_time_series
from ..core import (
    ExplosionRecord,
    HopRateSummary,
    PairType,
    Path,
    RateClassification,
    RatioBoxStats,
    SpaceTimeGraph,
    classify_nodes,
    hop_rate_summary,
    ratio_box_stats,
)
from ..forwarding import ComparisonResult, PerformanceSummary, delay_distribution
from .cdf import empirical_cdf, exponential_growth_rate

__all__ = [
    "figure1_contact_timeseries",
    "figure2_space_time_graph_example",
    "figure4_duration_and_explosion_cdfs",
    "figure5_duration_vs_explosion",
    "figure6_path_growth",
    "figure7_contact_count_cdfs",
    "figure8_pair_type_scatter",
    "figure9_delay_vs_success",
    "figure10_delay_distributions",
    "figure11_reception_times",
    "figure12_paths_taken",
    "figure13_pair_type_performance",
    "figure14_hop_rates",
    "figure15_rate_ratios",
]


# ----------------------------------------------------------------------
# Section 3: the datasets
# ----------------------------------------------------------------------
def figure1_contact_timeseries(
    traces: Mapping[str, ContactTrace],
    bin_seconds: float = 60.0,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Time series of total contacts per minute for each dataset (Figure 1)."""
    return {name: contact_time_series(trace, bin_seconds)
            for name, trace in traces.items()}


def figure2_space_time_graph_example() -> Dict[str, object]:
    """The three-node example space-time graph of Figure 2.

    Nodes 1 and 2 are in contact during the first timestep; all three nodes
    are mutually in contact during the second.  Returns the vertex list and
    the two edge lists (contact edges with weight 0, waiting edges with
    weight 1) of the materialised graph.
    """
    from ..contacts import Contact, ContactTrace as _Trace

    trace = _Trace(
        [Contact(0.0, 10.0, 1, 2),
         Contact(10.0, 20.0, 1, 2),
         Contact(10.0, 20.0, 2, 3),
         Contact(10.0, 20.0, 1, 3)],
        nodes=[1, 2, 3],
        duration=20.0,
        name="figure2-example",
    )
    graph = SpaceTimeGraph(trace, delta=10.0)
    times = [graph.time_of_step(step) for step in range(graph.num_steps)]
    nodes = sorted(graph.nodes)
    contact_edges = [((a, t), (b, t))
                     for step, t in enumerate(times)
                     for a, peers in graph.adjacency(step).items()
                     for b in peers]
    waiting_edges = [((node, t), (node, t_next))
                     for t, t_next in zip(times, times[1:])
                     for node in nodes]
    return {
        "vertices": sorted((node, t) for t in times for node in nodes),
        "contact_edges": sorted(contact_edges),
        "waiting_edges": sorted(waiting_edges),
    }


def figure7_contact_count_cdfs(
    traces: Mapping[str, ContactTrace],
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """CDF of per-node total contact counts for each dataset (Figure 7)."""
    return {name: contact_count_distribution(trace)
            for name, trace in traces.items()}


# ----------------------------------------------------------------------
# Section 4: path explosion
# ----------------------------------------------------------------------
def figure4_duration_and_explosion_cdfs(
    records_by_dataset: Mapping[str, Sequence[ExplosionRecord]],
) -> Dict[str, Dict[str, Tuple[np.ndarray, np.ndarray]]]:
    """CDFs of optimal path duration (4a) and time to explosion (4b)."""
    durations: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    explosions: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name, records in records_by_dataset.items():
        duration_samples = [r.optimal_duration for r in records
                            if r.optimal_duration is not None]
        te_samples = [r.time_to_explosion for r in records
                      if r.time_to_explosion is not None]
        durations[name] = empirical_cdf(duration_samples)
        explosions[name] = empirical_cdf(te_samples)
    return {"optimal_path_duration": durations, "time_to_explosion": explosions}


def figure5_duration_vs_explosion(
    records: Sequence[ExplosionRecord],
) -> List[Tuple[float, float]]:
    """Scatter of (optimal path duration, time to explosion) per message."""
    points = []
    for record in records:
        if record.optimal_duration is None or record.time_to_explosion is None:
            continue
        points.append((record.optimal_duration, record.time_to_explosion))
    return points


@dataclass(frozen=True)
class PathGrowthSummary:
    """Aggregated path-arrival histogram for slow-explosion messages."""

    bin_starts: np.ndarray
    mean_cumulative_paths: np.ndarray
    num_messages: int
    growth_rate: Optional[float]


def figure6_path_growth(
    records: Sequence[ExplosionRecord],
    te_threshold: float = 150.0,
    bin_seconds: float = 10.0,
    horizon: float = 250.0,
) -> PathGrowthSummary:
    """Mean cumulative path count vs time since T1, for messages whose time
    to explosion exceeds *te_threshold* (Figure 6), plus an exponential fit.
    """
    slow = [r for r in records
            if r.time_to_explosion is not None and r.time_to_explosion >= te_threshold]
    bins = np.arange(0.0, horizon + bin_seconds, bin_seconds)
    if not slow:
        return PathGrowthSummary(bin_starts=bins[:-1],
                                 mean_cumulative_paths=np.zeros(len(bins) - 1),
                                 num_messages=0, growth_rate=None)
    cumulative = np.zeros((len(slow), len(bins) - 1), dtype=float)
    for index, record in enumerate(slow):
        arrivals = np.array(record.arrivals_since_t1(), dtype=float)
        histogram, _ = np.histogram(arrivals, bins=bins)
        cumulative[index] = np.cumsum(histogram)
    mean_curve = cumulative.mean(axis=0)
    rate = exponential_growth_rate(bins[:-1], mean_curve)
    return PathGrowthSummary(bin_starts=bins[:-1], mean_cumulative_paths=mean_curve,
                             num_messages=len(slow), growth_rate=rate)


def figure8_pair_type_scatter(
    trace: ContactTrace,
    records: Sequence[ExplosionRecord],
    classification: Optional[RateClassification] = None,
) -> Dict[PairType, List[Tuple[float, float]]]:
    """Figure 5's scatter split into the four in/out pair types (Figure 8)."""
    if classification is None:
        classification = classify_nodes(trace)
    groups: Dict[PairType, List[Tuple[float, float]]] = {pt: [] for pt in PairType.ordered()}
    for record in records:
        if record.optimal_duration is None or record.time_to_explosion is None:
            continue
        pair_type = classification.pair_type(record.source, record.destination)
        groups[pair_type].append((record.optimal_duration, record.time_to_explosion))
    return groups


def figure11_reception_times(
    records: Sequence[ExplosionRecord],
    bin_seconds: float = 60.0,
    duration: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative count of path receptions over absolute time (Figure 11).

    The paper uses this to show delivery is not bursty: the cumulative curve
    of optimal and near-optimal path arrival times grows fairly uniformly.
    """
    arrivals: List[float] = []
    for record in records:
        if not record.delivered:
            continue
        base = record.creation_time
        arrivals.extend(base + d for d in record.arrival_durations)
    if not arrivals:
        return np.array([]), np.array([])
    last = duration if duration is not None else max(arrivals)
    n_bins = max(1, int(np.ceil(last / bin_seconds)))
    edges = np.arange(n_bins + 1, dtype=float) * bin_seconds
    histogram, _ = np.histogram(np.array(arrivals), bins=edges)
    return edges[:-1], np.cumsum(histogram).astype(float)


@dataclass(frozen=True)
class PathsTakenSummary:
    """Figure 12 data for one message: the arrival bursts and where each
    forwarding algorithm's delivery falls among them."""

    source: NodeId
    destination: NodeId
    burst_offsets: np.ndarray
    burst_counts: np.ndarray
    algorithm_offsets: Dict[str, Optional[float]]


def figure12_paths_taken(
    record: ExplosionRecord,
    algorithm_delays: Mapping[str, Optional[float]],
    bin_seconds: float = 10.0,
) -> PathsTakenSummary:
    """Overlay each algorithm's delivery on a message's path-arrival bursts.

    *algorithm_delays* maps algorithm name to that message's delivery delay
    (as produced by
    :func:`repro.analysis.experiments.message_delays_by_algorithm`); offsets
    in the result are measured from ``T1`` as in the paper's Figure 12.
    """
    if not record.delivered:
        raise ValueError("figure 12 needs a delivered message")
    arrivals = np.array(record.arrivals_since_t1(), dtype=float)
    last = arrivals.max() if arrivals.size else 0.0
    edges = np.arange(0.0, last + bin_seconds, bin_seconds)
    if edges.size < 2:
        edges = np.array([0.0, bin_seconds])
    counts, _ = np.histogram(arrivals, bins=edges)
    optimal_delay = record.arrival_durations[0]
    offsets: Dict[str, Optional[float]] = {}
    for name, delay in algorithm_delays.items():
        offsets[name] = None if delay is None else delay - optimal_delay
    return PathsTakenSummary(
        source=record.source,
        destination=record.destination,
        burst_offsets=edges[:-1],
        burst_counts=counts.astype(int),
        algorithm_offsets=offsets,
    )


# ----------------------------------------------------------------------
# Section 6: forwarding performance
# ----------------------------------------------------------------------
def figure9_delay_vs_success(
    comparisons: Mapping[str, ComparisonResult],
) -> Dict[str, Dict[str, Tuple[float, Optional[float]]]]:
    """(success rate, average delay) per algorithm per dataset (Figure 9)."""
    return {name: comparison.delay_success_points()
            for name, comparison in comparisons.items()}


def figure10_delay_distributions(
    comparison: ComparisonResult,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Delay CDF per algorithm, scaled by success rate (Figure 10).

    The paper plots the fraction of *all* messages delivered within a given
    time, so the empirical delay CDF of delivered messages is multiplied by
    the algorithm's success rate.
    """
    curves: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name in comparison.results:
        pooled = comparison.pooled_result(name)
        delays, cdf = delay_distribution(pooled)
        curves[name] = (delays, cdf * pooled.success_rate())
    return curves


def figure13_pair_type_performance(
    comparison: ComparisonResult,
) -> Dict[str, Dict[PairType, PerformanceSummary]]:
    """Average delay and success rate per pair type per algorithm (Figure 13)."""
    return comparison.pair_type_summaries()


# ----------------------------------------------------------------------
# Section 6.2.2: the contact-rate gradient along paths
# ----------------------------------------------------------------------
def _paths_from_records(records: Sequence[ExplosionRecord]) -> List[Path]:
    paths: List[Path] = []
    for record in records:
        paths.extend(record.paths)
    if not paths:
        raise ValueError(
            "no stored paths; run the explosion study with keep_paths=True"
        )
    return paths


def figure14_hop_rates(
    trace: ContactTrace,
    records: Sequence[ExplosionRecord],
    max_hop: int = 10,
) -> List[HopRateSummary]:
    """Mean contact rate per hop index on near-optimal paths (Figure 14)."""
    rates = trace.contact_rates()
    return hop_rate_summary(_paths_from_records(records), rates, max_hop=max_hop)


def figure15_rate_ratios(
    trace: ContactTrace,
    records: Sequence[ExplosionRecord],
    max_transitions: int = 8,
) -> List[RatioBoxStats]:
    """Box statistics of consecutive-hop rate ratios (Figure 15)."""
    rates = trace.contact_rates()
    return ratio_box_stats(_paths_from_records(records), rates,
                           max_transitions=max_transitions)
