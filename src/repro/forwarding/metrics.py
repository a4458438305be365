"""Performance metrics and algorithm-comparison harness (Section 6.2).

The paper's two headline metrics are the *success rate* ``S_A`` (fraction of
messages delivered before the end of the window) and the *average delay*
``D_A`` over delivered messages.  This module provides:

* :class:`PerformanceSummary` — (success rate, mean delay, delay percentiles)
  of one algorithm on one dataset;
* :func:`leaderboard_rows` — per-protocol summaries ranked into
  leaderboard rows;
* :func:`pooled_leaderboard_rows` — per-protocol result lists pooled and
  ranked: the one rule behind the tournament's final table and the live
  feed's standings;
* :func:`delay_distribution` — the full delay CDF (Figure 10);
* :func:`summarize_by_pair_type` — metrics broken down by in/out pair type
  (Figure 13);
* :func:`compare_algorithms` — run a set of algorithms over one or more
  workload realisations and collect everything the Figure 9/10/13 benchmarks
  need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..contacts import ContactTrace
from ..core.pair_types import PairType, RateClassification, classify_nodes
from ..exp.pool import process_map
from .algorithms import RoutingProtocol
from .messages import Message, PoissonMessageWorkload
from .simulator import DeliveryOutcome, ForwardingSimulator, SimulationResult

__all__ = [
    "PerformanceSummary",
    "summarize",
    "leaderboard_rows",
    "pooled_leaderboard_rows",
    "delay_distribution",
    "summarize_by_pair_type",
    "compare_algorithms",
    "ComparisonResult",
]


@dataclass(frozen=True)
class PerformanceSummary:
    """Success rate and delay statistics of one algorithm on one dataset.

    ``copies_sent`` is the total number of copy transfers the simulator
    counted (``None`` on results that predate the counter or breakdowns
    that cannot attribute copies, e.g. per-pair-type); the derived
    ``copies_per_delivery`` is the paper-era cost metric the replication
    protocols trade against delay.

    The fault counters (``lost_transfers``, ``retransmissions``,
    ``node_crashes``) are populated when the summarized result carries
    :class:`~repro.sim.engine.ResourceStats` (DES engine runs) and stay
    ``None`` otherwise — :meth:`as_row` only emits their columns when
    they are known, so idealized-simulator tables are unchanged.
    """

    algorithm: str
    num_messages: int
    num_delivered: int
    success_rate: float
    average_delay: Optional[float]
    median_delay: Optional[float]
    p90_delay: Optional[float]
    copies_sent: Optional[int] = None
    lost_transfers: Optional[int] = None
    retransmissions: Optional[int] = None
    node_crashes: Optional[int] = None

    @classmethod
    def from_delays(
        cls,
        algorithm: str,
        num_messages: int,
        num_delivered: int,
        delays: Union[Sequence[float], np.ndarray],
        copies_sent: Optional[int] = None,
        **fault_counters,
    ) -> "PerformanceSummary":
        """Build a summary from a batch delay array.

        This is *the* summary computation — ``np.mean`` / ``np.median`` /
        ``np.percentile`` over the delivered delays — shared by
        :func:`summarize`, :func:`summarize_by_pair_type` and
        :func:`pooled_leaderboard_rows`, so every report of the same
        delays agrees to the last bit.
        """
        delays = np.asarray(delays, dtype=float)
        return cls(
            algorithm=algorithm,
            num_messages=num_messages,
            num_delivered=num_delivered,
            success_rate=(num_delivered / num_messages) if num_messages else 0.0,
            average_delay=float(delays.mean()) if delays.size else None,
            median_delay=float(np.median(delays)) if delays.size else None,
            p90_delay=float(np.percentile(delays, 90)) if delays.size else None,
            copies_sent=copies_sent,
            **fault_counters,
        )

    @property
    def copies_per_delivery(self) -> Optional[float]:
        """Copy transfers per delivered message (overhead), or None."""
        if self.copies_sent is None or not self.num_delivered:
            return None
        return self.copies_sent / self.num_delivered

    def as_row(self) -> Dict[str, Union[str, float, int, None]]:
        """A flat dict suitable for printing as a results-table row.

        Fault-cost columns (``lost``, ``retx``, ``crashes``) appear only
        when the counters are known, so pre-fault tables keep their
        historical shape.
        """
        overhead = self.copies_per_delivery
        row: Dict[str, Union[str, float, int, None]] = {
            "algorithm": self.algorithm,
            "messages": self.num_messages,
            "delivered": self.num_delivered,
            "success_rate": round(self.success_rate, 4),
            "avg_delay_s": None if self.average_delay is None else round(self.average_delay, 1),
            "median_delay_s": None if self.median_delay is None else round(self.median_delay, 1),
            "p90_delay_s": None if self.p90_delay is None else round(self.p90_delay, 1),
            "copies": self.copies_sent,
            "copies/delivery": None if overhead is None else round(overhead, 2),
        }
        if self.lost_transfers is not None:
            row["lost"] = self.lost_transfers
        if self.retransmissions is not None:
            row["retx"] = self.retransmissions
        if self.node_crashes is not None:
            row["crashes"] = self.node_crashes
        return row


def _fault_counters(result: SimulationResult) -> Dict[str, int]:
    """The fault telemetry of *result*, when it carries ResourceStats."""
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    return {
        "lost_transfers": stats.lost_transfers,
        "retransmissions": stats.retransmissions,
        "node_crashes": stats.node_crashes,
    }


def summarize(result: SimulationResult) -> PerformanceSummary:
    """Collapse a :class:`SimulationResult` into a :class:`PerformanceSummary`."""
    return PerformanceSummary.from_delays(
        algorithm=result.algorithm,
        num_messages=result.num_messages,
        num_delivered=result.num_delivered,
        delays=result.delays(),
        copies_sent=result.copies_sent,
        **_fault_counters(result),
    )


def leaderboard_rows(summaries: Mapping[str, PerformanceSummary],
                     **leading) -> List[Dict[str, object]]:
    """Rank per-protocol summaries into leaderboard rows.

    The ranking is success rate (descending), then median delay, then
    copies per delivery (ascending): deliver the most, fast, cheap.  It
    sorts on the unrounded values and rounds only the emitted columns, so
    two protocols that differ beyond the printed precision never tie.
    *leading* columns (e.g. the tournament's ``scenarios`` count) follow
    the protocol name; fault-cost columns appear when the counters are
    known.
    """
    def rank_key(item):
        summary = item[1]
        overhead = summary.copies_per_delivery
        return (-summary.success_rate,
                inf if summary.median_delay is None else summary.median_delay,
                inf if overhead is None else overhead)

    rows = []
    for position, (protocol, summary) in enumerate(
            sorted(summaries.items(), key=rank_key), start=1):
        overhead = summary.copies_per_delivery
        row: Dict[str, object] = {
            "rank": position,
            "protocol": protocol,
            **leading,
            "messages": summary.num_messages,
            "delivered": summary.num_delivered,
            "success_rate": round(summary.success_rate, 3),
            "median_delay_s": (None if summary.median_delay is None
                               else round(summary.median_delay, 1)),
            "p90_delay_s": (None if summary.p90_delay is None
                            else round(summary.p90_delay, 1)),
            "copies/delivery": (None if overhead is None
                                else round(overhead, 2)),
        }
        if summary.lost_transfers is not None:
            row["lost"] = summary.lost_transfers
            row["retx"] = summary.retransmissions
            row["crashes"] = summary.node_crashes
        rows.append(row)
    return rows


def _pooled_summary(algorithm: str, results: Iterable) -> PerformanceSummary:
    """One summary of several results of one protocol.

    Equal to ``summarize(merge_constrained_results(results,
    validate=False))`` on simulator results: outcomes concatenate and copy
    counters sum.  It also accepts anything with ``outcomes`` and
    ``copies_sent``: an unknown (``None``) copy counter makes the total
    unknown, and the fault counters are summed over the results that carry
    :class:`~repro.sim.engine.ResourceStats` and stay unknown when none
    does.  An empty *results* pools to zero messages.
    """
    delays: List[float] = []
    num_messages = num_delivered = 0
    copies: Optional[int] = 0
    faults: Dict[str, int] = {}
    for result in results:
        for outcome in result.outcomes:
            num_messages += 1
            if outcome.delivered:
                num_delivered += 1
                if outcome.delay is not None:
                    delays.append(outcome.delay)
        if copies is not None:
            copies = (None if result.copies_sent is None
                      else copies + result.copies_sent)
        for name, value in _fault_counters(result).items():
            faults[name] = faults.get(name, 0) + value
    return PerformanceSummary.from_delays(
        algorithm=algorithm, num_messages=num_messages,
        num_delivered=num_delivered, delays=delays, copies_sent=copies,
        **faults)


def pooled_leaderboard_rows(results: Mapping[str, Iterable],
                            **leading) -> List[Dict[str, object]]:
    """Pool each protocol's results and rank them with
    :func:`leaderboard_rows`.

    *results* maps a protocol name to its results, in any order: the
    ranked columns (success rate, median and p90 delay, copies per
    delivery, fault counters) do not depend on the pooling order.  The
    tournament's final table and :class:`repro.obs.LiveLeaderboard` both
    call this, so live standings over the same results equal the final
    ones.
    """
    return leaderboard_rows(
        {protocol: _pooled_summary(protocol, runs)
         for protocol, runs in results.items()},
        **leading)


def delay_distribution(
    results: Union[SimulationResult, Sequence[SimulationResult]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of delivery delays, pooled over one or more runs.

    Returns ``(delays, cdf)`` where ``cdf[i]`` is the fraction of *delivered*
    messages with delay ``<= delays[i]`` (the Figure 10 curves plot the
    fraction of all messages; multiply by the success rate to convert).
    """
    if isinstance(results, SimulationResult):
        results = [results]
    samples: List[float] = []
    for result in results:
        samples.extend(result.delays())
    delays = np.sort(np.array(samples, dtype=float))
    if delays.size == 0:
        return delays, delays
    cdf = np.arange(1, delays.size + 1, dtype=float) / delays.size
    return delays, cdf


def summarize_by_pair_type(
    result: SimulationResult,
    classification: RateClassification,
) -> Dict[PairType, PerformanceSummary]:
    """Per-pair-type success rate and delay (the Figure 13 breakdown)."""
    grouped: Dict[PairType, List[DeliveryOutcome]] = {pt: [] for pt in PairType.ordered()}
    for outcome in result.outcomes:
        pair_type = classification.pair_type(outcome.message.source,
                                             outcome.message.destination)
        grouped[pair_type].append(outcome)
    summaries: Dict[PairType, PerformanceSummary] = {}
    for pair_type, outcomes in grouped.items():
        delays = [o.delay for o in outcomes
                  if o.delivered and o.delay is not None]
        delivered = int(sum(1 for o in outcomes if o.delivered))
        summaries[pair_type] = PerformanceSummary.from_delays(
            algorithm=result.algorithm,
            num_messages=len(outcomes),
            num_delivered=delivered,
            delays=delays,
        )
    return summaries


@dataclass
class ComparisonResult:
    """Everything produced by :func:`compare_algorithms`."""

    trace_name: str
    runs_per_algorithm: int
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)
    classification: Optional[RateClassification] = None

    def summaries(self) -> Dict[str, PerformanceSummary]:
        """Per-algorithm summary pooled over all runs."""
        return {name: summarize(self.pooled_result(name)) for name in self.results}

    def pooled_result(self, algorithm: str) -> SimulationResult:
        """All runs of one algorithm merged into a single result.

        ``copies_sent`` is the sum over runs, or ``None`` if any run lacks
        the counter.
        """
        merged = SimulationResult(algorithm=algorithm, trace_name=self.trace_name)
        runs = self.results[algorithm]
        for run in runs:
            merged.outcomes.extend(run.outcomes)
        if runs and all(run.copies_sent is not None for run in runs):
            merged.copies_sent = sum(run.copies_sent for run in runs)
        return merged

    def pair_type_summaries(self) -> Dict[str, Dict[PairType, PerformanceSummary]]:
        if self.classification is None:
            raise RuntimeError("comparison was run without a rate classification")
        return {
            name: summarize_by_pair_type(self.pooled_result(name), self.classification)
            for name in self.results
        }

    def delay_success_points(self) -> Dict[str, Tuple[float, Optional[float]]]:
        """(success rate, average delay) per algorithm — the Figure 9 points."""
        return {
            name: (summary.success_rate, summary.average_delay)
            for name, summary in self.summaries().items()
        }


# The trace is shared by every (run, algorithm) simulation, so it is shipped
# to each worker once via the pool initializer (run in this process when
# workers=1) rather than pickled into every job.
_SIMULATION_WORKER: Dict[str, ContactTrace] = {}


def _init_simulation_worker(trace: ContactTrace) -> None:
    _SIMULATION_WORKER["trace"] = trace


def _run_simulation_job(
    job: Tuple[RoutingProtocol, Sequence[Message], str],
) -> SimulationResult:
    """Top-level job of the comparison (must be picklable)."""
    algorithm, run_messages, copy_semantics = job
    simulator = ForwardingSimulator(_SIMULATION_WORKER["trace"], algorithm,
                                    copy_semantics=copy_semantics)
    return simulator.run(run_messages)


def compare_algorithms(
    trace: ContactTrace,
    algorithms: Sequence[RoutingProtocol],
    workload: Optional[PoissonMessageWorkload] = None,
    messages: Optional[Sequence[Message]] = None,
    num_runs: int = 1,
    seed: Union[int, np.random.Generator, None] = None,
    copy_semantics: str = "copy",
    workers: int = 1,
) -> ComparisonResult:
    """Run every algorithm on identical message workloads and collect results.

    Either a *workload* (regenerated per run with a fresh seed, as the paper
    averages over 10 runs) or an explicit fixed *messages* list must be
    given.  Every algorithm within a run sees exactly the same messages, so
    the comparison is paired.

    ``workers=N > 1`` distributes the (run, algorithm) simulations over a
    pool of N processes.  Workloads are still drawn sequentially in the
    parent process, so the messages — and therefore the results — are
    identical to an in-process run.
    """
    if (workload is None) == (messages is None):
        raise ValueError("provide exactly one of workload or messages")
    if num_runs < 1:
        raise ValueError("num_runs must be positive")
    rng = np.random.default_rng(seed)
    comparison = ComparisonResult(
        trace_name=trace.name,
        runs_per_algorithm=num_runs,
        classification=classify_nodes(trace),
    )
    for name in (a.name for a in algorithms):
        comparison.results.setdefault(name, [])
    messages_per_run: List[Sequence[Message]] = []
    for _ in range(num_runs):
        if workload is not None:
            messages_per_run.append(workload.generate(trace, seed=rng))
        else:
            messages_per_run.append(list(messages or []))
    jobs = [
        (algorithm, run_messages, copy_semantics)
        for run_messages in messages_per_run
        for algorithm in algorithms
    ]
    try:
        results = process_map(_run_simulation_job, jobs, workers=workers,
                              initializer=_init_simulation_worker,
                              initargs=(trace,))
    finally:
        # an in-process map stored the trace here: don't pin it
        _SIMULATION_WORKER.clear()
    job_index = 0
    for _ in range(num_runs):
        for algorithm in algorithms:
            comparison.results[algorithm.name].append(results[job_index])
            job_index += 1
    return comparison
