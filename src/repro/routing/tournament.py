"""Cross-scenario protocol tournament.

A tournament fans every selected protocol over every selected scenario and
seed as **one** :class:`repro.exp.ExperimentSpec` grid, planned and
dispatched through the shared orchestration layer (jobs carry protocol
*names*; instances and their state are built in the worker, and each
worker's trace cache builds every scenario trace once).  The pooled
outcomes aggregate into a leaderboard ranked by success rate (descending),
then median delay (ascending), then copies per delivery (ascending):
deliver the most, fast, cheap.

Per-protocol columns: success rate, median and p90 delay over delivered
messages, and copies-per-delivery overhead.  The per-cell results
(protocol × scenario × seed) stay available on the result object for
drill-down — each cell pooled by
:func:`repro.sim.runner.merge_constrained_results`, the same pooling every
other runner uses — and :meth:`TournamentResult.leaderboard_table` renders
through :func:`repro.analysis.tables.format_table` like every other report
in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.tables import format_table
from ..sim.engine import ConstrainedSimulationResult, ResourceConstraints
from ..sim.faults import ChannelSpec
from ..sim.runner import merge_constrained_results
from ..sim.scenarios import Scenario, get_scenario, scenario_names
from .registry import protocol_by_name, protocol_names

__all__ = ["TournamentResult", "lossy_variant", "run_tournament"]

#: (protocol, scenario, seed) — the key of one tournament cell.
CellKey = Tuple[str, str, int]


@dataclass
class TournamentResult:
    """Everything produced by :func:`run_tournament`."""

    protocols: List[str]
    scenarios: List[str]
    seeds: List[int]
    num_runs: int
    #: pooled result of each (protocol, scenario, seed) cell
    cells: Dict[CellKey, ConstrainedSimulationResult] = field(default_factory=dict)
    #: the executed :class:`~repro.exp.plan.ExperimentPlan` — carries the
    #: job hashes that name per-job trace files, so leaderboard gaps can
    #: be explained from a traced run's artifacts
    plan: Optional[object] = None

    # ------------------------------------------------------------------
    def pooled(self, protocol: str) -> List[ConstrainedSimulationResult]:
        """All cells of one protocol, across scenarios and seeds."""
        return [self.cells[(protocol, scenario, seed)]
                for scenario in self.scenarios for seed in self.seeds]

    def leaderboard_rows(self) -> List[Dict[str, object]]:
        """One ranked row per protocol (the tournament's headline table).

        Each row pools the protocol's cells across scenarios and seeds and
        ranks them through :func:`~repro.forwarding.metrics.
        pooled_leaderboard_rows` — the same function
        :class:`repro.obs.LiveLeaderboard` calls, so ``--live`` standings
        over the same results equal these rows.  The pool's delays are
        summarized by :meth:`~repro.forwarding.metrics.PerformanceSummary.
        from_delays`, the computation every other report uses; fault-cost
        columns (``lost``, ``retx``, ``crashes``) are the summed
        :class:`~repro.sim.engine.ResourceStats` of the cells.
        """
        from ..forwarding.metrics import pooled_leaderboard_rows

        return pooled_leaderboard_rows(
            {protocol: self.pooled(protocol) for protocol in self.protocols},
            scenarios=len(self.scenarios))

    def leaderboard_table(self) -> str:
        """The leaderboard as an aligned text table."""
        return format_table(self.leaderboard_rows())

    def explain(self, protocol_a: str, protocol_b: str,
                trace_dir: Union[str, Path]):
        """Explain the leaderboard gap between two protocols from traces.

        Requires the tournament to have run with tracing on (an
        :class:`~repro.obs.ObsConfig` whose ``trace_dir`` matches) — the
        per-job traces are diffed pairwise on identical (scenario, seed,
        run) coordinates via
        :func:`repro.obs.analyze.explain_protocol_gap`, and the returned
        :class:`~repro.obs.analyze.GapExplanation` narrates which drops
        and delays produced the standings.
        """
        if self.plan is None:
            raise ValueError(
                "this TournamentResult carries no plan (it predates the "
                "explain hook); re-run the tournament")
        for protocol in (protocol_a, protocol_b):
            if protocol not in self.protocols:
                raise ValueError(f"protocol {protocol!r} was not in this "
                                 f"tournament ({self.protocols})")
        from ..obs.analyze import explain_protocol_gap

        return explain_protocol_gap(self.plan, trace_dir,
                                    protocol_a, protocol_b)

    def cell_rows(self) -> List[Dict[str, object]]:
        """One row per (protocol, scenario, seed) cell, for JSON exports."""
        rows = []
        for (protocol, scenario, seed), result in self.cells.items():
            summary = result.summary()
            rows.append({
                "protocol": protocol,
                "scenario": scenario,
                "seed": seed,
                "messages": summary["num_messages"],
                "delivered": summary["num_delivered"],
                "success_rate": round(float(summary["success_rate"]), 3),
                "median_delay_s": summary["median_delay_s"],
                "copies_sent": summary["copies_sent"],
                "copies_per_delivery": summary["copies_per_delivery"],
            })
        return rows


def _dedup(names: List[str]) -> List[str]:
    return list(dict.fromkeys(names))


def _resolve_protocols(protocols: Union[str, Sequence[str], None]) -> List[str]:
    if protocols is None or protocols == "all":
        return protocol_names()
    if isinstance(protocols, str):  # a lone name, not an iterable of chars
        protocols = [protocols]
    resolved = _dedup([protocol_by_name(name).name for name in protocols])
    if not resolved:
        raise ValueError("a tournament needs at least one protocol")
    return resolved


def _resolve_scenarios(
    entries: Union[str, Sequence[Union[str, Scenario, Mapping]], None],
) -> List[Union[str, Scenario]]:
    """Registry names, inline scenario definition dicts and/or specs.

    Names are validated (and canonicalized) against the registry; dicts
    become eagerly validated :class:`Scenario` objects.  The leaderboard's
    cells are keyed by scenario name, so entries repeating a name with the
    *same* content collapse to one, while a name carrying two different
    contents is an error (one of them would silently vanish otherwise).
    """
    if entries is None or entries == "all":
        return list(scenario_names())
    if isinstance(entries, (str, Mapping, Scenario)):
        entries = [entries]
    resolved: List[Union[str, Scenario]] = []
    by_name: Dict[str, Scenario] = {}
    for entry in entries:
        if isinstance(entry, Mapping):
            entry = Scenario.from_dict(entry)
        if isinstance(entry, str):
            spec = get_scenario(entry)
            entry = spec.name
        else:
            spec = entry
        previous = by_name.get(spec.name)
        if previous is not None:
            if previous != spec:
                raise ValueError(
                    f"two tournament scenarios share the name "
                    f"{spec.name!r} with different content; rename one — "
                    f"leaderboard cells are keyed by scenario name")
            continue
        by_name[spec.name] = spec
        resolved.append(entry)
    if not resolved:
        raise ValueError("a tournament needs at least one scenario")
    return resolved


def lossy_variant(scenario: Union[str, Scenario], loss: float = 0.1,
                  delay: float = 0.0, jitter: float = 0.0) -> Scenario:
    """*scenario* with a lossy/latency channel injected, as an inline spec.

    The variant is named ``<name>+lossy`` and stays *inline* — nothing is
    registered, so the golden catalogue is untouched — and feeds straight
    into :func:`run_tournament`'s scenario list, ranking protocols under
    transfer loss (with retransmission), propagation delay and jitter
    instead of perfect contacts.  The channel rides on the scenario's own
    constraints; everything else (trace, workload, seeds) is unchanged, so
    a lossy leaderboard is directly comparable to its clean twin.
    """
    from dataclasses import replace

    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    channel = ChannelSpec(loss=loss, delay=delay, jitter=jitter)
    constraints = replace(spec.constraints, channel=channel)
    return replace(spec, name=f"{spec.name}+lossy", constraints=constraints)


def run_tournament(
    protocols: Union[str, Sequence[str], None] = "all",
    scenarios: Union[str, Sequence[Union[str, Scenario, Mapping]], None] = "all",
    seeds: Sequence[int] = (7,),
    num_runs: Optional[int] = None,
    constraints: Optional[ResourceConstraints] = None,
    workers: int = 1,
    obs=None,
    progress=None,
) -> TournamentResult:
    """Fan *protocols* × *scenarios* × *seeds* and collect the leaderboard.

    ``"all"`` selects every registered protocol / scenario; *scenarios*
    entries may also be inline scenario definitions (:class:`Scenario`
    objects or their dict form), validated eagerly before anything runs
    and keyed by their scenario name in the cells.  Each seed
    overrides the scenario's master seed, so different seeds re-draw both
    trace (where the scenario's trace is seeded) and workloads; every
    protocol within a cell sees exactly the same messages, so the
    comparison is paired.  *num_runs* and *constraints* override the
    scenario's own values when given.  Every job runs on the vector kernel
    (:class:`~repro.sim.vector.VectorSimulator`, delivery-stream-equivalent
    to :class:`~repro.sim.engine.DesSimulator`).  ``workers=N > 1``
    distributes the whole (scenario × seed × run × protocol) grid over one
    pool of N processes; results are identical to an in-process run.

    *obs* (a :class:`repro.obs.ObsConfig`) enables per-job traces, engine
    telemetry, phase timings and ``metrics.json``; *progress* is the
    :func:`repro.exp.run_experiment` callback — ``routing tournament
    --live`` feeds it into a :class:`repro.obs.LiveLeaderboard`, which
    prints the standings of the jobs landed so far, ranked by the same
    function as :meth:`TournamentResult.leaderboard_rows`; once every job
    has landed its rows equal the final table's.
    """
    from ..exp.orchestrator import run_experiment
    from ..exp.spec import ExperimentSpec

    protocol_list = _resolve_protocols(protocols)
    scenario_entries = _resolve_scenarios(scenarios)
    scenario_list = [entry if isinstance(entry, str) else entry.name
                     for entry in scenario_entries]
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("a tournament needs at least one seed")

    spec = ExperimentSpec(
        name="tournament",
        scenarios=tuple(scenario_entries),
        protocols=tuple(protocol_list),
        seeds=tuple(seed_list),
        num_runs=num_runs,
        constraints=constraints,
    )
    executed = run_experiment(spec, workers=workers, obs=obs,
                              progress=progress)
    plan = executed.plan

    result = TournamentResult(protocols=protocol_list, scenarios=scenario_list,
                              seeds=seed_list, num_runs=num_runs or 0,
                              plan=plan)
    per_cell: Dict[CellKey, List[ConstrainedSimulationResult]] = {}
    for job in plan.jobs:
        key = (job.protocol, job.scenario_name, job.seed)
        per_cell.setdefault(key, []).append(executed.result_for(job))
    if plan.jobs:
        # the resolved num_runs of the last scenario, as the legacy
        # per-scenario runner reported it
        result.num_runs = plan.jobs[-1].scenario.num_runs
    # cells keep the historical insertion order: scenario, then seed, then
    # protocol (the order the legacy per-scenario runner populated them in)
    for scenario_name in scenario_list:
        for seed in seed_list:
            for protocol in protocol_list:
                key = (protocol, scenario_name, seed)
                result.cells[key] = merge_constrained_results(per_cell[key])
    return result
