"""Scenario and sweep runners — thin adapters over :mod:`repro.exp`.

``run_scenario`` executes one scenario (every algorithm × every run);
``sweep_scenario`` additionally grids one resource-constraint axis.  Both
build a single-scenario :class:`~repro.exp.ExperimentSpec` and its plan,
hand that plan to :func:`repro.exp.run_experiment` (which dispatches the
content-hashed jobs through the shared worker pool, times them and writes
any ``metrics.json``), and reassemble their historical result shapes by
walking the plan in order — outputs are byte-identical to the pre-``exp``
runners (pinned by the equivalence tests).  The trace each adapter builds
for its own metadata is handed to the executor as a warm cache, so an
in-process run builds it once and pool workers receive it via the pool
initializer, exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..contacts import ContactTrace
from ..forwarding.messages import Message
from .engine import (
    SWEEPABLE_PARAMETERS,
    ConstrainedSimulationResult,
    ResourceConstraints,
    ResourceStats,
)
from .scenarios import Scenario, get_scenario

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "ScenarioRunResult",
    "round_metric",
    "SweepResult",
    "merge_constrained_results",
    "run_scenario",
    "sweep_scenario",
]


def merge_constrained_results(
    runs: Sequence[ConstrainedSimulationResult],
    validate: bool = True,
) -> ConstrainedSimulationResult:
    """Pool several runs of one algorithm into a single result.

    Outcomes concatenate, counters sum, and ``peak_buffer_occupancy`` takes
    the maximum over runs.  By default every run must share the merged
    result's labels — algorithm, trace and constraints — since the pool is
    reported under ``runs[0]``'s values; pass ``validate=False`` for
    deliberate cross-trace pools (e.g. a tournament leaderboard row, where
    one protocol's runs span scenarios).
    """
    if not runs:
        raise ValueError("need at least one run to merge")
    if validate:
        first = runs[0]
        for position, run in enumerate(runs[1:], start=1):
            if run.algorithm != first.algorithm:
                raise ValueError(
                    f"cannot merge mismatched runs: run 0 is algorithm "
                    f"{first.algorithm!r} but run {position} is "
                    f"{run.algorithm!r}")
            if run.trace_name != first.trace_name:
                raise ValueError(
                    f"cannot merge mismatched runs: run 0 ran on trace "
                    f"{first.trace_name!r} but run {position} on "
                    f"{run.trace_name!r}")
            if run.constraints != first.constraints:
                raise ValueError(
                    f"cannot merge mismatched runs: run {position}'s "
                    f"constraints {run.constraints} differ from run 0's "
                    f"{first.constraints}")
    merged_stats = ResourceStats()
    for run in runs:
        for stat_field in fields(ResourceStats):
            current = getattr(merged_stats, stat_field.name)
            value = getattr(run.stats, stat_field.name)
            if stat_field.name == "peak_buffer_occupancy":
                setattr(merged_stats, stat_field.name, max(current, value))
            else:
                setattr(merged_stats, stat_field.name, current + value)
    merged = ConstrainedSimulationResult(
        algorithm=runs[0].algorithm, trace_name=runs[0].trace_name,
        constraints=runs[0].constraints, stats=merged_stats,
        copies_sent=merged_stats.copies_sent)
    for run in runs:
        merged.outcomes.extend(run.outcomes)
    return merged


def _resolve(scenario: Union[str, Scenario, Mapping]) -> Scenario:
    """A registry name, an inline scenario definition dict, or a spec."""
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, Mapping):
        return Scenario.from_dict(scenario)
    return get_scenario(scenario)


# ----------------------------------------------------------------------
# scenario runner
# ----------------------------------------------------------------------
@dataclass
class ScenarioRunResult:
    """Everything produced by :func:`run_scenario`."""

    scenario: Scenario
    trace_name: str
    num_nodes: int
    num_contacts: int
    num_messages: int
    results: Dict[str, List[ConstrainedSimulationResult]] = field(default_factory=dict)

    def pooled(self, algorithm: str) -> ConstrainedSimulationResult:
        """All runs of one algorithm merged."""
        return merge_constrained_results(self.results[algorithm])

    def summaries(self) -> Dict[str, Dict[str, object]]:
        """Per-algorithm pooled summary dicts, in scenario algorithm order."""
        return {name: self.pooled(name).summary() for name in self.results}

    def table_rows(self) -> List[Dict[str, object]]:
        """Flat rows for :func:`repro.analysis.tables.format_table`."""
        rows = []
        for name, summary in self.summaries().items():
            rows.append({
                "algorithm": name,
                "messages": summary["num_messages"],
                "delivered": summary["num_delivered"],
                "success_rate": round(float(summary["success_rate"]), 3),
                "mean_delay_s": round_metric(summary["mean_delay_s"]),
                "median_delay_s": round_metric(summary["median_delay_s"]),
                "copies": summary["copies_sent"],
                "copies/delivery": round_metric(summary["copies_per_delivery"], 2),
                "evictions": summary["buffer_evictions"],
                "expired": summary["expired_messages"],
                "partial_xfers": summary["partial_transfers"],
            })
        return rows


def round_metric(value, digits: int = 1):
    """Round a (possibly None) metric for table display; shared by every
    report layer (runner tables, exp grid reports)."""
    return None if value is None else round(float(value), digits)


def _warm_caches(plan, trace: ContactTrace,
                 messages_per_run: Sequence[List[Message]]) -> None:
    """Seed the plan's worker-cache hints from state the adapter built
    anyway (released by the executor when the run finishes)."""
    for job in plan.jobs:
        plan.warm_traces[job.trace_key] = trace
        plan.warm_messages[job.messages_key] = messages_per_run[job.run_index]


def run_scenario(
    scenario: Union[str, Scenario],
    num_runs: Optional[int] = None,
    seed: Optional[int] = None,
    constraints: Optional[ResourceConstraints] = None,
    workers: int = 1,
    obs=None,
) -> ScenarioRunResult:
    """Run one scenario end to end on the vector kernel.

    *num_runs*, *seed* and *constraints* override the scenario's own values
    when given (the CLI exposes them).  Every job runs on
    :class:`~repro.sim.vector.VectorSimulator`, which is
    delivery-stream-equivalent to :class:`~repro.sim.engine.DesSimulator`
    and hands bandwidth, channel and churn runs to it.
    ``workers=N > 1`` distributes the (run × algorithm) simulations over a
    pool of N processes; results are identical to an in-process run.
    *obs* (a :class:`repro.obs.ObsConfig`) enables per-job JSONL traces,
    engine telemetry, ``obs.profile`` phase timings and a ``metrics.json``
    artifact (see :func:`repro.exp.run_experiment`).
    """
    from ..exp.orchestrator import run_experiment
    from ..exp.plan import build_plan
    from ..exp.spec import ExperimentSpec

    spec = _resolve(scenario)
    overrides = {}
    if num_runs is not None:
        overrides["num_runs"] = num_runs
    if seed is not None:
        overrides["seed"] = seed
    if constraints is not None:
        overrides["constraints"] = constraints
    if overrides:
        spec = spec.with_overrides(**overrides)

    trace = spec.build_trace()
    messages_per_run = [spec.build_messages(trace, run_index)
                        for run_index in range(spec.num_runs)]
    plan = build_plan(ExperimentSpec(name=f"scenario:{spec.name}",
                                     scenarios=(spec,)))
    _warm_caches(plan, trace, messages_per_run)
    executed = run_experiment(plan.spec, plan=plan, workers=workers, obs=obs)

    outcome = ScenarioRunResult(
        scenario=spec, trace_name=trace.name, num_nodes=trace.num_nodes,
        num_contacts=len(trace),
        num_messages=sum(len(m) for m in messages_per_run))
    for name in spec.algorithms:
        outcome.results[name] = []
    for job in plan.jobs:
        outcome.results[job.protocol].append(executed.result_for(job))
    return outcome


# ----------------------------------------------------------------------
# constraint sweeps
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """Everything produced by :func:`sweep_scenario`."""

    scenario: Scenario
    parameter: str
    values: List[Optional[float]]
    trace_name: str
    #: per grid value: {algorithm: pooled result}
    by_value: Dict[Optional[float], Dict[str, ConstrainedSimulationResult]] = \
        field(default_factory=dict)

    def table_rows(self) -> List[Dict[str, object]]:
        """One row per (grid value, algorithm)."""
        rows = []
        for value in self.values:
            for name, pooled in self.by_value[value].items():
                summary = pooled.summary()
                rows.append({
                    self.parameter: "inf" if value is None else value,
                    "algorithm": name,
                    "success_rate": round(float(summary["success_rate"]), 3),
                    "mean_delay_s": round_metric(summary["mean_delay_s"]),
                    "copies": summary["copies_sent"],
                    "evictions": summary["buffer_evictions"],
                    "expired": summary["expired_messages"],
                    "partial_xfers": summary["partial_transfers"],
                })
        return rows


def sweep_scenario(
    scenario: Union[str, Scenario],
    parameter: str,
    values: Sequence[Optional[float]],
    num_runs: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> SweepResult:
    """Grid one constraint axis of a scenario.

    *parameter* is one of :data:`SWEEPABLE_PARAMETERS`; a value of ``None``
    means "unlimited" for that point.  Every grid point sees exactly the
    same trace and workloads, so the comparison is paired along the axis.
    *workers* is as for :func:`run_scenario`.
    """
    from ..exp.orchestrator import run_experiment
    from ..exp.plan import build_plan, reject_flat_ttl_sweep
    from ..exp.spec import ExperimentSpec, SweepAxis

    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"cannot sweep {parameter!r}; "
                         f"choose one of {', '.join(SWEEPABLE_PARAMETERS)}")
    if not values:
        raise ValueError("need at least one sweep value")
    spec = _resolve(scenario)
    overrides = {}
    if num_runs is not None:
        overrides["num_runs"] = num_runs
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        spec = spec.with_overrides(**overrides)

    trace = spec.build_trace()
    messages_per_run = [spec.build_messages(trace, run_index)
                        for run_index in range(spec.num_runs)]
    if parameter == "ttl":
        # the shared guard against silently flat sweeps, on the workloads
        # built above (so the planner need not regenerate them)
        reject_flat_ttl_sweep(messages_per_run)
    plan = build_plan(ExperimentSpec(
        name=f"sweep:{spec.name}:{parameter}",
        scenarios=(spec,),
        sweep=SweepAxis(parameter=parameter, values=tuple(values))),
        check_flat_ttl_sweep=False)
    _warm_caches(plan, trace, messages_per_run)
    executed = run_experiment(plan.spec, plan=plan, workers=workers)

    sweep = SweepResult(scenario=spec, parameter=parameter,
                        values=list(values), trace_name=trace.name)
    per_value: Dict[Optional[float], Dict[str, List[ConstrainedSimulationResult]]] = {}
    for job in plan.jobs:
        per_algorithm = per_value.setdefault(
            job.sweep_value, {name: [] for name in spec.algorithms})
        per_algorithm[job.protocol].append(executed.result_for(job))
    for value in values:
        grid_value = None if value is None else float(value)
        sweep.by_value[value] = {
            name: merge_constrained_results(runs)
            for name, runs in per_value[grid_value].items()
        }
    return sweep
