"""Grid expansion: an :class:`ExperimentSpec` becomes content-hashed jobs.

One :class:`PlannedJob` is one simulation — a fully resolved scenario (seed,
constraints and protocol list baked in), one protocol, one run index, on
the vector kernel.  The planner expands the spec's grid in a fixed
canonical order — scenario → sweep value → seed → run → protocol — which is
exactly the order the legacy runners used, so adapters can reassemble their
historical result shapes by walking ``plan.jobs`` linearly.

Every job carries three content hashes:

``job_hash``
    Identity of the *result* (trace source, workload, seed, run index,
    constraints, protocol, copy semantics).  The persistent store
    is keyed by this, which is what makes runs resumable and grids
    incrementally extensible.
``trace_key``
    Identity of the contact trace alone; the worker-side cache builds each
    distinct trace once per worker process, not once per job.
``messages_key``
    Identity of one run's message workload (trace + workload + seed + run
    index); cached per worker the same way.
"""

from __future__ import annotations

import time
import uuid
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..routing.registry import protocol_by_name
from ..sim.scenarios import Scenario, get_scenario
from .hashing import stable_hash
from .spec import KERNEL, ExperimentSpec

__all__ = ["PlannedJob", "ExperimentPlan", "build_plan",
           "reject_flat_ttl_sweep"]


@dataclass(frozen=True)
class PlannedJob:
    """One content-addressed simulation job."""

    job_hash: str
    scenario: Scenario
    protocol: str
    seed: int
    run_index: int
    trace_key: str
    messages_key: str
    #: content identity of the (trace source, workload) pair — two inline
    #: scenarios sharing a name but differing in content report separately
    scenario_key: str = ""
    sweep_parameter: Optional[str] = None
    sweep_value: Optional[float] = None

    @property
    def scenario_name(self) -> str:
        return self.scenario.name


@dataclass
class ExperimentPlan:
    """The ordered job list of one spec, plus lookup helpers.

    ``warm_traces`` / ``warm_messages`` carry anything the planner had to
    build anyway (e.g. the flat-ttl-sweep check's workloads) so the
    executor can seed its worker caches instead of rebuilding.
    ``build_s`` is the wall time :func:`build_plan` took, which
    :func:`repro.exp.run_experiment` reports as the ``plan`` phase also
    when its caller planned first."""

    spec: ExperimentSpec
    jobs: List[PlannedJob] = field(default_factory=list)
    warm_traces: Dict[str, object] = field(default_factory=dict)
    warm_messages: Dict[str, object] = field(default_factory=dict)
    build_s: float = field(default=0.0, init=False, compare=False)

    def __len__(self) -> int:
        return len(self.jobs)

    def job_hashes(self) -> List[str]:
        """Hashes in plan order (duplicates possible for degenerate grids)."""
        return [job.job_hash for job in self.jobs]

    def scenario_names(self) -> List[str]:
        """Distinct scenario names, in plan order."""
        return list(dict.fromkeys(job.scenario_name for job in self.jobs))


def job_identity(scenario: Scenario, protocol: str,
                 run_index: int) -> Dict[str, object]:
    """The content dict whose hash is a job's store key.

    Scenario *name*, *description*, sibling protocols and run counts are
    deliberately absent: they do not influence the simulation result.
    """
    return {
        "engine": KERNEL,
        "protocol": protocol,
        "run_index": run_index,
        "seed": scenario.seed,
        "copy_semantics": scenario.copy_semantics,
        "trace": scenario.trace,
        "workload": scenario.workload,
        "constraints": scenario.constraints,
    }


def _trace_key(scenario: Scenario) -> str:
    # mirror ScenarioSpec.build_trace: duck-typed trace specs without the
    # flag are treated as seed-consuming
    uses_seed = getattr(scenario.trace, "uses_scenario_seed", True)
    seed = scenario.seed if uses_seed else None
    return stable_hash({"trace": scenario.trace, "seed": seed})


def _messages_key(scenario: Scenario, trace_key: str, run_index: int) -> str:
    return stable_hash({"trace": trace_key, "workload": scenario.workload,
                        "seed": scenario.seed, "run_index": run_index})


def _resolve_scenario(entry: Union[str, Scenario]) -> Scenario:
    if isinstance(entry, Scenario):
        return entry
    return get_scenario(entry)


def reject_flat_ttl_sweep(messages_per_run) -> None:
    """Refuse a ttl sweep over messages that carry their own ttl.

    A message's own ttl takes precedence over the constraints-level default
    being swept, so every grid point would silently be identical.  The one
    message-based check shared by the planner and the ``sweep_scenario``
    adapter (which passes the workloads it already built).
    """
    if any(message.ttl is not None
           for messages in messages_per_run for message in messages):
        raise ValueError(
            "cannot sweep ttl: the scenario's workload stamps a "
            "per-message ttl, which overrides the swept constraints-level "
            "default; remove the workload ttl to sweep this axis")


def _reject_flat_ttl_sweep(scenario: Scenario, plan: ExperimentPlan) -> None:
    """Planner-side wrapper: generate the scenario's actual messages (one
    trace build; ttl sweeps are rare) rather than sniffing workload
    attributes, so custom WorkloadSpec implementations are covered too.
    What it builds is kept as warm-cache seeds on *plan* — wasted only
    when the spec's seed list differs from the scenario's own seed."""
    trace = scenario.build_trace()
    messages_per_run = [scenario.build_messages(trace, run_index)
                        for run_index in range(scenario.num_runs)]
    reject_flat_ttl_sweep(messages_per_run)
    trace_key = _trace_key(scenario)
    plan.warm_traces[trace_key] = trace
    for run_index, messages in enumerate(messages_per_run):
        plan.warm_messages[_messages_key(scenario, trace_key,
                                         run_index)] = messages


def _dedup_scenarios(entries) -> List[Union[str, Scenario]]:
    """Drop repeated scenario entries so no reassembly layer double-pools
    one result.

    Dedup is by *content* — names resolve through the registry first, so a
    registry name and an equivalent inline definition collapse to one
    entry instead of planning (and then double-pooling) the same job
    twice."""
    kept: List[Union[str, Scenario]] = []
    seen = set()
    for entry in entries:
        resolved = _resolve_scenario(entry)
        try:
            key = stable_hash(resolved)
        except TypeError:
            # unhashable content falls through to the planner's
            # one-off-key path; dedup by object identity only
            key = f"id-{id(resolved)}"
        if key in seen:
            continue
        seen.add(key)
        kept.append(entry)
    return kept


def build_plan(spec: ExperimentSpec,
               check_flat_ttl_sweep: bool = True) -> ExperimentPlan:
    """Expand *spec* into its ordered, content-hashed job list.

    *check_flat_ttl_sweep* lets an adapter that already generated (and
    checked) the workloads skip the planner's own generation pass.
    """
    started = time.perf_counter()
    plan = ExperimentPlan(spec=spec)
    for entry in _dedup_scenarios(spec.scenarios):
        base = _resolve_scenario(entry)
        overrides: Dict[str, object] = {}
        if spec.num_runs is not None:
            overrides["num_runs"] = spec.num_runs
        if spec.constraints is not None:
            overrides["constraints"] = spec.constraints
        if spec.copy_semantics is not None:
            overrides["copy_semantics"] = spec.copy_semantics
        if spec.protocols is not None:
            # canonicalise through the registry so aliases hash identically
            # (and alias duplicates collapse instead of double-counting)
            protocols = tuple(dict.fromkeys(
                protocol_by_name(name).name for name in spec.protocols))
            overrides["algorithms"] = protocols
        if overrides:
            base = base.with_overrides(**overrides)
        protocols = base.algorithms
        # duplicated grid entries would plan the same job twice and then
        # double-pool one result; dedup the axes here, once, for every
        # reassembly layer (sweep, tournament, exp reports)
        values = (tuple(dict.fromkeys(spec.sweep.values))
                  if spec.sweep is not None else (None,))
        seeds = (tuple(dict.fromkeys(spec.seeds))
                 if spec.seeds is not None else (base.seed,))
        if check_flat_ttl_sweep and spec.sweep is not None and \
                spec.sweep.parameter == "ttl":
            _reject_flat_ttl_sweep(base, plan)
        # canonical registry names for hashing, so alias spellings in a
        # scenario's own algorithms tuple hash identically to the display
        # name.  Labels/reassembly keys: spec.protocols were already
        # rewritten to canonical form above (tournament reassembly relies
        # on that); only a scenario's own algorithms keep their spelling.
        hash_names = {name: protocol_by_name(name).name
                      for name in protocols}
        for value in values:
            if spec.sweep is not None:
                constraints = base.constraints.with_overrides(
                    **{spec.sweep.parameter: value})
            else:
                constraints = base.constraints
            for seed in seeds:
                scenario = base.with_overrides(seed=seed,
                                               constraints=constraints)
                try:
                    trace_key = _trace_key(scenario)
                    scenario_key = stable_hash({"trace": trace_key,
                                                "workload": scenario.workload})
                    hashable = True
                except TypeError:
                    # a custom trace/workload spec holding code or RNG
                    # state (legal per the WorkloadSpec protocol) cannot
                    # be content-addressed; run it under one-off keys so
                    # the simulation proceeds but nothing is ever wrongly
                    # reused from a store
                    warnings.warn(
                        f"scenario {scenario.name!r} has unhashable "
                        f"trace/workload content; its results will not be "
                        f"reusable from a result store", stacklevel=2)
                    trace_key = f"unhashable-{uuid.uuid4().hex}"
                    scenario_key = trace_key
                    hashable = False
                for run_index in range(scenario.num_runs):
                    if hashable:
                        messages_key = _messages_key(scenario, trace_key,
                                                     run_index)
                    else:
                        messages_key = f"{trace_key}-run{run_index}"
                    for protocol in protocols:
                        plan.jobs.append(PlannedJob(
                            job_hash=(stable_hash(job_identity(
                                scenario, hash_names[protocol], run_index))
                                if hashable else
                                f"{messages_key}-{hash_names[protocol]}"),
                            scenario=scenario,
                            protocol=protocol,
                            seed=scenario.seed,
                            run_index=run_index,
                            trace_key=trace_key,
                            messages_key=messages_key,
                            scenario_key=scenario_key,
                            sweep_parameter=(spec.sweep.parameter
                                             if spec.sweep else None),
                            sweep_value=value,
                        ))
    plan.build_s = time.perf_counter() - started
    return plan
