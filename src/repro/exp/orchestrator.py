"""Job execution: plan → shared pool → persistent store → pooled reports.

:func:`execute_plan` is the single dispatch path every entrypoint routes
through — in this process or over a process pool, with or without a
persistent store.  Each worker keeps a scenario/trace cache keyed by the
planner's content hashes, so a contact trace (and each run's message
workload) is built **once per worker**, not once per job; chunked dispatch
in :func:`repro.exp.pool.process_map` keeps consecutive grid jobs on the
same worker to maximise cache hits.  Workloads are derived from the
scenario's seeding contract, so every worker count produces identical
results job for job, and records are persisted in plan order (within each
retry round), so every worker count writes byte-identical store files,
strict or under a :class:`~repro.exp.executor.FaultPolicy`.

:func:`run_experiment` adds the store protocol on top: completed jobs
(matched by content hash) are decoded from the store instead of re-running,
which makes re-invocations of a finished spec free and grid extensions
incremental.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..contacts import ContactTrace
from ..forwarding.messages import Message
from ..obs.telemetry import EngineTelemetry, ObsConfig, PhaseTimers, write_metrics_json
from ..obs.tracing import JsonlTracer
from ..routing.registry import protocol_by_name
from ..sim.engine import ConstrainedSimulationResult
from ..sim.vector import VectorSimulator
from ..svc.store import ShardedResultStore, open_store
from .executor import FaultPolicy, JobFailure
from .plan import ExperimentPlan, PlannedJob, build_plan
from .pool import process_map
from .records import (
    decode_failure,
    decode_result,
    encode_failure_record,
    encode_record,
    is_failure_record,
)
from .spec import ExperimentSpec

__all__ = [
    "ExecutionOutcome",
    "ExperimentResult",
    "execute_plan",
    "run_experiment",
    "experiment_status",
]


# ----------------------------------------------------------------------
# per-worker caches: traces and per-run workloads are built once per worker
# process and shared by every job that lands there
# ----------------------------------------------------------------------
_WORKER: Dict[str, Dict[str, object]] = {"traces": {}, "messages": {}}

#: (scenario, protocol, run_index, trace_key, messages_key, cache?,
#:  trace_path?, telemetry?)
_JobPayload = Tuple[object, str, int, str, str, bool, Optional[str], bool]


def _init_exp_worker(warm_traces: Dict[str, ContactTrace],
                     warm_messages: Dict[str, List[Message]]) -> None:
    _WORKER["traces"] = dict(warm_traces)
    _WORKER["messages"] = dict(warm_messages)


def _run_exp_job(payload: _JobPayload) -> ConstrainedSimulationResult:
    (scenario, protocol, run_index, trace_key, messages_key, cache,
     trace_path, want_telemetry) = payload
    traces = _WORKER["traces"]
    trace = traces.get(trace_key) if cache else None
    if trace is None:
        trace = scenario.build_trace()
        if cache:
            traces[trace_key] = trace
    messages_cache = _WORKER["messages"]
    messages = messages_cache.get(messages_key) if cache else None
    if messages is None:
        messages = scenario.build_messages(trace, run_index)
        if cache:
            messages_cache[messages_key] = messages
    tracer = JsonlTracer(trace_path) if trace_path else None
    telemetry = EngineTelemetry() if want_telemetry else None
    try:
        result = VectorSimulator(trace, protocol_by_name(protocol),
                                 constraints=scenario.constraints,
                                 copy_semantics=scenario.copy_semantics,
                                 seed=scenario.seed, tracer=tracer,
                                 telemetry=telemetry).run(messages)
    finally:
        if tracer is not None:
            tracer.close()
    if telemetry is not None:
        result.telemetry = telemetry.as_dict()
    return result


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass
class ExecutionOutcome:
    """What one :func:`execute_plan` call did."""

    #: job_hash -> result, covering every job in the plan that succeeded
    results: Dict[str, ConstrainedSimulationResult] = field(default_factory=dict)
    #: hashes simulated *successfully* by this invocation, in plan order
    executed: List[str] = field(default_factory=list)
    #: hashes served from the store, in plan order
    reused: List[str] = field(default_factory=list)
    #: hashes of quarantined jobs (fresh + carried from the store), plan order
    failed: List[str] = field(default_factory=list)
    #: job_hash -> why that job failed
    failures: Dict[str, JobFailure] = field(default_factory=dict)

    def result_for(self, job: PlannedJob) -> ConstrainedSimulationResult:
        return self.results[job.job_hash]


def execute_plan(
    plan: ExperimentPlan,
    store: Optional[ShardedResultStore] = None,
    workers: int = 1,
    resume: bool = True,
    trace_cache: bool = True,
    policy: Optional[FaultPolicy] = None,
    retry_failed: bool = False,
    obs: Optional[ObsConfig] = None,
    progress=None,
) -> ExecutionOutcome:
    """Run every job of *plan* that the store cannot already answer.

    With *store* set and *resume* true, jobs whose content hash is stored
    are decoded instead of simulated, and every newly simulated job is
    persisted as it settles, in plan order within each retry round — so
    every *workers* count writes byte-identical files, with or without a
    *policy*.  A pool run killed mid-batch loses the finished jobs queued
    behind an unsettled earlier one.  ``workers=1`` runs the jobs in this
    process, ``N > 1`` over a pool of at most N worker processes.
    ``plan.warm_traces`` / ``plan.warm_messages`` pre-seed the worker
    caches — the single-scenario adapters stash the trace they already
    built for their own metadata there, which restores the legacy "ship
    the trace once via the pool initializer" behaviour; both are released
    when execution finishes.  *trace_cache* exists for
    benchmarking the cache itself; leave it on.

    With a *policy*, execution is fault-tolerant: jobs that raise, hang
    past the policy's timeout, or kill their worker are retried per the
    policy and then *quarantined* — the batch finishes degraded, each
    quarantined job persisted as a ``status: "failed"`` record and
    reported in ``outcome.failures``, instead of aborting the run.
    Stored failure records are carried over as failures on resume;
    *retry_failed* re-runs them instead.  Without a policy a stored
    failure record simply re-runs (strict mode: any job exception
    propagates, after completed results are drained and persisted; a job
    whose worker died is retried alone on a fresh pool under the default
    policy's crash budget, then :class:`BrokenProcessPool` is raised).

    With an *obs* config, each executed job writes a per-job JSONL trace
    under ``obs.trace_dir`` and/or collects engine telemetry (attached to
    the result's ``telemetry`` field).  *progress* is an optional callable
    ``progress(event, job, value)`` invoked in the parent as jobs settle:
    ``("reused", job, result)`` for store hits (in plan order, before
    execution starts), then ``("done", job, result)`` /
    ``("failed", job, failure)`` as fresh jobs complete — the hook behind
    live leaderboards and ``exp watch``-style feeds.  Progress exceptions
    propagate; keep the callback cheap and robust.
    """
    outcome = ExecutionOutcome()
    reusable: Dict[str, ConstrainedSimulationResult] = {}
    stored_failures: Dict[str, JobFailure] = {}
    undecodable = set()
    if store is not None and resume:
        store.load()
        for job in plan.jobs:
            if job.job_hash in reusable or job.job_hash in undecodable \
                    or job.job_hash in stored_failures:
                continue
            record = store.get(job.job_hash)
            if record is None:
                continue
            if is_failure_record(record):
                if policy is not None and not retry_failed:
                    # carry the quarantine over instead of re-running; an
                    # explicit --retry-failed (or a strict policy-less run)
                    # gives the job another chance
                    stored_failures[job.job_hash] = decode_failure(record)
                else:
                    undecodable.add(job.job_hash)  # re-run it
                continue
            try:
                # decode up front: a stale/foreign record fails fast and
                # simply re-runs (the fresh record overwrites it) instead
                # of erroring after the whole simulation pass
                reusable[job.job_hash] = decode_result(record)
            except (KeyError, TypeError, ValueError):
                warnings.warn(
                    f"re-running job {job.job_hash}: stored record is not "
                    f"decodable by this build", stacklevel=2)
                undecodable.add(job.job_hash)

    pending: List[PlannedJob] = []
    seen_pending = set()
    for job in plan.jobs:
        if job.job_hash in reusable or job.job_hash in stored_failures:
            continue
        if job.job_hash in seen_pending:
            continue  # degenerate grids can plan one job twice; run it once
        seen_pending.add(job.job_hash)
        pending.append(job)

    trace_dir = obs.trace_dir if obs is not None else None
    want_telemetry = bool(obs is not None and obs.wants_telemetry)
    payloads: List[_JobPayload] = [
        (job.scenario, job.protocol, job.run_index,
         job.trace_key, job.messages_key, trace_cache,
         (str(obs.trace_path(job.job_hash)) if trace_dir else None),
         want_telemetry)
        for job in pending
    ]

    if progress is not None:
        announced = set()
        for job in plan.jobs:
            if job.job_hash in reusable and job.job_hash not in announced:
                announced.add(job.job_hash)
                progress("reused", job, reusable[job.job_hash])

    def _persist(index: int,
                 value: "ConstrainedSimulationResult | JobFailure") -> None:
        # runs in the parent as each job settles, in plan order within a
        # retry round, so every worker count appends the same bytes
        job = pending[index]
        failed = isinstance(value, JobFailure)
        if store is not None:
            encode = encode_failure_record if failed else encode_record
            store.put(encode(job, value, experiment=plan.spec.name))
        if progress is not None:
            progress("failed" if failed else "done", job, value)

    warm = (dict(plan.warm_traces), dict(plan.warm_messages))
    try:
        # an in-process map (workers=1, or a pool that could not start)
        # fills the parent's caches too — hence the finally below
        fresh = process_map(_run_exp_job, payloads, workers=workers,
                            initializer=_init_exp_worker, initargs=warm,
                            on_result=_persist, policy=policy)
    finally:
        # don't pin traces/workloads in the parent past this call —
        # neither in the worker caches nor on the plan's warm seeds
        _init_exp_worker({}, {})
        plan.warm_traces.clear()
        plan.warm_messages.clear()

    for job, result in zip(pending, fresh):
        if isinstance(result, JobFailure):
            outcome.failures[job.job_hash] = result
            outcome.failed.append(job.job_hash)
        else:
            outcome.results[job.job_hash] = result
            outcome.executed.append(job.job_hash)
    for job_hash, result in reusable.items():
        outcome.results[job_hash] = result
        outcome.reused.append(job_hash)
    for job_hash, failure in stored_failures.items():
        outcome.failures[job_hash] = failure
        outcome.failed.append(job_hash)
    return outcome


# ----------------------------------------------------------------------
# the high-level entry point
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """Everything produced by :func:`run_experiment`."""

    spec: ExperimentSpec
    plan: ExperimentPlan
    outcome: ExecutionOutcome
    elapsed_s: float = 0.0

    @property
    def num_executed(self) -> int:
        return len(self.outcome.executed)

    @property
    def num_reused(self) -> int:
        return len(self.outcome.reused)

    @property
    def num_failed(self) -> int:
        return len(self.outcome.failed)

    def result_for(self, job: PlannedJob) -> ConstrainedSimulationResult:
        return self.outcome.results[job.job_hash]

    def failure_rows(self) -> List[Dict[str, object]]:
        """One row per quarantined job, for reports and ``--json``."""
        rows = []
        seen = set()
        for job in self.plan.jobs:
            failure = self.outcome.failures.get(job.job_hash)
            if failure is None or job.job_hash in seen:
                continue
            seen.add(job.job_hash)
            rows.append({
                "scenario": job.scenario_name,
                "protocol": job.protocol,
                "seed": job.seed,
                "run_index": job.run_index,
                "job_hash": job.job_hash,
                "error_kind": failure.error_kind,
                "error": failure.error,
                "attempts": failure.attempts,
                "elapsed_s": failure.elapsed_s,
            })
        return rows

    def cells(self) -> Dict[Tuple, List[ConstrainedSimulationResult]]:
        """Grid cells — ``(scenario name, scenario content key, sweep
        value, seed, protocol)`` — each holding its per-run results in run
        order.  The content key keeps two inline scenarios that share a
        name but differ in trace/workload from pooling into one cell.
        Quarantined jobs have no result and are skipped, so a degraded
        run still tabulates (a cell losing *all* its runs disappears)."""
        grouped: Dict[Tuple, List[ConstrainedSimulationResult]] = {}
        for job in self.plan.jobs:
            result = self.outcome.results.get(job.job_hash)
            if result is None:
                continue
            key = (job.scenario_name, job.scenario_key, job.sweep_value,
                   job.seed, job.protocol)
            grouped.setdefault(key, []).append(result)
        return grouped

    def table_rows(self) -> List[Dict[str, object]]:
        """One pooled row per grid cell, for ``format_table`` / ``--json``."""
        from ..sim.runner import merge_constrained_results, round_metric

        sweep = self.spec.sweep
        rows = []
        for (scenario, _key, value, seed,
             protocol), results in self.cells().items():
            pooled = merge_constrained_results(results)
            summary = pooled.summary()
            row: Dict[str, object] = {"scenario": scenario}
            if sweep is not None:
                row[sweep.parameter] = "inf" if value is None else value
            row.update({
                "seed": seed,
                "protocol": protocol,
                "messages": summary["num_messages"],
                "delivered": summary["num_delivered"],
                "success_rate": round(float(summary["success_rate"]), 3),
                "median_delay_s": round_metric(summary["median_delay_s"]),
                "copies": summary["copies_sent"],
                "copies/delivery": round_metric(summary["copies_per_delivery"], 2),
            })
            rows.append(row)
        return rows


def _resolve_store(
    store: Union[ShardedResultStore, str, None],
) -> Optional[ShardedResultStore]:
    if store is None or isinstance(store, ShardedResultStore):
        return store
    return open_store(store)


def run_experiment(
    spec: ExperimentSpec,
    store: Union[ShardedResultStore, str, None] = None,
    workers: int = 1,
    resume: bool = True,
    trace_cache: bool = True,
    plan: Optional[ExperimentPlan] = None,
    policy: Optional[FaultPolicy] = None,
    retry_failed: bool = False,
    obs: Optional[ObsConfig] = None,
    progress=None,
) -> ExperimentResult:
    """Plan and execute *spec*, resuming from *store* when given.

    *store* may be an opened :class:`repro.svc.store.ShardedResultStore`,
    a directory path (a legacy flat root there migrates on first load), or
    ``None`` for a purely in-memory run.  With ``resume=False`` stored
    records are ignored (every job re-runs and re-appends; the store's
    last-write-wins index keeps that consistent).  Pass a prebuilt *plan* to skip
    re-planning (the CLI plans first so spec errors get friendly messages;
    the scenario runners first seed the plan's warm caches); its build
    time still counts as the ``plan`` phase.  *workers*
    and *policy* / *retry_failed* select the pool size and the
    fault-tolerant executor; see :func:`execute_plan`.  *progress* first
    receives ``("plan", None, plan)`` before any job settles, so live views
    know the grid size, then every :func:`execute_plan` event.

    With an *obs* config, per-job traces and engine telemetry flow through
    :func:`execute_plan` (see there), ``obs.profile`` times the plan/
    execute phases, and ``obs.metrics_path`` writes a ``metrics.json``
    run-telemetry artifact summarizing the pool counters, the phase
    timers and the per-job engine telemetry.
    """
    timers = PhaseTimers() if (obs is not None and obs.profile) else None

    def phase(name: str):
        return timers.phase(name) if timers is not None else nullcontext()

    if plan is None:
        plan = build_plan(spec)
    if timers is not None:
        # a prebuilt plan (the CLI plans first) still reports its build
        timers.add("plan", plan.build_s)
    if progress is not None:
        progress("plan", None, plan)
    started = time.perf_counter()
    with phase("execute"):
        outcome = execute_plan(plan, store=_resolve_store(store),
                               workers=workers, resume=resume,
                               trace_cache=trace_cache, policy=policy,
                               retry_failed=retry_failed, obs=obs,
                               progress=progress)
    elapsed = time.perf_counter() - started
    result = ExperimentResult(spec=spec, plan=plan, outcome=outcome,
                              elapsed_s=elapsed)
    if obs is not None and obs.metrics_path is not None:
        write_metrics_json(obs.metrics_path,
                           _metrics_payload(result, timers))
    return result


def _metrics_payload(result: ExperimentResult,
                     timers: Optional[PhaseTimers]) -> Dict[str, object]:
    """The ``metrics.json`` body for one :func:`run_experiment` call."""
    outcome = result.outcome
    executed = set(outcome.executed)
    engine_runs = []
    for job_hash in outcome.executed:
        telemetry = getattr(outcome.results[job_hash], "telemetry", None)
        if telemetry is not None:
            engine_runs.append({"job_hash": job_hash,
                                "trace": f"trace-{job_hash[:16]}.jsonl",
                                **telemetry})
    payload: Dict[str, object] = {
        "experiment": result.spec.name,
        "jobs": len(result.plan.jobs),
        "executed": result.num_executed,
        "reused": result.num_reused,
        "failed": result.num_failed,
        "elapsed_s": round(result.elapsed_s, 6),
        "engine_runs": engine_runs,
        # job_hash -> grid coordinates and trace filename: what obs diff /
        # explain needs to pair runs across protocols without re-planning
        "job_index": [
            {"job_hash": job.job_hash,
             "scenario": job.scenario_name,
             "protocol": job.protocol,
             "seed": job.seed,
             "run_index": job.run_index,
             "sweep_value": job.sweep_value,
             "executed": job.job_hash in executed,
             "trace": f"trace-{job.job_hash[:16]}.jsonl"}
            for job in result.plan.jobs
        ],
    }
    if engine_runs:
        payload["engine_totals"] = {
            "events": sum(run["events"] for run in engine_runs),
            "wall_s": round(sum(run["wall_s"] for run in engine_runs), 6),
            "peak_queue_depth": max(run["peak_queue_depth"]
                                    for run in engine_runs),
        }
    if timers is not None:
        payload["phases"] = timers.as_dict()
    return payload


def experiment_status(
    spec: ExperimentSpec,
    store: Union[ShardedResultStore, str, None] = None,
) -> Dict[str, object]:
    """How much of *spec* the store already answers, without running it.

    Planning here skips the flat-ttl-sweep workload check — status must
    never build traces or workloads; the check runs when the spec runs.

    This is a one-shot :class:`repro.obs.StatusTracker` refresh: one pass
    over the store index classifies every planned job, and the same
    tracker (kept alive) powers ``exp watch`` incrementally.
    """
    from ..obs.feed import StatusTracker

    return StatusTracker(spec, store=store).refresh()
