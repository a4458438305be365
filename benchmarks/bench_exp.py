#!/usr/bin/env python3
"""Benchmark: the experiment orchestration layer.

Three measurements, written to ``BENCH_exp.json`` at the repo root:

* **orchestration overhead** — ``run_scenario`` (which now plans,
  content-hashes and dispatches through ``repro.exp``) against a direct
  ``VectorSimulator`` loop over the same (run × algorithm) jobs, so the cost
  of the planner/executor sandwich is tracked across PRs;
* **per-worker trace cache** — a 100+-job grid (sweep values × seeds ×
  protocols on a mobility scenario whose trace is expensive to build)
  executed with the worker-side trace/workload cache on vs off (naive
  per-job rebuild), which is the speedup that makes large grids viable;
* **store resume** — the same grid re-run against its persistent store
  (0 jobs executed), i.e. the cost of answering a finished spec.

::

    PYTHONPATH=src python benchmarks/bench_exp.py [--quick]
        [--benchmark-json PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE, _HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.exp import ExperimentSpec, SweepAxis, build_plan  # noqa: E402
from repro.exp.orchestrator import execute_plan, run_experiment  # noqa: E402
from repro.routing.registry import protocol_by_name  # noqa: E402
from repro.sim import Scenario, VectorSimulator, get_scenario  # noqa: E402
from repro.sim.runner import run_scenario  # noqa: E402
from repro.sim.scenarios import RandomWaypointTraceSpec  # noqa: E402
from repro.svc.store import open_store  # noqa: E402
from repro.forwarding.messages import PoissonMessageWorkload  # noqa: E402

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_exp.json"


def _median_time(factory, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        factory()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _bench_orchestration_overhead(repeats: int) -> dict:
    """run_scenario (through repro.exp) vs a direct loop on the same kernel."""
    scenario = get_scenario("paper-ttl-tight").with_overrides(num_runs=2)

    def direct():
        # same setup work run_scenario performs, so the ratio isolates the
        # planner/executor sandwich rather than trace/workload construction
        trace = scenario.build_trace()
        for run_index in range(scenario.num_runs):
            messages = scenario.build_messages(trace, run_index)
            for name in scenario.algorithms:
                VectorSimulator(trace, protocol_by_name(name),
                                constraints=scenario.constraints,
                                copy_semantics=scenario.copy_semantics,
                                seed=scenario.seed).run(messages)

    direct_s = _median_time(direct, repeats)
    orchestrated_s = _median_time(lambda: run_scenario(scenario), repeats)
    return {
        "scenario": scenario.name,
        "jobs": scenario.num_runs * len(scenario.algorithms),
        "direct_s": direct_s,
        "orchestrated_s": orchestrated_s,
        "overhead": orchestrated_s / direct_s if direct_s else None,
    }


def _grid_spec(quick: bool) -> ExperimentSpec:
    """A 100+-job grid on a mobility trace (expensive enough to cache)."""
    num_nodes = 16 if quick else 22
    duration = 600.0 if quick else 1200.0
    scenario = Scenario(
        name="bench-exp-grid",
        description="trace-cache benchmark grid",
        trace=RandomWaypointTraceSpec(num_nodes=num_nodes, duration=duration,
                                      name="bench-exp-rwp"),
        workload=PoissonMessageWorkload(
            rate=0.02, generation_window=(0.0, duration * 2.0 / 3.0)),
        algorithms=("Epidemic", "Direct Delivery", "First Contact",
                    "Binary Spray-and-Wait", "PRoPHET"),
        seed=42,
    )
    return ExperimentSpec(
        name="bench-exp-grid",
        scenarios=(scenario,),
        seeds=(1, 2, 3, 4, 5),
        sweep=SweepAxis("buffer_capacity", (2.0, 4.0, 8.0, None)),
    )


def _bench_trace_cache(spec: ExperimentSpec, repeats: int) -> dict:
    plan = build_plan(spec)
    cached_s = _median_time(lambda: execute_plan(plan, trace_cache=True),
                            repeats)
    naive_s = _median_time(lambda: execute_plan(plan, trace_cache=False),
                           repeats)
    distinct_traces = len({job.trace_key for job in plan.jobs})
    return {
        "jobs": len(plan),
        "distinct_traces": distinct_traces,
        "cached_s": cached_s,
        "naive_per_job_rebuild_s": naive_s,
        "speedup": naive_s / cached_s if cached_s else None,
    }


def _bench_store_resume(spec: ExperimentSpec, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as root:
        store = open_store(Path(root) / "results")
        first = run_experiment(spec, store=store)
        resumed_s = _median_time(
            lambda: run_experiment(spec, store=store), repeats)
        resumed = run_experiment(spec, store=store)
    return {
        "jobs": len(first.plan),
        "first_run_s": first.elapsed_s,
        "resume_s": resumed_s,
        "resume_executed_jobs": resumed.num_executed,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid and fewer repetitions")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    args = parser.parse_args()

    repeats = 3 if args.quick else 5
    spec = _grid_spec(args.quick)

    overhead = _bench_orchestration_overhead(repeats)
    print(f"orchestration overhead ({overhead['jobs']} jobs on "
          f"{overhead['scenario']}): direct {overhead['direct_s'] * 1e3:.1f} ms, "
          f"via repro.exp {overhead['orchestrated_s'] * 1e3:.1f} ms "
          f"({overhead['overhead']:.2f}x)")

    cache = _bench_trace_cache(spec, repeats)
    print(f"trace cache ({cache['jobs']} jobs, {cache['distinct_traces']} "
          f"distinct traces): cached {cache['cached_s'] * 1e3:.1f} ms, "
          f"naive rebuild {cache['naive_per_job_rebuild_s'] * 1e3:.1f} ms "
          f"({cache['speedup']:.2f}x speedup)")

    resume = _bench_store_resume(spec, repeats)
    print(f"store resume ({resume['jobs']} jobs): first run "
          f"{resume['first_run_s'] * 1e3:.1f} ms, resume "
          f"{resume['resume_s'] * 1e3:.1f} ms, "
          f"{resume['resume_executed_jobs']} jobs re-executed")

    payload = {
        "benchmark": "exp_orchestration",
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "records": {
            "orchestration_overhead": overhead,
            "trace_cache": cache,
            "store_resume": resume,
        },
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.benchmark_json}")


if __name__ == "__main__":
    main()
