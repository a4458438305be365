#!/usr/bin/env python3
"""Benchmark: trace-driven oracle vs the DES engine vs the vector kernel.

Two sections share one ``BENCH_sim.json`` artifact:

* **dataset records** — the Section 6 forwarding replay of one Poisson
  workload on the benchmark-scale primary dataset with (a) the idealized
  trace-driven engine (the test oracle ``tests/oracles/trace_engine.py``),
  (b) the DES engine with constraints disabled (same results, measures
  the event-queue overhead) and (c) the DES
  engine under a representative constraint set, timed in interleaved
  rounds; ``des_overhead`` is the median of the per-round (b)/(a) ratios;
* **vector record** — the city-scale ``engine="vector"`` headline: the
  DES engine and the vector kernel race on an ``rwp-city-*`` scenario
  (``rwp-city-1k`` in ``--quick`` mode, ``rwp-city-10k`` in full mode).
  The vector run is verified delivery-stream-equal to DES before any
  timing is recorded.  ``vector_memory_ratio`` is the tracemalloc peak of
  one vector run over that of one DES run (both untimed, extra runs).
  The ``vector_speedup`` and ``vector_memory_ratio`` ratios are enforced
  by ``python -m repro obs bench-check`` against the committed baseline.

Medians are written to ``BENCH_sim.json`` at the repo root so the numbers
are tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_sim_engines.py [--quick]
        [--benchmark-json PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# tests/ holds the trace-driven oracle (tests/oracles/trace_engine.py)
for path in (_HERE, _HERE.parent / "src", _HERE.parent / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from oracles.trace_engine import TraceEngine  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.forwarding import PoissonMessageWorkload  # noqa: E402
from repro.forwarding.algorithms import algorithm_by_name  # noqa: E402
from repro.routing.registry import protocol_by_name  # noqa: E402
from repro.sim import (  # noqa: E402
    DesSimulator,
    ResourceConstraints,
    VectorSimulator,
    get_scenario,
)

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_sim.json"
ALGORITHMS = ("Epidemic", "Greedy", "Dynamic Programming")
CONSTRAINED = ResourceConstraints(buffer_capacity=8.0, ttl=2700.0)
VECTOR_PROTOCOL = "Epidemic"


def _time_runs(factory, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        factory()
        samples.append(time.perf_counter() - started)
    return samples


def _traced_peak(run) -> int:
    """Peak bytes tracemalloc sees allocated during one call of *run*."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _streams_equal(reference, candidate) -> bool:
    """Full delivery-stream equivalence: outcomes, copies and counters."""
    if len(reference.outcomes) != len(candidate.outcomes):
        return False
    for expected, actual in zip(reference.outcomes, candidate.outcomes):
        if (actual.message, actual.delivered, actual.delivery_time,
                actual.hop_count) != (expected.message, expected.delivered,
                                      expected.delivery_time,
                                      expected.hop_count):
            return False
    return (candidate.copies_sent == reference.copies_sent
            and candidate.stats.as_dict() == reference.stats.as_dict())


def _bench_dataset_engines(quick: bool) -> dict:
    scale = 0.2 if quick else 0.5
    repeats = 3 if quick else 5
    rate = 0.02 if quick else 0.05
    trace = load_dataset("infocom06-9-12", scale=scale, contact_scale=scale)
    messages = PoissonMessageWorkload(rate=rate).generate(trace, seed=77)
    print(f"dataset: {trace.name} ({trace.num_nodes} nodes, {len(trace)} "
          f"contacts), {len(messages)} messages, {repeats} repetitions\n")

    records = {}
    for name in ALGORITHMS:
        runs = {
            "trace_driven": lambda: TraceEngine(
                trace, algorithm_by_name(name)).run(messages),
            "des_unconstrained": lambda: DesSimulator(
                trace, algorithm_by_name(name)).run(messages),
            "des_constrained": lambda: DesSimulator(
                trace, algorithm_by_name(name),
                constraints=CONSTRAINED).run(messages),
        }
        # interleaved rounds: each round times the three runs back to back,
        # so a slow stretch of a shared machine hits a whole round, and the
        # per-round DES/trace ratio cancels it
        samples = {key: [] for key in runs}
        for _ in range(repeats):
            for key, run in runs.items():
                samples[key] += _time_runs(run, 1)
        trace_samples = samples["trace_driven"]
        des_samples = samples["des_unconstrained"]
        constrained_samples = samples["des_constrained"]
        trace_median = statistics.median(trace_samples)
        des_median = statistics.median(des_samples)
        constrained_median = statistics.median(constrained_samples)
        overhead = statistics.median(
            des / driven for des, driven in zip(des_samples, trace_samples))
        records[name] = {
            "trace_driven_s": trace_median,
            "des_unconstrained_s": des_median,
            "des_constrained_s": constrained_median,
            "des_overhead": overhead,
            "samples": samples,
        }
        print(f"  {name:<22s} trace {trace_median * 1e3:8.1f} ms   "
              f"des {des_median * 1e3:8.1f} ms   "
              f"constrained {constrained_median * 1e3:8.1f} ms   "
              f"overhead {overhead:5.2f}x")
    return {"dataset": trace.name, "num_messages": len(messages),
            "repeats": repeats, "records": records}


def _bench_vector_kernel(quick: bool) -> dict:
    scenario = get_scenario("rwp-city-1k" if quick else "rwp-city-10k")
    vector_repeats = 3
    print(f"\nvector kernel: scenario {scenario.name!r} "
          f"(building the trace...)")
    trace = scenario.build_trace()
    messages = scenario.build_messages(trace, 0)
    num_events = 2 * len(trace) + len(messages)
    print(f"  {trace.num_nodes} nodes, {len(trace)} contacts, "
          f"{len(messages)} messages")

    def _des_run():
        return DesSimulator(trace, protocol_by_name(VECTOR_PROTOCOL),
                            constraints=scenario.constraints,
                            seed=scenario.seed).run(messages)

    def _vector_run():
        return VectorSimulator(trace, protocol_by_name(VECTOR_PROTOCOL),
                               constraints=scenario.constraints,
                               seed=scenario.seed).run(messages)

    # one timed DES reference run (minutes at the 10k scale — one is enough)
    started = time.perf_counter()
    reference = _des_run()
    des_seconds = time.perf_counter() - started
    print(f"  des    {des_seconds:8.2f} s")

    # untimed warmup run doubling as the equivalence check: no speedup is
    # recorded unless the delivery streams actually match
    warmup = _vector_run()
    equal = _streams_equal(reference, warmup)
    if not equal:
        print("  WARNING: vector delivery stream diverged from des; "
              "timings recorded without a speedup claim")
    vector_samples = _time_runs(_vector_run, vector_repeats)
    vector_median = statistics.median(vector_samples)
    speedup = des_seconds / vector_median if vector_median else None
    print(f"  vector {vector_median:8.2f} s   (best of {vector_repeats}: "
          f"{min(vector_samples):.2f} s)")
    if equal and speedup is not None:
        print(f"  vector_speedup {speedup:5.1f}x   delivery streams equal")
    memory_ratio = None
    if equal:
        # untimed extra runs: tracemalloc slows both engines down
        des_peak = _traced_peak(_des_run)
        vector_peak = _traced_peak(_vector_run)
        memory_ratio = vector_peak / des_peak
        print(f"  traced peak: des {des_peak / 2**20:.1f} MiB   vector "
              f"{vector_peak / 2**20:.1f} MiB   vector_memory_ratio "
              f"{memory_ratio:.3f}")

    record = {
        "scenario": scenario.name,
        "protocol": VECTOR_PROTOCOL,
        "num_nodes": trace.num_nodes,
        "num_contacts": len(trace),
        "num_messages": len(messages),
        "delivery_stream_equal": equal,
        "des_s": des_seconds,
        "vector_s": vector_median,
        "des_events_per_s": num_events / des_seconds,
        "vector_events_per_s": num_events / vector_median,
        "samples": {"vector": vector_samples},
    }
    if equal and speedup is not None:
        record["vector_speedup"] = speedup
    if memory_ratio is not None:
        record["vector_memory_ratio"] = memory_ratio
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller dataset, fewer repetitions, and the "
                             "1k-node (not 10k-node) vector scenario")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    args = parser.parse_args()

    dataset_section = _bench_dataset_engines(args.quick)
    vector_section = _bench_vector_kernel(args.quick)

    payload = {
        "benchmark": "sim_engines",
        "dataset": dataset_section["dataset"],
        "num_messages": dataset_section["num_messages"],
        "repeats": dataset_section["repeats"],
        "python": platform.python_version(),
        "records": dataset_section["records"],
        "vector": vector_section,
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.benchmark_json}")


if __name__ == "__main__":
    main()
