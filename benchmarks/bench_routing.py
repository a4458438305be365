#!/usr/bin/env python3
"""Benchmark: the protocol zoo on the paper dataset stand-ins.

Times one Poisson-workload replay of every registered protocol (the paper
six plus the stateful zoo) in the trace-driven oracle
(``tests/oracles/trace_engine.py``) and the DES engine on the
benchmark-scale primary dataset, and records the delivery /
overhead profile (success rate, copies per delivery) so the routing
subsystem's perf *and* quality trajectory is tracked across PRs.

A ``city_1k`` section times the vector engine at city scale: one seeded
1000-node ``rwp-grid`` city (1100 m square, 20 m radio, 300 s) replayed by
Epidemic (the flood), PRoPHET (the hook path), and Greedy Online and FRESH
(batched verdicts over the recorded contact history), timed in interleaved
rounds (each round runs the four back to
back).  Its ``prophet_vs_epidemic_ratio`` — the median of the per-round
PRoPHET/Epidemic ratios — is enforced (lower is better) by
``repro obs bench-check``.  Medians are written to
``BENCH_routing.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_routing.py [--quick]
        [--benchmark-json PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# tests/ holds the trace-driven oracle (tests/oracles/trace_engine.py)
for path in (_HERE, _HERE.parent / "src", _HERE.parent / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _bench_utils import time_interleaved  # noqa: E402
from oracles.trace_engine import TraceEngine  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.forwarding import PoissonMessageWorkload  # noqa: E402
from repro.routing import protocol_by_name, protocol_names  # noqa: E402
from repro.scenario.traces import GridRandomWaypointTraceSpec  # noqa: E402
from repro.sim import DesSimulator, VectorSimulator  # noqa: E402

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_routing.json"

#: the city-scale probe (``rwp-grid`` geometry of the 1k city)
CITY_1K = GridRandomWaypointTraceSpec(
    num_nodes=1000, duration=300.0, step=30.0, width=1100.0, height=1100.0,
    radio_range=20.0, name="rwp-grid-city-1k")
CITY_1K_PROTOCOLS = ("Epidemic", "PRoPHET", "Greedy Online", "FRESH")


def _city_1k(repeats: int) -> dict:
    """Vector-engine times of PRoPHET (the hook path) and the two
    history-reading paper algorithms on one 1000-node city, with
    Epidemic's flood as the yardstick."""
    trace = CITY_1K.build(seed=1)
    messages = PoissonMessageWorkload(
        rate=0.2, generation_window=(0.0, CITY_1K.duration / 2)
    ).generate(trace, seed=77)
    print(f"\ncity_1k: {trace.num_nodes} nodes, {len(trace)} contacts, "
          f"{len(messages)} messages, engine vector\n")
    def run(name):
        return VectorSimulator(trace, protocol_by_name(name)).run(messages)

    results = {name: run(name) for name in CITY_1K_PROTOCOLS}
    # interleaved rounds: the per-round PRoPHET/Epidemic ratio cancels a
    # slow stretch of a shared machine
    samples = time_interleaved(
        {name: (lambda name=name: run(name)) for name in CITY_1K_PROTOCOLS},
        repeats)
    records = {}
    for name in CITY_1K_PROTOCOLS:
        records[name] = {
            "vector_s": statistics.median(samples[name]),
            "success_rate": results[name].summary()["success_rate"],
            "copies_sent": results[name].copies_sent,
            "samples": {"vector": samples[name]},
        }
        print(f"  {name:<22s} vector {records[name]['vector_s'] * 1e3:8.1f} ms   "
              f"success {records[name]['success_rate']:5.2f}")
    ratio = statistics.median(
        prophet / epidemic for prophet, epidemic
        in zip(samples["PRoPHET"], samples["Epidemic"]))
    print(f"  PRoPHET / Epidemic: {ratio:.2f}x (median of per-round ratios)")
    return {
        "trace": trace.name,
        "nodes": trace.num_nodes,
        "contacts": len(trace),
        "num_messages": len(messages),
        "engine": "vector",
        "records": records,
        "prophet_vs_epidemic_ratio": ratio,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller dataset and fewer repetitions")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    args = parser.parse_args()

    scale = 0.2 if args.quick else 0.4
    repeats = 3 if args.quick else 5
    rate = 0.02 if args.quick else 0.04
    trace = load_dataset("infocom06-9-12", scale=scale, contact_scale=scale)
    messages = PoissonMessageWorkload(rate=rate).generate(trace, seed=77)
    print(f"dataset: {trace.name} ({trace.num_nodes} nodes, {len(trace)} "
          f"contacts), {len(messages)} messages, {repeats} repetitions\n")

    records = {}
    for name in protocol_names():
        samples = time_interleaved({
            "trace_driven": lambda: TraceEngine(
                trace, protocol_by_name(name)).run(messages),
            "des_unconstrained": lambda: DesSimulator(
                trace, protocol_by_name(name)).run(messages),
        }, repeats)
        trace_samples = samples["trace_driven"]
        des_samples = samples["des_unconstrained"]
        result = TraceEngine(trace, protocol_by_name(name)).run(messages)
        summary = result.summary()
        trace_median = statistics.median(trace_samples)
        des_median = statistics.median(des_samples)
        records[name] = {
            "trace_driven_s": trace_median,
            "des_unconstrained_s": des_median,
            "success_rate": summary["success_rate"],
            "copies_sent": summary["copies_sent"],
            "copies_per_delivery": summary["copies_per_delivery"],
            "samples": {
                "trace_driven": trace_samples,
                "des_unconstrained": des_samples,
            },
        }
        overhead = summary["copies_per_delivery"]
        print(f"  {name:<22s} trace {trace_median * 1e3:8.1f} ms   "
              f"des {des_median * 1e3:8.1f} ms   "
              f"success {summary['success_rate']:5.2f}   "
              f"copies/delivery "
              f"{overhead if overhead is None else round(overhead, 2)}")

    payload = {
        "benchmark": "routing_protocols",
        "dataset": trace.name,
        "num_messages": len(messages),
        "repeats": repeats,
        "python": platform.python_version(),
        "records": records,
        "city_1k": _city_1k(repeats),
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.benchmark_json}")


if __name__ == "__main__":
    main()
