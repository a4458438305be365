#!/usr/bin/env python3
"""Tour of the observability layer: tracing, telemetry, live status.

Four stops, all on a paper dataset stand-in:

1. attach a :class:`~repro.obs.RecordingTracer` to a forwarding run and
   inspect the structured event stream (creates, forwards, deliveries);
2. re-run without the tracer and check the
   :func:`~repro.forwarding.metrics.summarize` row is byte for byte the
   same (a tracer observes, it never changes results);
3. run a small experiment with a full :class:`~repro.obs.ObsConfig` —
   per-job JSONL traces plus a ``metrics.json`` telemetry artifact;
4. poll the finished experiment with a :class:`~repro.obs.StatusTracker`,
   the incremental feed behind ``exp watch``.

Run with::

    PYTHONPATH=src python examples/trace_and_watch.py
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

from repro.datasets import load_dataset
from repro.exp import ExperimentSpec, run_experiment
from repro.forwarding import ForwardingSimulator, PoissonMessageWorkload
from repro.forwarding.algorithms import algorithm_by_name
from repro.forwarding.metrics import summarize
from repro.obs import ObsConfig, RecordingTracer, StatusTracker, read_trace

SPEC = ExperimentSpec(
    name="obs-tour",
    scenarios=("paper-ttl-tight",),
    protocols=("Epidemic", "Direct Delivery"),
    seeds=(7,),
    num_runs=1,
)


def traced_run():
    print("1. a traced forwarding run")
    trace = load_dataset("infocom06-9-12", scale=0.2, contact_scale=0.2)
    messages = PoissonMessageWorkload(rate=0.01).generate(trace, seed=11)
    tracer = RecordingTracer()
    result = ForwardingSimulator(trace, algorithm_by_name("Epidemic"),
                                 tracer=tracer).run(messages)
    counts = Counter(record["event"] for record in tracer.events)
    print(f"   {len(tracer.events)} events over {trace.name}: "
          + ", ".join(f"{event}={count}"
                      for event, count in sorted(counts.items())))
    first_delivery = tracer.by_event("deliver")[0]
    print(f"   first delivery: message {first_delivery['msg']} reached "
          f"node {first_delivery['node']} after {first_delivery['hops']} "
          f"hop(s), delay {first_delivery['delay']:.0f}s")
    return trace, messages, result


def tracing_changes_nothing(trace, messages, traced):
    print("2. the same run without a tracer gives the same summary")
    untraced = ForwardingSimulator(trace,
                                   algorithm_by_name("Epidemic")).run(messages)
    traced_row = summarize(traced).as_row()
    untraced_row = summarize(untraced).as_row()
    print(f"   traced  : {traced_row}")
    print(f"   untraced: {untraced_row}")
    print(f"   identical: {traced_row == untraced_row}")


def instrumented_experiment(workdir: Path) -> Path:
    print("3. an experiment with traces and a metrics.json artifact")
    store = workdir / "results"
    obs = ObsConfig(trace_dir=str(workdir / "traces"),
                    metrics_path=str(workdir / "metrics.json"),
                    profile=True)
    run_experiment(SPEC, store=store, obs=obs)
    metrics = json.loads((workdir / "metrics.json").read_text())
    totals = metrics["engine_totals"]
    print(f"   executed {metrics['executed']} job(s); engine processed "
          f"{totals['events']} events in {totals['wall_s'] * 1e3:.0f}ms "
          f"of engine time")
    print("   phases: " + ", ".join(f"{name} {elapsed * 1e3:.0f}ms"
                                    for name, elapsed
                                    in metrics["phases"].items()))
    for trace_file in sorted((workdir / "traces").iterdir()):
        events = read_trace(trace_file)
        print(f"   {trace_file.name}: {len(events)} events")
    return store


def watch_the_store(store: Path) -> None:
    print("4. incremental status (what `exp watch` polls)")
    tracker = StatusTracker(SPEC, store=store)
    status = tracker.refresh()
    print(f"   {status['done']}/{status['total_jobs']} done, "
          f"{status['failed']} failed, {status['pending']} pending; "
          f"complete: {tracker.is_complete}")


def main() -> None:
    trace, messages, result = traced_run()
    tracing_changes_nothing(trace, messages, result)
    with tempfile.TemporaryDirectory(prefix="obs-tour-") as scratch:
        store = instrumented_experiment(Path(scratch))
        watch_the_store(store)


if __name__ == "__main__":
    main()
