#!/usr/bin/env python3
"""Benchmark: observability overhead on the simulation engines.

Every probe site in both engines is guarded by a single ``is not None``
check, so observability that is *off* must be free.  This benchmark pins
that claim: it times the Section 6 forwarding replay (same dataset,
workload and algorithms as ``bench_sim_engines.py``) in four modes —

* ``off``        — no tracer, no telemetry (the default hot path);
* ``recording``  — in-memory :class:`~repro.obs.RecordingTracer`;
* ``jsonl``      — :class:`~repro.obs.JsonlTracer` streaming to disk;
* ``telemetry``  — :class:`~repro.obs.EngineTelemetry` counters/samples —

and pins the disabled overhead below 2% against the pre-observability
engine.  Two baseline sources, in order of rigor:

* ``--paired-baseline SRC`` — a ``src/`` tree of the pre-observability
  package (e.g. a detached worktree of the previous release).  It is
  imported under an alias and the two engines are timed *interleaved*,
  round by round, in one process; the per-round ratio pairs cancel
  machine-load drift, so this is the measurement the pin trusts.
* ``--baseline-json PATH`` — a recorded ``BENCH_sim.json`` with a
  matching configuration (best-of-N against best-of-N).  Cross-run
  wall-clock comparison: indicative, not load-proof.

The four modes of one configuration are timed in interleaved rounds
(``_bench_utils.time_interleaved``), and each ``*_overhead`` is the median
of the per-round mode/off ratios, so a slow stretch of a shared machine
hits a whole round and cancels.  Medians and overheads land in
``BENCH_obs.json``::

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]
        [--benchmark-json PATH] [--baseline-json PATH]
        [--paired-baseline SRC]
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import tempfile
import time
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
from repro.forwarding.algorithms import algorithm_by_name  # noqa: E402
from repro.obs import EngineTelemetry, JsonlTracer, RecordingTracer  # noqa: E402
from repro.sim import DesSimulator  # noqa: E402

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_obs.json"
DEFAULT_BASELINE_JSON = _HERE.parent / "BENCH_sim.json"
ALGORITHMS = ("Epidemic", "Greedy", "Dynamic Programming")
#: "trace" is the trace-driven oracle (tests/oracles/trace_engine.py)
ENGINES = {"trace": TraceEngine, "des": DesSimulator}


def _modes(scratch_dir: Path):
    """mode name -> kwargs factory for one simulator construction."""
    counter = {"n": 0}

    def jsonl_kwargs():
        counter["n"] += 1
        return {"tracer": JsonlTracer(scratch_dir / f"t{counter['n']}.jsonl")}

    return {
        "off": lambda: {},
        "recording": lambda: {"tracer": RecordingTracer()},
        "jsonl": jsonl_kwargs,
        "telemetry": lambda: {"telemetry": EngineTelemetry()},
    }


def _import_baseline_package(src: Path):
    """Load the pre-observability ``repro`` package under an alias.

    The package uses only relative imports internally, so aliasing the
    top-level name lets both engine generations coexist in one process —
    the precondition for paired, interleaved timing.
    """
    import importlib.util

    name = "repro_obs_baseline"
    spec = importlib.util.spec_from_file_location(
        name, src / "repro" / "__init__.py",
        submodule_search_locations=[str(src / "repro")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _paired_ratio(candidate_factory, baseline_factory, rounds: int) -> dict:
    """Ratio of per-side minimum CPU times over interleaved rounds.

    Each round times one candidate run immediately followed by one
    baseline run with the garbage collector parked.  Both sides are
    single-threaded pure computation (the off mode does no I/O), so
    ``time.process_time`` sidesteps preemption; taking each side's
    *minimum* over many interleaved rounds then discards frequency-scaling
    and cache-contention spikes — noise only ever adds time, so the minima
    estimate the uncontended cost of each code path.
    """
    candidate_factory()  # warm both paths before timing
    baseline_factory()
    candidate_times, baseline_times = [], []
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        started = time.process_time()
        candidate_factory()
        candidate_times.append(time.process_time() - started)
        started = time.process_time()
        baseline_factory()
        baseline_times.append(time.process_time() - started)
        gc.enable()
    return {"ratio": min(candidate_times) / min(baseline_times),
            "candidate_s": candidate_times, "baseline_s": baseline_times}


def _load_baseline(path: Path, trace_name: str, num_messages: int):
    """The pre-observability engine's medians, when comparable."""
    if not path.exists():
        return None, "no baseline file"
    try:
        baseline = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None, "unreadable baseline file"
    if baseline.get("dataset") != trace_name or \
            baseline.get("num_messages") != num_messages:
        return None, (f"configuration mismatch "
                      f"(baseline ran {baseline.get('dataset')} with "
                      f"{baseline.get('num_messages')} messages)")
    note = None
    if baseline.get("python") != platform.python_version():
        note = (f"baseline python {baseline.get('python')} != "
                f"{platform.python_version()}; ratios are indicative only")
    return baseline.get("records", {}), note


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller dataset and fewer repetitions")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    parser.add_argument("--baseline-json", type=Path,
                        default=DEFAULT_BASELINE_JSON,
                        help="a BENCH_sim.json to compare the off mode "
                             "against (default: repo root)")
    parser.add_argument("--paired-baseline", type=Path, default=None,
                        metavar="SRC",
                        help="src/ tree of the pre-observability package; "
                             "enables interleaved paired timing (the "
                             "load-proof pin measurement)")
    args = parser.parse_args()

    scale = 0.2 if args.quick else 0.5
    repeats = 9 if args.quick else 15
    rate = 0.02 if args.quick else 0.05
    trace = load_dataset("infocom06-9-12", scale=scale, contact_scale=scale)
    messages = PoissonMessageWorkload(rate=rate).generate(trace, seed=77)
    print(f"dataset: {trace.name} ({trace.num_nodes} nodes, {len(trace)} "
          f"contacts), {len(messages)} messages, {repeats} repetitions\n")

    paired = None
    if args.paired_baseline is not None:
        old = _import_baseline_package(args.paired_baseline)
        # rebuild trace and workload inside the baseline package: the two
        # generations must not share objects (isinstance checks, caches)
        old_trace = old.datasets.load_dataset(
            "infocom06-9-12", scale=scale, contact_scale=scale)
        old_messages = old.forwarding.PoissonMessageWorkload(
            rate=rate).generate(old_trace, seed=77)
        assert len(old_messages) == len(messages), \
            "baseline package drew a different workload"
        old_engines = {
            "trace": lambda name: old.forwarding.ForwardingSimulator(
                old_trace, old.forwarding.algorithms.algorithm_by_name(name)),
            "des": lambda name: old.sim.DesSimulator(
                old_trace, old.forwarding.algorithms.algorithm_by_name(name)),
        }
        paired = (old_engines, old_messages)
        print(f"paired baseline: {args.paired_baseline} "
              f"(interleaved timing)\n")
        baseline, baseline_note = None, "paired baseline in use"
    else:
        baseline, baseline_note = _load_baseline(
            args.baseline_json, trace.name, len(messages))
        if baseline is None:
            print(f"baseline: skipped — {baseline_note}\n")
        elif baseline_note:
            print(f"baseline: {args.baseline_json} ({baseline_note})\n")
        else:
            print(f"baseline: {args.baseline_json}\n")

    records = {}
    worst_disabled_ratio = None
    pooled_candidate = pooled_baseline = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as scratch:
        modes = _modes(Path(scratch))
        for name in ALGORITHMS:
            algorithm_record = {}
            for engine_name, simulator_class in ENGINES.items():
                runs = {
                    mode: (lambda factory=factory: simulator_class(
                        trace, algorithm_by_name(name),
                        **factory()).run(messages))
                    for mode, factory in modes.items()}
                for run in runs.values():
                    run()  # warm-up
                samples = time_interleaved(runs, repeats)
                off_samples = samples["off"]
                entry = {f"{mode}_s": statistics.median(times)
                         for mode, times in samples.items()}
                for mode in ("recording", "jsonl", "telemetry"):
                    entry[f"{mode}_overhead"] = statistics.median(
                        probed / off
                        for probed, off in zip(samples[mode], off_samples))
                ratio = None
                if paired is not None:
                    old_engines, old_messages = paired
                    comparison = _paired_ratio(
                        lambda: simulator_class(
                            trace,
                            algorithm_by_name(name)).run(messages),
                        lambda: old_engines[engine_name](name)
                        .run(old_messages),
                        rounds=max(12, 6 * repeats))
                    ratio = comparison["ratio"]
                    entry["paired_candidate_s"] = comparison["candidate_s"]
                    entry["paired_baseline_s"] = comparison["baseline_s"]
                    pooled_candidate += min(comparison["candidate_s"])
                    pooled_baseline += min(comparison["baseline_s"])
                else:
                    baseline_key = {"trace": "trace_driven",
                                    "des": "des_unconstrained"}[engine_name]
                    baseline_entry = (baseline or {}).get(name, {})
                    # best-of-N against best-of-N: the min is the classic
                    # noise-robust wall-clock estimator, so the ratio
                    # reflects the code path, not scheduler jitter between
                    # the two runs
                    reference = baseline_entry.get(
                        "samples", {}).get(baseline_key)
                    reference = (min(reference) if reference
                                 else baseline_entry.get(f"{baseline_key}_s"))
                    if reference:
                        ratio = min(off_samples) / reference
                        pooled_candidate += min(off_samples)
                        pooled_baseline += reference
                if ratio is not None:
                    entry["vs_baseline"] = ratio
                    if worst_disabled_ratio is None or \
                            ratio > worst_disabled_ratio:
                        worst_disabled_ratio = ratio
                algorithm_record[engine_name] = entry
                versus = ("" if "vs_baseline" not in entry
                          else f"   vs baseline {entry['vs_baseline']:5.2f}x")
                print(f"  {name:<22s} {engine_name:<6s} "
                      f"off {entry['off_s'] * 1e3:7.1f} ms   "
                      f"jsonl {entry['jsonl_s'] * 1e3:7.1f} ms   "
                      f"telemetry {entry['telemetry_s'] * 1e3:7.1f} ms"
                      f"{versus}")
            records[name] = algorithm_record

    # The pin statistic is the POOLED ratio: total best-case engine CPU
    # across every algorithm x engine configuration, candidate over
    # baseline.  Per-configuration minima still carry a few percent of
    # machine noise each (frequency scaling hits CPU time too); summing
    # six paired configurations (~1 s of engine CPU per side) averages
    # that out, which is what a claim about *the engine* needs.  The
    # per-configuration ratios stay in ``records`` as diagnostics.
    pooled_ratio = (pooled_candidate / pooled_baseline
                    if pooled_baseline else None)
    payload = {
        "benchmark": "obs",
        "dataset": trace.name,
        "num_messages": len(messages),
        "repeats": repeats,
        "python": platform.python_version(),
        "pin": {
            "claim": "tracing disabled costs <2% vs the pre-obs engine",
            "threshold": 1.02,
            "pooled_disabled_vs_baseline": pooled_ratio,
            "worst_config_ratio": worst_disabled_ratio,
            "method": ("paired-interleaved" if paired is not None
                       else "recorded-json"),
            "baseline": (str(args.paired_baseline)
                         if paired is not None
                         else None if baseline is None
                         else str(args.baseline_json)),
            "baseline_note": baseline_note,
        },
        "records": records,
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if pooled_ratio is not None:
        print(f"\npooled disabled-mode ratio vs baseline: "
              f"{pooled_ratio:.3f} (pin: <= 1.02; "
              f"worst single configuration {worst_disabled_ratio:.3f})")
    print(f"wrote {args.benchmark_json}")


if __name__ == "__main__":
    main()
