"""Printing and regression-tracking helpers shared by the benchmarks.

Besides the console formatting used by the figure-reproduction benchmarks,
this module hosts the perf-regression harness: :func:`run_regression_harness`
re-times the enumeration-bound data pipelines behind Figures 3, 4 and 6 with
both the reference (seed) engine and the fast engine, and writes the medians
to a JSON file (``BENCH_enumeration.json`` at the repo root by default, or
wherever ``--benchmark-json`` points) so future PRs can track the perf
trajectory.  Run it via::

    PYTHONPATH=src python benchmarks/bench_regression.py [--quick] \
        [--benchmark-json PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "print_header",
    "print_series",
    "BENCH_SCALE",
    "BENCH_N_EXPLOSION",
    "BENCH_NUM_MESSAGES",
    "BENCH_MESSAGE_RATE",
    "DEFAULT_BENCHMARK_JSON",
    "regression_benchmarks",
    "run_regression_harness",
    "time_interleaved",
]

#: Scale applied to the paper's 98-node populations for benchmark runs.
BENCH_SCALE = 0.5

#: Explosion threshold used by the benchmarks (the paper uses 2000).
BENCH_N_EXPLOSION = 200

#: Number of random messages per dataset for the path-enumeration studies.
BENCH_NUM_MESSAGES = 30

#: Message arrival rate (per second) for the forwarding benchmarks; scaled
#: down with the population from the paper's 0.25 msg/s on 98 nodes.
BENCH_MESSAGE_RATE = 0.05


def print_header(title: str) -> None:
    """Print a section header so the bench output reads like the paper's figures."""
    print(f"\n=== {title} ===")


def print_series(label: str, xs: Iterable[float], ys: Iterable[float],
                 max_rows: int = 12) -> None:
    """Print an (x, y) series as aligned rows, subsampled to *max_rows*."""
    xs = list(xs)
    ys = list(ys)
    if not xs:
        print(f"  {label}: (empty)")
        return
    step = max(1, len(xs) // max_rows)
    print(f"  {label}:")
    for index in range(0, len(xs), step):
        print(f"    {xs[index]:>12.2f}  {ys[index]:>12.4f}")


# ----------------------------------------------------------------------
# perf-regression harness
# ----------------------------------------------------------------------

#: Default location of the regression record, at the repository root.
DEFAULT_BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCH_enumeration.json"


def _fig03_workload(engine: str):
    """One-message enumeration on the primary dataset (the Figure 3 bench)."""
    from repro.core import PathEnumerator, SpaceTimeGraph, random_messages
    from repro.datasets import load_dataset

    trace = load_dataset("infocom06-9-12", scale=BENCH_SCALE,
                         contact_scale=BENCH_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    if engine == "fast":
        graph.step_tables()  # warmed once per trace, as in batch use
    enumerator = PathEnumerator(graph, k=BENCH_N_EXPLOSION, engine=engine)
    source, destination, t1 = random_messages(trace, 1, seed=77)[0]

    def run():
        return enumerator.enumerate(source, destination, t1,
                                    max_total_deliveries=BENCH_N_EXPLOSION)

    return run


def _fig04_workload(engine: str):
    """The Figure 4 data pipeline: explosion studies on both Infocom windows
    plus the duration/TE CDF assembly."""
    from repro.analysis import (figure4_duration_and_explosion_cdfs,
                                run_path_explosion_study)
    from repro.datasets import load_dataset

    keys = ("infocom06-9-12", "infocom06-3-6")
    traces = {key: load_dataset(key, scale=BENCH_SCALE, contact_scale=BENCH_SCALE)
              for key in keys}

    def run():
        records = {
            key: run_path_explosion_study(
                traces[key], num_messages=max(10, BENCH_NUM_MESSAGES // 2),
                n_explosion=BENCH_N_EXPLOSION, seed=202, engine=engine,
            )
            for key in keys
        }
        return figure4_duration_and_explosion_cdfs(records)

    return run


def _fig06_workload(engine: str):
    """The Figure 6 data pipeline: the paths-retained explosion study plus
    the aggregated growth curve."""
    from repro.analysis import figure6_path_growth, run_path_explosion_study
    from repro.datasets import load_dataset

    trace = load_dataset("infocom06-9-12", scale=BENCH_SCALE,
                         contact_scale=BENCH_SCALE)

    def run():
        records = run_path_explosion_study(
            trace, num_messages=BENCH_NUM_MESSAGES,
            n_explosion=BENCH_N_EXPLOSION, seed=101, keep_paths=True,
            engine=engine,
        )
        te_values = [r.time_to_explosion for r in records
                     if r.time_to_explosion is not None]
        threshold = (sorted(te_values)[int(0.75 * len(te_values))]
                     if te_values else 0.0)
        return figure6_path_growth(records, te_threshold=threshold,
                                   bin_seconds=10.0, horizon=250.0)

    return run


def regression_benchmarks(quick: bool = False) -> List[Tuple[str, Callable[[str], Callable], int]]:
    """The tracked benches as ``(name, workload_builder, rounds)`` triples.

    *rounds* is the number of timed repetitions per engine (the recorded
    value is the median).  ``quick=True`` keeps only the cheap Figure 3
    bench, for smoke-testing the harness itself.
    """
    benches = [("bench_fig03_path_enumeration", _fig03_workload, 5)]
    if not quick:
        benches.append(("bench_fig04_duration_and_explosion_cdfs",
                        _fig04_workload, 3))
        benches.append(("bench_fig06_path_growth", _fig06_workload, 3))
    return benches


def time_interleaved(runs: Dict[str, Callable[[], object]],
                     rounds: int) -> Dict[str, List[float]]:
    """Wall-clock samples of every run in *runs*, timed in interleaved
    rounds: each round times all of them once, back to back.

    A slow stretch of a shared machine then hits a whole round rather than
    one run, so a ratio taken per round (and then its median) cancels it.
    """
    samples: Dict[str, List[float]] = {name: [] for name in runs}
    for _ in range(rounds):
        for name, run in runs.items():
            started = time.perf_counter()
            run()
            samples[name].append(time.perf_counter() - started)
    return samples


def run_regression_harness(argv: Optional[Sequence[str]] = None) -> Dict:
    """Time the tracked benches with both engines and write the JSON record.

    Returns the record that was written.  Each bench entry carries the
    per-engine median (seconds), the raw samples, and the resulting speedup,
    so a future PR can diff its own run against the committed file.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON,
                        help="where to write the regression record "
                             f"(default: {DEFAULT_BENCHMARK_JSON})")
    parser.add_argument("--quick", action="store_true",
                        help="run only the cheap Figure 3 bench")
    parser.add_argument("--engines", nargs="+",
                        default=["reference", "fast"],
                        choices=["reference", "fast"],
                        help="engines to time (default: both)")
    args = parser.parse_args(argv)

    record: Dict = {
        "schema": "repro-bench-enumeration/1",
        "config": {
            "scale": BENCH_SCALE,
            "n_explosion": BENCH_N_EXPLOSION,
            "num_messages": BENCH_NUM_MESSAGES,
            "python": platform.python_version(),
        },
        "benchmarks": {},
    }
    # A partial run (--quick or a single --engines) must not discard the
    # committed baselines for the benches/engines it did not re-time: merge
    # into the existing record when one is present and compatible.
    if args.benchmark_json.exists():
        try:
            previous = json.loads(args.benchmark_json.read_text())
        except (OSError, json.JSONDecodeError):
            previous = {}
        if previous.get("schema") == record["schema"]:
            record["benchmarks"].update(previous.get("benchmarks", {}))

    for name, builder, rounds in regression_benchmarks(quick=args.quick):
        entry: Dict = dict(record["benchmarks"].get(name, {}))
        entry["rounds"] = rounds
        for engine in args.engines:
            samples = time_interleaved({engine: builder(engine)},
                                       rounds)[engine]
            entry[f"{engine}_median_s"] = statistics.median(samples)
            entry[f"{engine}_samples_s"] = samples
            print(f"{name} [{engine}]: median "
                  f"{statistics.median(samples):.4f}s over {rounds} rounds")
        if "reference_median_s" in entry and "fast_median_s" in entry:
            entry["speedup"] = entry["reference_median_s"] / entry["fast_median_s"]
            print(f"{name}: speedup {entry['speedup']:.2f}x")
        record["benchmarks"][name] = entry

    args.benchmark_json.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.benchmark_json}")
    return record
