#!/usr/bin/env python3
"""Benchmark: the experiment service layer (``repro.svc``).

Three questions, answered with numbers in ``BENCH_svc.json``:

* **Query latency** — on a generated store of ``--records`` RunRecords
  (100k by default, sized so a full scan hurts), how much faster are
  filtered queries and leaderboards against the store's bucket indexes
  and incrementally maintained aggregates than a flat scan of the same
  records?  The baseline is the work the retired flat store did per
  call: the generated JSONL file is parsed once, then every call builds
  each record's :func:`~repro.exp.store.record_entry` and filters (query)
  or folds them (:func:`~repro.exp.store.aggregate_leaderboard`).  The
  pin this repo enforces via ``obs bench-check``: **>= 10x for both**
  (``filtered_query_speedup``, ``leaderboard_speedup`` — dimensionless,
  so they survive machine changes).  Both sides are timed *loaded*;
  cold-start replay cost is reported separately.
* **Cold-start replay** — reading the records from disk: the store
  replays compact index lines, the flat scan parses every record body.
* **Daemon throughput** — jobs/second through the asyncio daemon
  (submit -> settle, chunked ``execute_plan`` off-thread) vs calling
  :func:`repro.exp.execute_plan` directly on the same grid.  The daemon
  adds scheduling, journaling and dedupe bookkeeping; this records what
  that costs on real simulation jobs.

Usage::

    PYTHONPATH=src python benchmarks/bench_svc.py [--quick]
        [--records N] [--benchmark-json PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE, _HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.exp.orchestrator import execute_plan  # noqa: E402
from repro.exp.plan import build_plan  # noqa: E402
from repro.exp.records import RECORD_SCHEMA  # noqa: E402
from repro.exp.spec import ExperimentSpec  # noqa: E402
from repro.exp.store import aggregate_leaderboard, record_entry  # noqa: E402
from repro.svc.daemon import ExperimentDaemon  # noqa: E402
from repro.svc.store import (  # noqa: E402
    ShardedResultStore,
    create_store,
    migrate_store,
)

DEFAULT_BENCHMARK_JSON = _HERE.parent / "BENCH_svc.json"

PROTOCOLS = [f"protocol-{i:02d}" for i in range(20)]
SCENARIOS = [f"scenario-{i:02d}" for i in range(10)]


# ----------------------------------------------------------------------
# synthetic store generation
# ----------------------------------------------------------------------
def _record(index: int) -> dict:
    job_hash = hashlib.sha256(f"bench-{index}".encode()).hexdigest()
    protocol = PROTOCOLS[index % len(PROTOCOLS)]
    scenario = SCENARIOS[(index // len(PROTOCOLS)) % len(SCENARIOS)]
    delivered = index % 4
    outcomes = [[i, 0, 1, 10.0, 1.0, 900.0, i < delivered,
                 70.0 + 60.0 * i if i < delivered else None,
                 1 if i < delivered else 0] for i in range(4)]
    return {"schema": RECORD_SCHEMA, "job_hash": job_hash, "status": "ok",
            "experiment": "svc-bench", "scenario": scenario,
            "protocol": protocol, "seed": index, "run_index": 0,
            "constraints": {},
            "result": {"algorithm": protocol, "trace_name": scenario,
                       "stats": {"copies_sent": 3 + index % 5},
                       "outcomes": outcomes}}


def _generate_flat_store(root: Path, count: int) -> None:
    """Write *count* records straight into the flat JSONL layout."""
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "records.jsonl", "w", encoding="utf-8") as handle:
        for index in range(count):
            handle.write(json.dumps(_record(index), sort_keys=True,
                                    separators=(",", ":")) + "\n")


def _best(callable_, repeats: int, inner: int = 1) -> tuple:
    """(best per-call seconds, all samples) over *repeats* timings."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            callable_()
        samples.append((time.perf_counter() - started) / inner)
    return min(samples), samples


def _read_flat(path: Path) -> list:
    """Every record of a flat JSONL file, last write per hash winning."""
    records = {}
    with open(path, "rb") as handle:
        for line in handle:
            record = json.loads(line)
            records[record["job_hash"]] = record
    return list(records.values())


def _flat_query(records: list, filters: dict) -> list:
    """A filtered query as a flat scan: every record's entry, filtered,
    sorted by job hash."""
    matches = [entry for entry in map(record_entry, records)
               if all(entry.get(key) == value
                      for key, value in filters.items())]
    matches.sort(key=lambda entry: entry["job_hash"])
    return matches


def _flat_leaderboard(records: list) -> list:
    return aggregate_leaderboard(map(record_entry, records))


# ----------------------------------------------------------------------
# query latency: loaded flat scan vs loaded store
# ----------------------------------------------------------------------
def bench_queries(flat_root: Path, sharded_root: Path, count: int,
                  repeats: int) -> dict:
    flat_path = flat_root / "records.jsonl"
    sharded = ShardedResultStore(sharded_root)

    flat_replay, _ = _best(lambda: _read_flat(flat_path), 1)
    sharded_replay, _ = _best(
        lambda: ShardedResultStore(sharded_root).load(), 1)
    flat = _read_flat(flat_path)
    sharded.load()

    filters = {"protocol": PROTOCOLS[3], "scenario": SCENARIOS[7]}
    expected = {entry["job_hash"] for entry in _flat_query(flat, filters)}
    got = {entry["job_hash"] for entry in sharded.query_entries(**filters)}
    assert got == expected and expected, "store disagrees with the scan"
    # the flat scans are milliseconds-per-call, the sharded lookups are
    # microseconds: only the latter need inner-loop batching to resolve
    inner = 200

    flat_query, flat_query_samples = _best(
        lambda: _flat_query(flat, filters), repeats)
    sharded_query, sharded_query_samples = _best(
        lambda: sharded.query_entries(**filters), repeats, inner)
    assert _flat_leaderboard(flat) == sharded.leaderboard()
    flat_board, flat_board_samples = _best(
        lambda: _flat_leaderboard(flat), repeats)
    sharded_board, sharded_board_samples = _best(
        lambda: sharded.leaderboard(), repeats, inner)

    return {
        "records": count,
        "protocols": len(PROTOCOLS),
        "scenarios": len(SCENARIOS),
        "bucket_records": len(expected),
        "flat_filtered_query_s": flat_query,
        "sharded_filtered_query_s": sharded_query,
        "filtered_query_speedup": flat_query / sharded_query,
        "flat_leaderboard_s": flat_board,
        "sharded_leaderboard_s": sharded_board,
        "leaderboard_speedup": flat_board / sharded_board,
        "cold_start_flat_replay_s": flat_replay,
        "cold_start_sharded_replay_s": sharded_replay,
        "samples": {
            "flat_filtered_query_s": flat_query_samples,
            "sharded_filtered_query_s": sharded_query_samples,
            "flat_leaderboard_s": flat_board_samples,
            "sharded_leaderboard_s": sharded_board_samples,
        },
    }


# ----------------------------------------------------------------------
# daemon throughput vs direct execute_plan
# ----------------------------------------------------------------------
def bench_daemon(scratch: Path, jobs: int) -> dict:
    spec = ExperimentSpec(
        name="svc-bench", scenarios=("paper-ttl-tight",),
        protocols=("Direct Delivery",), seeds=tuple(range(jobs)),
        num_runs=1)
    plan = build_plan(spec, check_flat_ttl_sweep=False)

    direct_store = create_store(scratch / "direct")
    started = time.perf_counter()
    execute_plan(plan, store=direct_store, resume=True)
    direct_s = time.perf_counter() - started

    async def run_daemon() -> float:
        daemon = ExperimentDaemon(scratch / "daemon", chunk_size=16)
        await daemon.start(recover=False)
        started = time.perf_counter()
        info = daemon.submit(spec)
        while daemon.submissions[info["id"]].state in ("queued", "running"):
            await asyncio.sleep(0.005)
        elapsed = time.perf_counter() - started
        await daemon.drain()
        assert daemon.jobs_executed == len(plan.jobs)
        return elapsed

    daemon_s = asyncio.run(run_daemon())
    return {
        "jobs": len(plan.jobs),
        "direct_s": direct_s,
        "daemon_s": daemon_s,
        "direct_jobs_per_s": len(plan.jobs) / direct_s,
        "daemon_jobs_per_s": len(plan.jobs) / daemon_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller store and grid (the CI configuration)")
    parser.add_argument("--records", type=int, default=None,
                        help="records in the generated store "
                             "(default: 100000, quick: 10000)")
    parser.add_argument("--benchmark-json", type=Path,
                        default=DEFAULT_BENCHMARK_JSON)
    args = parser.parse_args()

    count = args.records if args.records is not None else \
        (10_000 if args.quick else 100_000)
    repeats = 3 if args.quick else 5
    jobs = 40 if args.quick else 120

    with tempfile.TemporaryDirectory(prefix="bench-svc-") as scratch_name:
        scratch = Path(scratch_name)
        print(f"generating {count} records ...")
        _generate_flat_store(scratch / "flat", count)
        report = migrate_store(scratch / "flat", scratch / "sharded")
        print(f"migrated into {report['shards']} shards; timing queries "
              f"({repeats} repetitions)")
        query = bench_queries(scratch / "flat", scratch / "sharded",
                              count, repeats)
        print(f"  filtered query  flat {query['flat_filtered_query_s'] * 1e3:8.3f} ms   "
              f"sharded {query['sharded_filtered_query_s'] * 1e6:8.1f} us   "
              f"speedup {query['filtered_query_speedup']:7.1f}x")
        print(f"  leaderboard     flat {query['flat_leaderboard_s'] * 1e3:8.3f} ms   "
              f"sharded {query['sharded_leaderboard_s'] * 1e6:8.1f} us   "
              f"speedup {query['leaderboard_speedup']:7.1f}x")
        print(f"  cold start      flat {query['cold_start_flat_replay_s']:.3f} s   "
              f"sharded {query['cold_start_sharded_replay_s']:.3f} s")
        shutil.rmtree(scratch / "flat")
        shutil.rmtree(scratch / "sharded")

        print(f"daemon throughput on a {jobs}-job grid ...")
        daemon = bench_daemon(scratch, jobs)
        print(f"  direct {daemon['direct_jobs_per_s']:7.1f} jobs/s   "
              f"daemon {daemon['daemon_jobs_per_s']:7.1f} jobs/s")

    threshold = 10.0
    pin_ok = (query["filtered_query_speedup"] >= threshold
              and query["leaderboard_speedup"] >= threshold)
    payload = {
        "benchmark": "svc",
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "pin": {
            "claim": ("sharded filtered queries and cached leaderboards "
                      ">= 10x faster than the flat store's scans"),
            "threshold": threshold,
            "filtered_query_speedup": query["filtered_query_speedup"],
            "leaderboard_speedup": query["leaderboard_speedup"],
            "holds": pin_ok,
        },
        "records": {"query": query, "daemon": daemon},
    }
    with open(args.benchmark_json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.benchmark_json}")
    if not pin_ok:
        sys.exit(f"pin violated: sharded speedups "
                 f"{query['filtered_query_speedup']:.1f}x / "
                 f"{query['leaderboard_speedup']:.1f}x < {threshold:.0f}x")


if __name__ == "__main__":
    main()
