#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` stack, with per-layer spans.

Run from the repository root::

    python3 perfbench/run.py --workload paper-repro --seed 1 --seconds 12 --trace 0

One run builds its inputs from ``--seed``, runs one untimed checked pass
(its outputs go through the output checks), then repeats timed passes for
``--seconds`` seconds and reports medians.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics (see ``perfbench/README.md``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full report (provenance, counts, every
metric) and the traced passes' spans are written under ``.perfbench/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import (ATTRS, END, NAME, PARENT, START, SpanRecorder, instrument,
                   self_times, top_level_coverage)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: the seed used when none is given, and the one held out for confirming
#: a claimed gain on inputs not used while the change was written
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

SETUP_SAMPLES = 3
COVERAGE_FLOOR = 0.95

END_TO_END = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """The workload classes, importing the program from ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    return WORKLOADS


def load_workload(name: str, seed: int):
    """Build the workload's inputs (and the zoo-grid's empty store)."""
    workloads = import_workloads()
    if name not in workloads:
        raise SystemExit(f"perfbench: unknown workload {name!r}; known: "
                         f"{', '.join(workloads)}, all")
    workload = workloads[name](seed, OUT_DIR / f"work-{name}-{os.getpid()}")
    workload.prepare_pass(0)
    return workload


def setup_samples(args, own: float):
    """This process's set-up time plus fresh-process probes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it.  Below 100 samples no percentile of p90 or above
    has ten samples beyond it, so the tail is then the maximum."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    if len(ordered) < 100:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# per-layer metrics from one traced pass's spans
# ----------------------------------------------------------------------
def protocol_metric(name: str) -> str:
    return "sim.protocol_s." + name.replace(" ", "_")


def layer_metrics(spans, result, protocols):
    own = self_times(spans)
    busy = defaultdict(float)
    named = defaultdict(list)
    for index, span in enumerate(spans):
        busy[span[NAME]] += own[index]
        named[span[NAME]].append(index)

    def attrs(name, key):
        return [spans[i][ATTRS][key] for i in named[name]]

    def durations(name, scale):
        return [(spans[i][END] - spans[i][START]) * scale for i in named[name]]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def inside(index, ancestor_name):
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor_name:
                return True
            parent = spans[parent][PARENT]
        return False

    m = {"datasets.load_s": busy["datasets.load"]}
    contacts = sum(attrs("scenario.build_trace", "contacts"))
    m.update({
        "scenario.build_trace_s": busy["scenario.build_trace"],
        "scenario.contacts_built": contacts,
        "scenario.contacts_per_s": ratio(
            contacts, sum(durations("scenario.build_trace", 1.0))),
        "scenario.build_messages_s": busy["scenario.build_messages"],
    })
    enumerate_ms = durations("core.enumerate", 1e3)
    paths = sum(attrs("core.enumerate", "paths"))
    exploded = attrs("core.analyze", "exploded")
    m.update({
        "core.graph_build_s": busy["core.graph_build"],
        "core.enumerate_s": busy["core.enumerate"],
        "core.enumerate_p50_ms": median(enumerate_ms),
        "core.enumerate_tail_ms": tail(enumerate_ms)[0],
        "core.paths_enumerated": paths,
        "core.paths_per_s": ratio(paths, busy["core.enumerate"]),
        "core.exploded_share": ratio(sum(exploded), len(exploded)),
        "forwarding.simulate_s": busy["forwarding.simulate"],
        "forwarding.copies_per_delivery": ratio(
            sum(attrs("forwarding.simulate", "copies")),
            sum(attrs("forwarding.simulate", "delivered"))),
        "routing.prepare_s": busy["routing.prepare"],
    })
    # code-path census: a delegated run's DES child counts to its path
    path_s = defaultdict(float)
    path_runs = defaultdict(int)
    protocol_s = defaultdict(float)
    events = copies = delivered = 0
    for index in named["sim.run"]:
        span_attrs = spans[index][ATTRS]
        spent = own[index] + sum(own[child] for child in named["sim.des_run"]
                                 if spans[child][PARENT] == index)
        path_s[span_attrs["path"]] += spent
        path_runs[span_attrs["path"]] += 1
        protocol_s[span_attrs["protocol"]] += spent
        events += 2 * span_attrs["contacts"] + span_attrs["messages"]
        copies += span_attrs["copies"]
        delivered += span_attrs["delivered"]
    for path in ("fastpath", "hook", "delegate"):
        m[f"sim.{path}_s"] = path_s[path]
        m[f"sim.runs.{path}"] = path_runs[path]
    m.update({
        "sim.events": events,
        "sim.events_per_s": ratio(events, sum(path_s.values())),
        "sim.copies_per_delivery": ratio(copies, delivered),
    })
    for name in protocols:
        m[protocol_metric(name)] = protocol_s[name]
    plan_jobs = attrs("exp.execute", "jobs")
    trace_keys = sum(attrs("exp.execute", "trace_keys"))
    builds = sum(1 for i in named["scenario.build_trace"]
                 if inside(i, "exp.execute"))
    m.update({
        "exp.plan_s": busy["exp.plan"],
        "exp.encode_s": busy["exp.encode"],
        "exp.glue_s": busy["exp.execute"],
        "exp.jobs": sum(plan_jobs),
        "exp.trace_builds_per_key": ratio(builds, trace_keys),
        "svc.put_s": busy["svc.put"],
        "svc.bytes_written": result.counts.get("store_bytes", 0),
        "svc.flush_s": busy["svc.flush"],
        "svc.load_s": busy["svc.load"],
        "svc.leaderboard_us": median(durations("svc.leaderboard", 1e6)),
        "svc.query_us": median(durations("svc.query", 1e6)),
        "svc.get_us": median(durations("svc.get", 1e6)),
        "analysis.summarize_s": busy["analysis.summarize"],
        "obs.span_coverage": top_level_coverage(spans, result.seconds),
    })
    return m


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_commit() -> str:
    """HEAD's commit read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, first):
    import numpy

    return {"workload": args.workload, "seed": args.seed,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds, "trace": args.trace,
            "sizes": {key: first.counts[key] for key in
                      ("nodes", "contacts", "messages", "jobs")
                      if key in first.counts},
            "digest": first.digest, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in import_workloads():
        status = max(status, subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = load_workload(args.workload, args.seed)
    # CPU seconds since the interpreter started: imports, inputs, store
    setup_s = time.process_time()
    if args.setup_probe:
        workload.cleanup()
        print(repr(setup_s))
        return 0
    from repro.routing.registry import protocol_names

    recorder = SpanRecorder()
    failures = []
    try:
        setups = setup_samples(args, setup_s) if args.trace == 0 else [setup_s]
        first = workload.run_pass(0, recorder)
        workload.finish_pass(0, first, keep=True)
        attempted = len(first.items) + len(first.reads)
        errors = first.errors
        try:
            checked, mismatches = workload.check(first)
        except Exception as error:  # a crashing check is a failed check
            checked, mismatches = 1, [f"output check raised {error!r}"]
        attempted += checked
        failures += mismatches
        # timed passes start from the same small heap, so the collector's
        # full sweeps cost the same in every pass
        first.outputs = None
        timed, traced, traced_spans, walls = [], [], [], []
        window_started = time.perf_counter()
        index = 0
        while True:
            index += 1
            tracing = args.trace == 1 and index % 2 == 0
            workload.prepare_pass(index)
            gc.collect()
            instrumentation = None
            if tracing:
                instrumentation = instrument(recorder)
                recorder.enabled = True
            wall_started = time.perf_counter()
            try:
                result = workload.run_pass(index, recorder)
                walls.append(time.perf_counter() - wall_started)
            finally:
                recorder.enabled = False
                if instrumentation is not None:
                    instrumentation.restore()
            workload.finish_pass(index, result, keep=False)
            attempted += len(result.items) + len(result.reads) + 1
            errors += result.errors
            if result.digest != first.digest:
                failures.append(f"pass {index} digest {result.digest} != "
                                f"checked pass digest {first.digest}")
            if tracing:
                traced.append(result)
                traced_spans.append(recorder.take())
            else:
                timed.append(result)
            over = time.perf_counter() - window_started >= args.seconds
            if over and (args.trace == 0 or traced):
                break
    finally:
        workload.cleanup()
    failed = errors + len(failures)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"provenance": provenance(args, first), "counts": first.counts,
              "passes": len(timed) + len(traced), "failures": failures,
              "failed_share": failed / attempted}
    if args.trace == 0:
        items = [r.items for r in timed]
        metrics = {
            "setup_s": median(setups),
            "run_s": median([r.seconds for r in timed]),
            "item_p50_ms": median([median(i) for i in items]) * 1e3,
            "item_tail_ms": median([tail(i)[0] for i in items]) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        report["samples"] = {
            "setup_s": setups, "run_s": [r.seconds for r in timed],
            "run_wall_s": walls,
            "items_per_pass": [len(i) for i in items],
            "item_p50_ms_per_pass": [median(i) * 1e3 for i in items],
            "item_tail_percentile": tail(items[0])[1],
            "item_tail_ms_per_pass": [tail(i)[0] * 1e3 for i in items]}
    else:
        names = protocol_names()
        per_pass = [layer_metrics(spans, result, names)
                    for spans, result in zip(traced_spans, traced)]
        metrics = {key: median([m[key] for m in per_pass])
                   for key in per_pass[0]}
        reads = [seconds * 1e6 for r in timed for _, seconds in r.reads]
        metrics["svc.query_p50_us"] = median(reads)
        metrics["svc.query_p99_us"] = (statistics.quantiles(reads, n=100)[98]
                                       if len(reads) >= 100 else 0.0)
        metrics["obs.trace_overhead"] = (
            median([r.seconds for r in traced]) /
            median([r.seconds for r in timed]))
        low = [m["obs.span_coverage"] for m in per_pass
               if m["obs.span_coverage"] < COVERAGE_FLOOR]
        if low:
            failures.append(f"span coverage {min(low):.3f} below "
                            f"{COVERAGE_FLOOR}: the breakdown misses time")
            failed += 1
        units = layer_units(names)
        if set(units) != set(metrics):
            raise SystemExit("perfbench: per-layer metrics and units differ: "
                             f"{sorted(set(units) ^ set(metrics))}")
        SpanRecorder.dump(OUT_DIR / f"spans-{stem}.json", traced_spans)
    report["metrics"] = metrics
    (OUT_DIR / f"report-{stem}.json").write_text(
        json.dumps(report, indent=2, default=repr) + "\n")
    print_report(report, metrics, units)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}))
    return 0


def layer_units(protocols):
    return {**LAYER_METRICS, **{protocol_metric(name): "s" for name in protocols}}


#: per-layer metric -> unit (the protocol breakdown is appended per name)
LAYER_METRICS = {
    "datasets.load_s": "s",
    "scenario.build_trace_s": "s", "scenario.contacts_built": "count",
    "scenario.contacts_per_s": "1/s", "scenario.build_messages_s": "s",
    "core.graph_build_s": "s", "core.enumerate_s": "s",
    "core.enumerate_p50_ms": "ms", "core.enumerate_tail_ms": "ms",
    "core.paths_enumerated": "count", "core.paths_per_s": "1/s",
    "core.exploded_share": "ratio",
    "forwarding.simulate_s": "s", "forwarding.copies_per_delivery": "ratio",
    "routing.prepare_s": "s",
    "sim.fastpath_s": "s", "sim.hook_s": "s", "sim.delegate_s": "s",
    "sim.runs.fastpath": "count", "sim.runs.hook": "count",
    "sim.runs.delegate": "count", "sim.events": "count",
    "sim.events_per_s": "1/s", "sim.copies_per_delivery": "ratio",
    "exp.plan_s": "s", "exp.encode_s": "s", "exp.glue_s": "s",
    "exp.jobs": "count", "exp.trace_builds_per_key": "ratio",
    "svc.put_s": "s", "svc.bytes_written": "bytes", "svc.flush_s": "s",
    "svc.load_s": "s", "svc.leaderboard_us": "us", "svc.query_us": "us",
    "svc.get_us": "us", "svc.query_p50_us": "us", "svc.query_p99_us": "us",
    "analysis.summarize_s": "s",
    "obs.trace_overhead": "ratio", "obs.span_coverage": "ratio",
}


def print_report(report, metrics, units):
    prov = report["provenance"]
    print(f"perfbench {prov['workload']} seed={prov['seed']} "
          f"(default {prov['default_seed']}, held-out {prov['held_out_seed']}) "
          f"commit={prov['git_commit'][:12]} python={prov['python']} "
          f"numpy={prov['numpy']} nproc={prov['nproc']}")
    print("  sizes:  " + "  ".join(f"{k}={v}" for k, v in prov["sizes"].items()))
    print("  counts: " + "  ".join(f"{k}={v}" for k, v in report["counts"].items()))
    print(f"  digest={prov['digest']}  passes={report['passes']}  "
          f"failed_share={report['failed_share']:.4g}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:14.6g} {units[key]}")


if __name__ == "__main__":
    sys.exit(main())
