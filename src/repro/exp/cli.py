"""The ``python -m repro exp`` subcommands.

Wired into the main parser by :mod:`repro.sim.cli`::

    python -m repro exp run spec.json [--store DIR] [--workers N] [...]
    python -m repro exp resume spec.json [--store DIR] [...]
    python -m repro exp status spec.json [--store DIR]

``run`` plans the spec's grid, executes whatever the store cannot already
answer, persists every new RunRecord and prints the pooled per-cell table.
``resume`` is the same operation under the name that matches intent after
an interruption.  ``status`` only plans and reports done/pending counts per
scenario — it never simulates; ``status --live`` / ``watch`` poll the store
incrementally and redraw the counts until the grid settles.  ``run`` and
``resume`` take the shared observability flags: ``--trace-dir`` writes one
JSONL trace per executed job, ``--metrics-json`` a run-telemetry artifact,
``--profile`` adds parent-side phase timings to it.  ``run``/``resume``
with ``--remote URL`` submit the spec to a running experiment service
(:mod:`repro.svc`) and wait, instead of executing locally.  See
:mod:`repro.exp.spec` for the JSON spec format;
``examples/exp_quickstart.json`` is a runnable starter and
``examples/exp_inline_scenario.json`` shows an inline scenario definition
(a full ``{"kind": "scenario", ...}`` dict in the ``scenarios`` list —
see :mod:`repro.scenario` — instead of a registry name).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import List, Optional

from ..analysis.tables import format_table
from .spec import ExperimentSpec
from .store import DEFAULT_STORE_ROOT

__all__ = ["add_exp_commands", "add_workers_option", "dispatch_exp_command"]


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def add_workers_option(parser: argparse.ArgumentParser, jobs: str) -> None:
    """The one fan-out flag every running command shares."""
    parser.add_argument("--workers", type=_positive_int, default=1,
                        metavar="N",
                        help=f"fan {jobs} over a pool of N worker processes "
                             "(default: 1, in this process)")


def add_exp_commands(commands: argparse._SubParsersAction) -> None:
    """Attach the ``exp`` command tree to the main parser."""
    exp = commands.add_parser(
        "exp", help="declarative experiment grids with a resumable store")
    exp_commands = exp.add_subparsers(dest="exp_command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="path to an ExperimentSpec JSON file "
                                     "(scenario entries may be registry "
                                     "names or inline scenario definitions)")
    common.add_argument("--store", default=DEFAULT_STORE_ROOT, metavar="DIR",
                        help="result store directory "
                             f"(default: {DEFAULT_STORE_ROOT}/)")

    for name, help_text in (
        ("run", "plan the grid, run what the store cannot answer"),
        ("resume", "alias of run: continue an interrupted experiment"),
    ):
        command = exp_commands.add_parser(name, parents=[common],
                                          help=help_text)
        add_workers_option(command, "jobs")
        command.add_argument("--no-store", action="store_true",
                             help="purely in-memory run (nothing persisted, "
                                  "nothing resumed)")
        command.add_argument("--fresh", action="store_true",
                             help="ignore stored records and re-run every "
                                  "job (new records still persist)")
        command.add_argument("--json", metavar="PATH", default=None,
                             help="also write the pooled rows as JSON")
        command.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-job wall-clock budget; a job past it "
                                  "is retried, then quarantined")
        command.add_argument("--retries", type=int, default=0, metavar="N",
                             help="extra attempts per failing job before it "
                                  "is quarantined (default: 0)")
        command.add_argument("--retry-failed", action="store_true",
                             help="re-run jobs the store recorded as failed "
                                  "(by default they stay quarantined)")
        command.add_argument("--trace-dir", default=None, metavar="DIR",
                             help="write one JSONL trace file per executed "
                                  "job into DIR (named by job hash)")
        command.add_argument("--metrics-json", default=None, metavar="PATH",
                             help="write a run-telemetry metrics.json "
                                  "artifact (pool counters, per-job engine "
                                  "telemetry)")
        command.add_argument("--profile", action="store_true",
                             help="time the plan/execute phases and include "
                                  "them in --metrics-json")
        command.add_argument("--remote", default=None, metavar="URL",
                             help="submit the spec to a running experiment "
                                  "service (`svc serve`) instead of "
                                  "executing locally, and wait for it")
        command.add_argument("--priority", type=int, default=0,
                             help="submission priority for --remote "
                                  "(higher runs first; default: 0)")

    status = exp_commands.add_parser(
        "status", parents=[common],
        help="report done/failed/pending jobs per scenario without running")
    status.add_argument("--live", action="store_true",
                        help="poll the store and redraw until every job "
                             "is done or failed (alias of `exp watch`)")
    status.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="poll interval for --live (default: 2)")
    watch = exp_commands.add_parser(
        "watch", parents=[common],
        help="live done/failed/pending view: poll the store incrementally "
             "until the experiment settles")
    watch.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="poll interval (default: 2)")
    watch.add_argument("--max-polls", type=int, default=None, metavar="N",
                       help="stop after N polls even if jobs are pending")


def _message(error: BaseException) -> str:
    # KeyError reprs its message; unwrap for readable CLI output
    return error.args[0] if error.args else str(error)


def _load_spec(path: str) -> ExperimentSpec:
    if not Path(path).exists():
        raise SystemExit(f"no such spec file: {path}")
    try:
        return ExperimentSpec.from_json_file(path)
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"invalid experiment spec {path}: {_message(error)}")


def _obs_config(args: argparse.Namespace):
    """The ObsConfig the run/resume flags describe, or ``None``."""
    if not (args.trace_dir or args.metrics_json or args.profile):
        return None
    from ..obs.telemetry import ObsConfig

    return ObsConfig(trace_dir=args.trace_dir,
                     metrics_path=args.metrics_json,
                     profile=args.profile)


def _cmd_exp_run_remote(args: argparse.Namespace, write_json) -> int:
    """``exp run --remote URL``: submit instead of executing locally."""
    from ..svc.client import ServiceClient, ServiceError

    spec = _load_spec(args.spec)  # validate locally for a friendly error
    try:
        client = ServiceClient(args.remote)
        info = client.submit(spec.to_dict(), priority=args.priority)
        print(f"submitted {spec.name} to {client.url} as {info['id']} "
              f"({info['total_jobs']} jobs, "
              f"{info['already_stored']} already stored)")
        payload = client.wait(info["id"])
    except ServiceError as error:
        raise SystemExit(str(error))
    except ValueError as error:
        raise SystemExit(f"bad --remote url: {error}")
    submission = payload["submission"]
    print(f"submission {submission['id']} settled: {submission['state']} — "
          f"{submission['executed']} executed, {submission['reused']} "
          f"deduped, {submission['failed']} failed")
    print(f"{payload['done']}/{payload['total_jobs']} jobs done in store")
    write_json(args.json, payload)
    return 0 if submission["state"] == "done" else 1


def _cmd_exp_run(args: argparse.Namespace, write_json) -> int:
    from .executor import FaultPolicy
    from .orchestrator import run_experiment

    from .plan import build_plan

    if args.remote is not None:
        return _cmd_exp_run_remote(args, write_json)
    spec = _load_spec(args.spec)
    store = None if args.no_store else args.store
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0")
    # the CLI always runs fault-tolerant: one poison job degrades the run
    # (quarantined + reported below) instead of aborting the whole batch
    policy = FaultPolicy(timeout_s=args.timeout,
                         max_attempts=args.retries + 1)
    try:
        # plan separately so only genuine spec problems (unknown names,
        # flat ttl sweeps) get the "invalid spec" label; store/runtime
        # errors surface as themselves
        plan = build_plan(spec)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"invalid experiment spec {args.spec}: "
                         f"{_message(error)}")
    obs = _obs_config(args)
    result = run_experiment(spec, store=store, workers=args.workers,
                            resume=not args.fresh, plan=plan, policy=policy,
                            retry_failed=args.retry_failed, obs=obs)
    print(f"experiment: {spec.name} — {len(result.plan)} jobs over "
          f"{len(result.plan.scenario_names())} scenario(s)")
    if store is not None:
        print(f"store: {store}")
    if obs is not None:
        if obs.trace_dir:
            print(f"traces: {obs.trace_dir}/")
        if obs.metrics_path:
            print(f"metrics: {obs.metrics_path}")
    rows = result.table_rows()
    print()
    print(format_table(rows))
    failure_rows = result.failure_rows()
    if failure_rows:
        print("\nfailed jobs (quarantined; rerun with --retry-failed):")
        print(format_table([
            {key: row[key] for key in ("scenario", "protocol", "seed",
                                       "run_index", "error_kind", "error",
                                       "attempts")}
            for row in failure_rows
        ]))
    print(f"\nexecuted {result.num_executed} jobs, reused "
          f"{result.num_reused} from store, {result.num_failed} failed "
          f"in {result.elapsed_s:.2f}s")
    write_json(args.json, {"experiment": spec.name,
                           "executed": result.num_executed,
                           "reused": result.num_reused,
                           "failed": result.num_failed,
                           "failures": failure_rows,
                           "rows": rows})
    return 0


def _cmd_exp_status(args: argparse.Namespace) -> int:
    from .orchestrator import experiment_status

    spec = _load_spec(args.spec)
    try:
        status = experiment_status(spec, store=args.store)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"invalid experiment spec {args.spec}: "
                         f"{_message(error)}")
    rows: List[dict] = []
    for name, bucket in status["scenarios"].items():
        rows.append({"scenario": name, **bucket})
    print(f"experiment: {status['experiment']}  "
          f"(store: {status['store']})")
    print()
    print(format_table(rows))
    if status["failures"]:
        print("\nfailed jobs (quarantined; rerun with "
              "`exp resume --retry-failed`):")
        print(format_table([
            {key: row[key] for key in ("scenario", "protocol", "seed",
                                       "run_index", "error_kind", "error",
                                       "attempts")}
            for row in status["failures"]
        ]))
    print(f"\n{status['done']}/{status['total_jobs']} jobs done, "
          f"{status['failed']} failed, {status['pending']} pending")
    return 0


def _status_line(status: dict) -> str:
    """One compact progress line for the live views."""
    return (f"{status['experiment']}: {status['done']}/"
            f"{status['total_jobs']} done, {status['failed']} failed, "
            f"{status['pending']} pending")


def _cmd_exp_watch(args: argparse.Namespace,
                   max_polls: Optional[int] = None) -> int:
    from ..obs.feed import StatusTracker

    spec = _load_spec(args.spec)
    if args.interval <= 0:
        raise SystemExit("--interval must be positive")
    try:
        tracker = StatusTracker(spec, store=args.store)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"invalid experiment spec {args.spec}: "
                         f"{_message(error)}")
    polls = 0
    try:
        while True:
            status = tracker.refresh()
            polls += 1
            print(_status_line(status), flush=True)
            if tracker.is_complete:
                print("experiment complete")
                return 0
            if max_polls is not None and polls >= max_polls:
                print(f"stopping after {polls} poll(s); "
                      f"{status['pending']} job(s) still pending")
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print("\nwatch interrupted; the experiment keeps running")
        return 0


def dispatch_exp_command(args: argparse.Namespace, write_json) -> int:
    """Route a parsed ``exp`` command to its handler."""
    if args.exp_command == "watch":
        return _cmd_exp_watch(args, max_polls=args.max_polls)
    if args.exp_command == "status":
        if getattr(args, "live", False):
            return _cmd_exp_watch(args)
        return _cmd_exp_status(args)
    return _cmd_exp_run(args, write_json)
