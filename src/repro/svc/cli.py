"""The ``python -m repro svc`` subcommands.

Wired into the main parser by :mod:`repro.sim.cli`::

    python -m repro svc serve [--store DIR] [--host H] [--port P] [...]
    python -m repro svc submit spec.json [--url URL] [--priority N] [--wait]
    python -m repro svc status [SUBMISSION] [--url URL]
    python -m repro svc query [--protocol P] [--scenario S] [...]
    python -m repro svc leaderboard [--url URL | --store DIR]
    python -m repro svc cancel SUBMISSION [--url URL]
    python -m repro svc migrate SRC DST [--shard-width N]
    python -m repro svc compact [--store DIR]

``serve`` runs the daemon in the foreground until SIGTERM/SIGINT, then
drains.  The client commands find the daemon through ``--url``, or by
reading the ``svc.json`` endpoint file ``serve`` drops into its store
root (``--store`` names where to look).  ``query`` and ``leaderboard``
also work *offline* — given ``--store`` without a reachable daemon they
open the store directly, so a store is queryable with no service running.
Every ``--store DIR`` migrates a legacy flat root in place on first open;
``migrate`` copies one into another directory instead.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from ..analysis.tables import format_table
from ..exp.cli import add_workers_option
from ..exp.store import DEFAULT_STORE_ROOT

__all__ = ["add_svc_commands", "dispatch_svc_command"]

#: columns for the entry table (query results)
_ENTRY_COLUMNS = ("job_hash", "experiment", "scenario", "protocol", "seed",
                  "run_index", "status")


def add_svc_commands(commands: argparse._SubParsersAction) -> None:
    """Attach the ``svc`` command tree to the main parser."""
    svc = commands.add_parser(
        "svc", help="experiment service: daemon, sharded store, query API")
    svc_commands = svc.add_subparsers(dest="svc_command", required=True)

    store_arg = argparse.ArgumentParser(add_help=False)
    store_arg.add_argument("--store", default=DEFAULT_STORE_ROOT,
                           metavar="DIR",
                           help="result store root "
                                f"(default: {DEFAULT_STORE_ROOT}/)")
    url_arg = argparse.ArgumentParser(add_help=False)
    url_arg.add_argument("--url", default=None, metavar="URL",
                         help="service endpoint (default: the svc.json "
                              "file in --store)")

    serve = svc_commands.add_parser(
        "serve", parents=[store_arg],
        help="run the experiment daemon + HTTP API until SIGTERM")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: 0 = ephemeral, printed "
                            "and written to <store>/svc.json)")
    add_workers_option(serve, "each chunk's jobs")
    serve.add_argument("--chunk-size", type=int, default=16,
                       help="jobs per executor batch; bounds cancel/drain "
                            "latency (default: 16)")
    serve.add_argument("--no-recover", action="store_true",
                       help="skip replaying the submission journal on "
                            "startup")

    submit = svc_commands.add_parser(
        "submit", parents=[store_arg, url_arg],
        help="submit an ExperimentSpec JSON file to a running daemon")
    submit.add_argument("spec", help="path to an ExperimentSpec JSON file")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (default: 0)")
    submit.add_argument("--wait", action="store_true",
                        help="poll status until the submission settles")
    submit.add_argument("--json", metavar="PATH", default=None,
                        help="also write the submission summary as JSON")

    status = svc_commands.add_parser(
        "status", parents=[store_arg, url_arg],
        help="one submission's status, or all submissions without an id")
    status.add_argument("submission", nargs="?", default=None,
                        help="a submission id (e.g. sub-000001)")
    status.add_argument("--json", metavar="PATH", default=None)

    query = svc_commands.add_parser(
        "query", parents=[store_arg, url_arg],
        help="filtered RunRecord query (remote, or offline via the store)")
    for field in ("scenario", "protocol", "status", "experiment"):
        query.add_argument(f"--{field}", default=None)
    query.add_argument("--seed", type=int, default=None)
    query.add_argument("--limit", type=int, default=None)
    query.add_argument("--bodies", action="store_true",
                       help="print full RunRecords as JSON instead of the "
                            "entry table")
    query.add_argument("--json", metavar="PATH", default=None)

    leaderboard = svc_commands.add_parser(
        "leaderboard", parents=[store_arg, url_arg],
        help="cached per-protocol standings")
    leaderboard.add_argument("--json", metavar="PATH", default=None)

    cancel = svc_commands.add_parser(
        "cancel", parents=[store_arg, url_arg],
        help="cancel a queued submission / stop a running one")
    cancel.add_argument("submission", help="the submission id")

    migrate = svc_commands.add_parser(
        "migrate",
        help="copy a legacy flat JSONL store into a store elsewhere, "
             "leaving the source untouched (opening a flat root with "
             "--store migrates it in place)")
    migrate.add_argument("source", help="flat store root (records.jsonl)")
    migrate.add_argument("destination", help="store root to create or "
                                             "extend")
    migrate.add_argument("--shard-width", type=int, default=None,
                         help="hash-prefix length naming each shard "
                              "(default: 2 -> up to 256 shards)")

    compact = svc_commands.add_parser(
        "compact", parents=[store_arg],
        help="rewrite shards dropping superseded records "
             "(query results are preserved byte for byte; a legacy flat "
             "root is migrated first)")


def _resolve_url(args: argparse.Namespace) -> Optional[str]:
    if getattr(args, "url", None):
        return args.url
    from .api import endpoint_url

    return endpoint_url(args.store)


def _client(args: argparse.Namespace):
    from .client import ServiceClient

    url = _resolve_url(args)
    if url is None:
        raise SystemExit(
            f"no service endpoint: pass --url, or point --store at a root "
            f"where `svc serve` is running (no svc.json under {args.store})")
    return ServiceClient(url)


def _print_submission(info: dict) -> None:
    print(f"submission {info['id']}: {info['experiment']} "
          f"[{info['state']}]  priority={info['priority']}")
    print(f"  jobs: {info['total_jobs']} total, {info['executed']} executed, "
          f"{info['reused']} deduped, {info['deferred']} deferred, "
          f"{info['failed']} failed")
    if info.get("error"):
        print(f"  error: {info['error']}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import serve

    return serve(args.store, host=args.host, port=args.port,
                 workers=args.workers, chunk_size=args.chunk_size, recover=not args.no_recover)


def _cmd_submit(args: argparse.Namespace, write_json) -> int:
    from .client import ServiceError

    if not Path(args.spec).exists():
        raise SystemExit(f"no such spec file: {args.spec}")
    try:
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SystemExit(f"invalid JSON in {args.spec}: {error}")
    client = _client(args)
    try:
        info = client.submit(spec, priority=args.priority)
        if args.wait:
            payload = client.wait(info["id"])
            info = payload["submission"]
    except ServiceError as error:
        raise SystemExit(str(error))
    _print_submission(info)
    write_json(args.json, info)
    return 0 if info["state"] not in ("failed",) else 1


def _cmd_status(args: argparse.Namespace, write_json) -> int:
    from .client import ServiceError

    client = _client(args)
    try:
        if args.submission is None:
            rows = client.submissions()
            if rows:
                print(format_table(rows))
            else:
                print("no submissions")
            write_json(args.json, rows)
            return 0
        payload = client.status(args.submission)
    except ServiceError as error:
        raise SystemExit(str(error))
    _print_submission(payload["submission"])
    print()
    rows = [{"scenario": name, **bucket}
            for name, bucket in payload["scenarios"].items()]
    print(format_table(rows))
    print(f"\n{payload['done']}/{payload['total_jobs']} jobs done, "
          f"{payload['failed']} failed, {payload['pending']} pending")
    write_json(args.json, payload)
    return 0


def _open_store_or_exit(root: str):
    from .store import open_store

    if not Path(root).exists():
        raise SystemExit(f"no store at {root}")
    return open_store(root)


def _cmd_query(args: argparse.Namespace, write_json) -> int:
    from .client import ServiceError

    filters = {"scenario": args.scenario, "protocol": args.protocol,
               "seed": args.seed, "status": args.status,
               "experiment": args.experiment}
    url = _resolve_url(args)
    if url is not None:
        try:
            from .client import ServiceClient

            rows = ServiceClient(url).query(limit=args.limit,
                                            bodies=args.bodies, **filters)
        except ServiceError as error:
            raise SystemExit(str(error))
    else:
        store = _open_store_or_exit(args.store)
        if args.bodies:
            rows = store.query(limit=args.limit, **filters)
        else:
            rows = store.query_entries(limit=args.limit, **filters)
    if args.bodies:
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif rows:
        print(format_table([
            {column: entry.get(column) for column in _ENTRY_COLUMNS}
            for entry in rows]))
        print(f"\n{len(rows)} matching record(s)")
    else:
        print("no matching records")
    write_json(args.json, rows)
    return 0


def _cmd_leaderboard(args: argparse.Namespace, write_json) -> int:
    from .client import ServiceError

    url = _resolve_url(args)
    if url is not None:
        try:
            from .client import ServiceClient

            rows = ServiceClient(url).leaderboard()
        except ServiceError as error:
            raise SystemExit(str(error))
    else:
        rows = _open_store_or_exit(args.store).leaderboard()
    if rows:
        print(format_table(rows))
    else:
        print("no decodable records yet")
    write_json(args.json, rows)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from .client import ServiceError

    client = _client(args)
    try:
        info = client.cancel(args.submission)
    except ServiceError as error:
        raise SystemExit(str(error))
    _print_submission(info)
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from .store import DEFAULT_SHARD_WIDTH, migrate_store

    width = args.shard_width if args.shard_width is not None \
        else DEFAULT_SHARD_WIDTH
    if width < 1:
        raise SystemExit("--shard-width must be >= 1")
    if not Path(args.source).exists():
        raise SystemExit(f"no store at {args.source}")
    try:
        report = migrate_store(args.source, args.destination,
                               shard_width=width)
    except ValueError as error:
        raise SystemExit(str(error))
    print(f"migrated {report['migrated']} record(s) from {report['source']} "
          f"into {report['shards']} shard(s) at {report['destination']}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    report = _open_store_or_exit(args.store).compact()
    print(f"compacted {args.store}: kept {report['records_kept']}, "
          f"dropped {report['records_dropped']} superseded, "
          f"{report['bytes_before']} -> {report['bytes_after']} bytes")
    return 0


def dispatch_svc_command(args: argparse.Namespace, write_json) -> int:
    """Route a parsed ``svc`` command to its handler."""
    command = args.svc_command
    if command == "serve":
        return _cmd_serve(args)
    if command == "submit":
        return _cmd_submit(args, write_json)
    if command == "status":
        return _cmd_status(args, write_json)
    if command == "query":
        return _cmd_query(args, write_json)
    if command == "leaderboard":
        return _cmd_leaderboard(args, write_json)
    if command == "cancel":
        return _cmd_cancel(args)
    if command == "migrate":
        return _cmd_migrate(args)
    return _cmd_compact(args)
