"""The ``python -m repro`` command line.

Commands::

    python -m repro sim list                      # scenario catalogue
    python -m repro sim run <scenario> [...]      # one scenario end to end
    python -m repro sim run --spec file.json      # scenario from a JSON spec
    python -m repro sim sweep <scenario> --param buffer_capacity \\
        --values 2,4,8,inf [...]                  # grid one constraint axis
    python -m repro scenario show <name|file>     # a scenario's JSON spec
    python -m repro scenario validate <file>      # check a spec file eagerly
    python -m repro scenario kinds                # registered spec types
    python -m repro routing list                  # protocol zoo
    python -m repro routing run <scenario> [...]  # scenario x chosen protocols
    python -m repro routing tournament [...]      # cross-scenario leaderboard
    python -m repro exp run <spec.json> [...]     # declarative grid, resumable
    python -m repro exp resume <spec.json> [...]  # continue an interrupted run
    python -m repro exp status <spec.json> [...]  # done/pending without running
    python -m repro bench [...]                   # engine timing comparison
    python -m repro obs journeys <trace> [...]    # causal trace analytics
    python -m repro obs bench-check [...]         # perf-regression sentinel
    python -m repro svc serve [...]               # experiment service daemon
    python -m repro svc submit <spec.json> [...]  # remote-submit a grid
    python -m repro svc query|leaderboard [...]   # indexed store queries
    python -m repro svc migrate|compact [...]     # sharded-store tooling

Every command prints an aligned text table; ``--json PATH`` additionally
writes the raw rows for scripting.  Scenarios are small by construction
(tens of nodes) so each command finishes in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import timeit
from typing import List, Optional, Sequence

from ..analysis.tables import format_table
from ..exp.cli import add_exp_commands, add_workers_option, dispatch_exp_command
from ..obs.cli import add_obs_commands, dispatch_obs_command
from ..routing.cli import add_routing_commands, dispatch_routing_command
from ..svc.cli import add_svc_commands, dispatch_svc_command
from ..scenario import SPEC_CATEGORIES, ScenarioSpec, spec_kinds
from .engine import DesSimulator, ResourceConstraints
from .runner import SWEEPABLE_PARAMETERS, run_scenario, sweep_scenario
from .scenarios import get_scenario, scenarios
from .vector import VectorSimulator

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-constrained forwarding experiments "
                    "(conf_imc_ErramilliCCD07 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser(
        "sim", help="discrete-event simulation scenarios (every job runs "
                    "on the vector kernel)")
    sim_commands = sim.add_subparsers(dest="sim_command", required=True)

    sim_commands.add_parser("list", help="list the registered scenarios")

    run = sim_commands.add_parser("run", help="run one scenario end to end")
    run.add_argument("scenario", nargs="?", default=None,
                     help="a scenario name (see 'repro sim list')")
    run.add_argument("--spec", metavar="PATH", default=None,
                     help="run a scenario from a JSON spec file instead of "
                          "a registry name (see 'repro scenario show')")
    run.add_argument("--runs", type=int, default=None,
                     help="override the scenario's number of workload runs")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's master seed")
    add_workers_option(run, "(run x algorithm) simulations")
    run.add_argument("--trace-dir", default=None, metavar="DIR",
                     help="write one JSONL engine trace per executed job "
                          "into DIR (see repro.obs)")
    run.add_argument("--metrics-json", default=None, metavar="PATH",
                     help="write a run-telemetry metrics.json artifact")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write the result rows as JSON")

    sweep = sim_commands.add_parser(
        "sweep", help="grid one resource-constraint axis of a scenario")
    sweep.add_argument("scenario", help="a scenario name")
    sweep.add_argument("--param", required=True, choices=SWEEPABLE_PARAMETERS,
                       help="the constraint axis to sweep")
    sweep.add_argument("--values", required=True,
                       help="comma-separated grid, e.g. 2,4,8,inf "
                            "('inf' or 'none' = unlimited)")
    sweep.add_argument("--runs", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    add_workers_option(sweep, "(value x run x algorithm) simulations")
    sweep.add_argument("--json", metavar="PATH", default=None)

    scenario = commands.add_parser(
        "scenario", help="inspect and validate declarative scenario specs")
    scenario_commands = scenario.add_subparsers(dest="scenario_command",
                                                required=True)
    show = scenario_commands.add_parser(
        "show", help="print a scenario's JSON spec (registry name or file)")
    show.add_argument("scenario",
                      help="a registry scenario name or a JSON spec path")
    show.add_argument("--json", metavar="PATH", default=None,
                      help="also write the spec to a file")
    validate = scenario_commands.add_parser(
        "validate", help="eagerly validate a scenario spec file")
    validate.add_argument("spec", help="path to a scenario spec JSON file")
    validate.add_argument("--build", action="store_true",
                          help="also build the trace and one workload draw")
    scenario_commands.add_parser(
        "kinds", help="list the registered spec types per category")

    add_routing_commands(commands)
    add_exp_commands(commands)
    add_obs_commands(commands)
    add_svc_commands(commands)

    bench = commands.add_parser(
        "bench", help="time the DES engine against the vector kernel")
    bench.add_argument("--scenario", default="paper-ideal",
                       help="scenario supplying trace and workload "
                            "(default: paper-ideal)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing repetitions per engine (default: 3)")
    bench.add_argument("--json", metavar="PATH", default=None)

    return parser


def _parse_values(raw: str) -> List[Optional[float]]:
    values: List[Optional[float]] = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token in ("inf", "none", "unlimited"):
            values.append(None)
        else:
            values.append(float(token))
    if not values:
        raise SystemExit("--values produced an empty grid")
    return values


def _write_json(path: Optional[str], payload: object) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    print(f"wrote {path}")


def _describe_constraints(constraints: ResourceConstraints) -> str:
    if constraints.is_unconstrained:
        return "idealized (no constraints)"
    parts = []
    if constraints.buffer_capacity is not None:
        parts.append(f"buffer={constraints.buffer_capacity:g}B "
                     f"({constraints.drop_policy})")
    if constraints.bandwidth is not None:
        parts.append(f"bandwidth={constraints.bandwidth:g}B/s")
    if constraints.ttl is not None:
        parts.append(f"ttl={constraints.ttl:g}s")
    if constraints.message_size is not None:
        parts.append(f"size={constraints.message_size:g}B")
    channel = constraints.active_channel
    if channel is not None:
        bits = []
        if channel.loss:
            bits.append(f"loss={channel.loss:g}")
        if channel.delay:
            bits.append(f"delay={channel.delay:g}s")
        if channel.jitter:
            bits.append(f"jitter={channel.jitter:g}s")
        parts.append("channel(" + ", ".join(bits) + ")")
    churn = constraints.active_churn
    if churn is not None:
        parts.append(f"churn(rate={churn.crash_rate:g}/s, "
                     f"down={churn.mean_downtime:g}s)")
    return ", ".join(parts)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_sim_list() -> int:
    rows = []
    for name, scenario in scenarios().items():
        nodes = scenario.node_count()
        rows.append({
            "scenario": name,
            "trace": scenario.trace_kind(),
            "nodes": "?" if nodes is None else nodes,
            "workload": scenario.workload_kind(),
            "constraints": _describe_constraints(scenario.constraints),
            "algorithms": len(scenario.algorithms),
            "runs": scenario.num_runs,
            "description": scenario.description,
        })
    print(format_table(rows))
    return 0


def _load_scenario_spec(path: str) -> ScenarioSpec:
    from pathlib import Path

    if not Path(path).exists():
        raise SystemExit(f"no such scenario spec file: {path}")
    try:
        return ScenarioSpec.from_json_file(path)
    except json.JSONDecodeError as error:
        raise SystemExit(f"invalid JSON in scenario spec {path}: {error}")
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise SystemExit(f"invalid scenario spec {path}: {message}")


def _cmd_sim_run(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.spec is None):
        raise SystemExit(
            "sim run needs exactly one of: a scenario name, or --spec "
            "pointing at a JSON scenario file")
    if args.spec is not None:
        scenario = _load_scenario_spec(args.spec)
    else:
        scenario = get_scenario(args.scenario)
    obs = None
    if args.trace_dir or args.metrics_json:
        from ..obs.telemetry import ObsConfig

        obs = ObsConfig(trace_dir=args.trace_dir,
                        metrics_path=args.metrics_json)
    started = time.perf_counter()
    result = run_scenario(scenario, num_runs=args.runs, seed=args.seed,
                          workers=args.workers, obs=obs)
    elapsed = time.perf_counter() - started
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(f"trace: {result.trace_name}  ({result.num_nodes} nodes, "
          f"{result.num_contacts} contacts)")
    print(f"constraints: {_describe_constraints(result.scenario.constraints)}")
    print(f"workload: {result.num_messages} messages over "
          f"{result.scenario.num_runs} run(s)\n")
    rows = result.table_rows()
    print(format_table(rows))
    print(f"\ncompleted in {elapsed:.2f}s")
    _write_json(args.json, {"scenario": scenario.name,
                            "trace": result.trace_name, "rows": rows})
    return 0


def _cmd_sim_sweep(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    values = _parse_values(args.values)
    started = time.perf_counter()
    sweep = sweep_scenario(scenario, args.param, values, num_runs=args.runs,
                           seed=args.seed, workers=args.workers)
    elapsed = time.perf_counter() - started
    print(f"scenario: {scenario.name} — sweeping {args.param} over "
          f"{[('inf' if v is None else v) for v in values]}")
    print(f"trace: {sweep.trace_name}\n")
    rows = sweep.table_rows()
    print(format_table(rows))
    print(f"\ncompleted in {elapsed:.2f}s")
    _write_json(args.json, {"scenario": scenario.name, "parameter": args.param,
                            "rows": rows})
    return 0


# ----------------------------------------------------------------------
# scenario spec commands
# ----------------------------------------------------------------------
def _scenario_summary_lines(scenario: ScenarioSpec) -> List[str]:
    nodes = scenario.node_count()
    return [
        f"scenario: {scenario.name}"
        + (f" — {scenario.description}" if scenario.description else ""),
        f"trace: {scenario.trace_kind()} "
        f"({'?' if nodes is None else nodes} nodes expected)",
        f"workload: {scenario.workload_kind()}",
        f"constraints: {_describe_constraints(scenario.constraints)}",
        f"algorithms: {', '.join(scenario.algorithms)}",
        f"runs: {scenario.num_runs}  seed: {scenario.seed}",
    ]


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    from pathlib import Path

    if Path(args.scenario).exists():
        scenario = _load_scenario_spec(args.scenario)
    else:
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as error:
            raise SystemExit(error.args[0])
    payload = scenario.to_dict()
    print(json.dumps(payload, indent=2))
    _write_json(args.json, payload)
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario_spec(args.spec)
    for line in _scenario_summary_lines(scenario):
        print(line)
    if args.build:
        try:
            trace = scenario.build_trace()
            messages = scenario.build_messages(trace, 0)
        except (OSError, ValueError) as error:
            # e.g. a file trace whose path is missing or whose pinned
            # sha256 no longer matches — report, don't traceback
            raise SystemExit(
                f"scenario spec {args.spec} is structurally valid but "
                f"failed to build: {error}")
        print(f"built: trace {trace.name!r} ({trace.num_nodes} nodes, "
              f"{len(trace)} contacts), {len(messages)} messages in run 0")
    print(f"\n{args.spec} is a valid scenario spec"
          + ("" if args.build else " (structure and names; --build to "
             "also generate the trace and workload)"))
    return 0


def _cmd_scenario_kinds() -> int:
    from ..scenario import resolve_kind

    rows = []
    for category in SPEC_CATEGORIES:
        for kind in spec_kinds(category):
            cls = resolve_kind(category, kind)
            rows.append({
                "category": category,
                "kind": kind,
                "class": f"{cls.__module__}.{cls.__qualname__}",
            })
    print(format_table(rows))
    return 0


def _dispatch_scenario_command(args: argparse.Namespace) -> int:
    if args.scenario_command == "show":
        return _cmd_scenario_show(args)
    if args.scenario_command == "validate":
        return _cmd_scenario_validate(args)
    return _cmd_scenario_kinds()


def _cmd_bench(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    trace = scenario.build_trace()
    messages = scenario.build_messages(trace, 0)
    algorithms = scenario.build_algorithms()
    repeats = max(1, args.repeats)
    constrained = scenario.constraints if scenario.is_constrained else \
        ResourceConstraints(buffer_capacity=4.0, ttl=trace.duration / 4.0)

    def _time(factory) -> float:
        return min(timeit.repeat(factory, number=1, repeat=repeats))

    rows = []
    for algorithm in algorithms:
        name = algorithm.name
        vector_seconds = _time(
            lambda: VectorSimulator(trace, algorithm).run(messages))
        des_seconds = _time(
            lambda: DesSimulator(trace, algorithm).run(messages))
        des_constrained_seconds = _time(
            lambda: DesSimulator(trace, algorithm,
                                 constraints=constrained).run(messages))
        rows.append({
            "algorithm": name,
            "vector_ms": round(vector_seconds * 1e3, 2),
            "des_ideal_ms": round(des_seconds * 1e3, 2),
            "des_constrained_ms": round(des_constrained_seconds * 1e3, 2),
            "des/vector": round(des_seconds / vector_seconds, 2)
            if vector_seconds > 0 else None,
        })
    print(f"engine timing on scenario {scenario.name!r} "
          f"({trace.num_nodes} nodes, {len(trace)} contacts, "
          f"{len(messages)} messages; best of {repeats})\n")
    print(format_table(rows))
    _write_json(args.json, {"scenario": scenario.name, "rows": rows})
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "scenario":
        return _dispatch_scenario_command(args)
    if args.command == "routing":
        return dispatch_routing_command(args, _write_json)
    if args.command == "exp":
        return dispatch_exp_command(args, _write_json)
    if args.command == "obs":
        return dispatch_obs_command(args, _write_json)
    if args.command == "svc":
        return dispatch_svc_command(args, _write_json)
    if args.sim_command == "list":
        return _cmd_sim_list()
    if args.sim_command == "run":
        return _cmd_sim_run(args)
    return _cmd_sim_sweep(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
