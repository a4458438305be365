"""High-level experiment runners used by the examples and benchmarks.

Each runner wires together the substrate pieces (datasets → space-time graph
→ enumeration / simulation) for one of the paper's experiment families, so a
benchmark or example only has to pick parameters and format output.

Fan-out goes through the orchestration layer's shared pool
(:mod:`repro.exp.pool`); the scenario-based family
(:func:`run_constraint_sweep`) additionally routes through the full
``repro.exp`` planner/store pipeline via :func:`repro.sim.sweep_scenario`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..contacts import ContactTrace, NodeId
from ..core import (
    ExplosionRecord,
    PathEnumerator,
    SpaceTimeGraph,
    analyze_message,
    classify_nodes,
    random_messages,
)
from ..forwarding import (
    ComparisonResult,
    Message,
    PoissonMessageWorkload,
    RoutingProtocol,
    compare_algorithms,
    default_algorithms,
    simulate,
)
from ..exp.pool import process_map

__all__ = [
    "run_path_explosion_study",
    "run_forwarding_study",
    "run_constraint_sweep",
    "message_delays_by_algorithm",
]


# ----------------------------------------------------------------------
# per-worker state for the explosion study: the space-time graph (and its
# fast-path step tables) is built once per worker by the pool initializer —
# in this process when workers=1 — then shared by every message analysed
# there.
# ----------------------------------------------------------------------
_EXPLOSION_WORKER: Dict[str, PathEnumerator] = {}


def _init_explosion_worker(trace: ContactTrace, delta: float, k: int,
                           engine: str) -> None:
    graph = SpaceTimeGraph(trace, delta=delta)
    if engine == "fast":
        graph.step_tables()
    _EXPLOSION_WORKER["enumerator"] = PathEnumerator(graph, k=k, engine=engine)


def _analyze_message_job(
    job: Tuple[NodeId, NodeId, float, int, bool],
) -> ExplosionRecord:
    source, destination, creation_time, n_explosion, keep_paths = job
    # analyze_message is looked up in this module at call time, so a
    # wrapper patched onto the module (a per-message timer) sees every call
    return analyze_message(_EXPLOSION_WORKER["enumerator"], source, destination,
                           creation_time, n_explosion=n_explosion,
                           keep_paths=keep_paths)


def run_path_explosion_study(
    trace: ContactTrace,
    num_messages: int = 100,
    n_explosion: int = 200,
    delta: float = 10.0,
    seed: Union[int, np.random.Generator, None] = 0,
    keep_paths: bool = False,
    messages: Optional[Sequence[Tuple[NodeId, NodeId, float]]] = None,
    engine: str = "fast",
    workers: int = 1,
) -> List[ExplosionRecord]:
    """Enumerate paths for a batch of random messages on one dataset.

    This is the engine behind Figures 4, 5, 6, 8, 11, 14 and 15.  The
    explosion threshold defaults to 200 paths rather than the paper's 2000 so
    the study completes in benchmark-friendly time; the threshold is recorded
    in every returned :class:`ExplosionRecord`.

    ``workers=N > 1`` distributes the messages over a pool of N
    processes; each worker builds the space-time graph once and reuses it
    for all of its messages.  Records are returned in message order for
    every worker count, so the runs are interchangeable.
    """
    if messages is None:
        messages = random_messages(trace, num_messages, seed=seed)
    jobs = [(source, destination, creation_time, n_explosion, keep_paths)
            for source, destination, creation_time in messages]
    try:
        return process_map(
            _analyze_message_job, jobs, workers=workers,
            initializer=_init_explosion_worker,
            initargs=(trace, delta, max(n_explosion, 1), engine),
        )
    finally:
        # an in-process map built the enumerator here: don't pin its graph
        _EXPLOSION_WORKER.clear()


def run_forwarding_study(
    trace: ContactTrace,
    algorithms: Optional[Sequence[RoutingProtocol]] = None,
    message_rate: float = 0.25,
    num_runs: int = 1,
    seed: Union[int, np.random.Generator, None] = 0,
    workers: int = 1,
) -> ComparisonResult:
    """Run the Section 6 forwarding comparison on one dataset.

    The default workload matches the paper: Poisson message arrivals at one
    message per four seconds during the first two-thirds of the window, with
    uniformly random endpoints.  Results over multiple runs are pooled by the
    returned :class:`ComparisonResult`.

    ``workers=N > 1`` fans the (run, algorithm) simulations out over a pool
    of N processes; workloads are still drawn sequentially in the parent,
    so results match an in-process run exactly.
    """
    if algorithms is None:
        algorithms = default_algorithms()
    workload = PoissonMessageWorkload(rate=message_rate)
    return compare_algorithms(trace, algorithms, workload=workload,
                              num_runs=num_runs, seed=seed, workers=workers)


def run_constraint_sweep(
    scenario: Union[str, "object"],
    parameter: str,
    values: Sequence[Optional[float]],
    num_runs: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
):
    """Grid one resource-constraint axis of a named simulation scenario.

    This is the experiment family the idealized Section 6 study cannot
    express: how success rate and delay degrade as buffers shrink, links
    slow down, or TTLs tighten.  Delegates to
    :func:`repro.sim.sweep_scenario` (see there for semantics); *scenario*
    is a registry name or a :class:`repro.sim.Scenario`, *parameter* one of
    ``buffer_capacity``, ``bandwidth``, ``ttl``, ``message_size``, and a
    ``None`` value means "unlimited" for that grid point.  Returns a
    :class:`repro.sim.SweepResult` whose ``table_rows()`` feed
    :func:`repro.analysis.tables.format_table`.
    """
    from ..sim.runner import sweep_scenario  # local import: sim builds on analysis

    return sweep_scenario(scenario, parameter, values, num_runs=num_runs,
                          seed=seed, workers=workers)


def message_delays_by_algorithm(
    trace: ContactTrace,
    message: Message,
    algorithms: Optional[Sequence[RoutingProtocol]] = None,
) -> Dict[str, Optional[float]]:
    """Delivery delay of one specific message under each algorithm.

    Used by the Figure 12 reproduction, which overlays each algorithm's
    chosen path-arrival time on the message's path-explosion histogram.
    Undelivered messages map to ``None``.
    """
    if algorithms is None:
        algorithms = default_algorithms()
    delays: Dict[str, Optional[float]] = {}
    for algorithm in algorithms:
        result = simulate(trace, algorithm, [message])
        outcome = result.outcomes[0]
        delays[algorithm.name] = outcome.delay
    return delays
