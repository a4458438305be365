"""repro.exp — unified experiment orchestration.

One declarative :class:`ExperimentSpec` (grid of scenarios × protocols ×
constraint axis × seeds × runs) flows through one pipeline, every job on
the vector kernel::

    spec  →  planner (content-hashed jobs)  →  shared worker pool
          →  persistent result store (repro.svc.store)  →  pooled reports

Every entrypoint routes through this layer: :func:`repro.sim.run_scenario`,
:func:`repro.sim.sweep_scenario` and :func:`repro.routing.run_tournament`
are thin adapters over it (byte-identical to their historical outputs), and
``python -m repro exp run|resume|status`` drives it from JSON spec files
with resumable, incrementally extensible runs.

Attributes are loaded lazily (PEP 562) so that low-level modules — e.g.
:mod:`repro.analysis.experiments` and :mod:`repro.forwarding.metrics`, which
fan out through the shared pool backend — can import :mod:`repro.exp.pool`
without dragging in the whole simulation stack.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "ExperimentSpec": ".spec",
    "SweepAxis": ".spec",
    "ExperimentPlan": ".plan",
    "PlannedJob": ".plan",
    "build_plan": ".plan",
    "RECORD_SCHEMA": ".records",
    "encode_record": ".records",
    "decode_result": ".records",
    "encode_failure_record": ".records",
    "decode_failure": ".records",
    "FaultPolicy": ".executor",
    "JobFailure": ".executor",
    "JobTimeout": ".executor",
    "DEFAULT_STORE_ROOT": ".store",
    "ExecutionOutcome": ".orchestrator",
    "ExperimentResult": ".orchestrator",
    "execute_plan": ".orchestrator",
    "run_experiment": ".orchestrator",
    "experiment_status": ".orchestrator",
    "canonical": ".hashing",
    "stable_hash": ".hashing",
    "process_map": ".pool",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .executor import FaultPolicy, JobFailure, JobTimeout
    from .hashing import canonical, stable_hash
    from .orchestrator import (
        ExecutionOutcome,
        ExperimentResult,
        execute_plan,
        experiment_status,
        run_experiment,
    )
    from .plan import ExperimentPlan, PlannedJob, build_plan
    from .pool import process_map
    from .records import (
        RECORD_SCHEMA,
        decode_failure,
        decode_result,
        encode_failure_record,
        encode_record,
    )
    from .spec import ExperimentSpec, SweepAxis
    from .store import DEFAULT_STORE_ROOT


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") \
            from None
    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
