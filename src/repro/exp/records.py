"""The canonical ``RunRecord`` schema and its JSON round-trip.

A RunRecord is the one result shape every consumer reads — the scenario
runner, the sweep, the tournament leaderboard and the analysis tables all
pool :class:`~repro.sim.ConstrainedSimulationResult` objects decoded from
records.  Encoding is lossless for everything those consumers touch: the
full outcome stream (message identity, delivery flag/time/hop count), the
resource counters and the constraints, so a decoded record compares equal
(``==``) to the freshly simulated result it was encoded from.

Records are plain dicts so the JSONL store stays greppable and the schema
stays diff-able; ``schema`` is bumped on incompatible changes and old
records are refused loudly instead of being misread.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..forwarding.messages import Message
from ..forwarding.simulator import DeliveryOutcome
from ..sim.engine import (
    ConstrainedSimulationResult,
    ResourceConstraints,
    ResourceStats,
)
from .executor import JobFailure
from .plan import PlannedJob
from .spec import KERNEL, constraints_to_dict

__all__ = [
    "RECORD_SCHEMA",
    "encode_record",
    "decode_result",
    "is_decodable",
    "encode_failure_record",
    "is_failure_record",
    "decode_failure",
]

RECORD_SCHEMA = 1


def is_decodable(record: Dict[str, object]) -> bool:
    """Cheap structural check that :func:`decode_result` would succeed.

    Used by ``exp status`` so it agrees with what a run would reuse
    without paying a full decode of every stored outcome stream.
    """
    if record.get("schema") != RECORD_SCHEMA:
        return False
    if record.get("status", "ok") != "ok":
        return False
    payload = record.get("result")
    if not isinstance(payload, dict) or \
            not isinstance(record.get("constraints"), dict):
        return False
    return {"algorithm", "trace_name", "stats", "outcomes"} <= set(payload)


def encode_record(job: PlannedJob, result: ConstrainedSimulationResult,
                  experiment: Optional[str] = None) -> Dict[str, object]:
    """*result* as a JSON-serializable RunRecord keyed by ``job.job_hash``."""
    record: Dict[str, object] = {
        "schema": RECORD_SCHEMA,
        "job_hash": job.job_hash,
        "status": "ok",
        "experiment": experiment,
        "scenario": job.scenario_name,
        "protocol": job.protocol,
        "seed": job.seed,
        "run_index": job.run_index,
        "engine": KERNEL,
        "copy_semantics": job.scenario.copy_semantics,
        "sweep": (None if job.sweep_parameter is None else
                  {"parameter": job.sweep_parameter,
                   "value": job.sweep_value}),
        "constraints": constraints_to_dict(result.constraints),
        "result": {
            "algorithm": result.algorithm,
            "trace_name": result.trace_name,
            "copies_sent": result.copies_sent,
            "stats": result.stats.as_dict(),
            "outcomes": [
                [outcome.message.id, outcome.message.source,
                 outcome.message.destination, outcome.message.creation_time,
                 outcome.message.size, outcome.message.ttl,
                 outcome.delivered, outcome.delivery_time, outcome.hop_count]
                for outcome in result.outcomes
            ],
        },
    }
    return record


def decode_result(record: Dict[str, object]) -> ConstrainedSimulationResult:
    """Rebuild the simulation result a RunRecord was encoded from."""
    schema = record.get("schema")
    if schema != RECORD_SCHEMA:
        raise ValueError(f"unsupported RunRecord schema {schema!r} "
                         f"(this build reads schema {RECORD_SCHEMA})")
    payload = record["result"]
    # from_dict so nested channel/churn fault specs decode by kind
    constraints = ResourceConstraints.from_dict(record["constraints"])
    stats = ResourceStats(**payload["stats"])
    result = ConstrainedSimulationResult(
        algorithm=payload["algorithm"],
        trace_name=payload["trace_name"],
        constraints=constraints,
        stats=stats,
        copies_sent=payload["copies_sent"],
    )
    for (message_id, source, destination, creation_time, size, ttl,
         delivered, delivery_time, hop_count) in payload["outcomes"]:
        message = Message(id=message_id, source=source,
                          destination=destination,
                          creation_time=creation_time, size=size, ttl=ttl)
        result.outcomes.append(DeliveryOutcome(
            message=message, delivered=delivered,
            delivery_time=delivery_time, hop_count=hop_count))
    return result


# ----------------------------------------------------------------------
# failure records
# ----------------------------------------------------------------------
def encode_failure_record(job: PlannedJob, failure: JobFailure,
                          experiment: Optional[str] = None) -> \
        Dict[str, object]:
    """A quarantined job's :class:`JobFailure` as a storable RunRecord.

    Failure records share the success schema and job-identity fields but
    carry ``status: "failed"`` and the error summary instead of a
    ``result`` payload, so ``exp status`` can report them and
    ``exp resume --retry-failed`` can re-plan exactly those jobs.
    """
    return {
        "schema": RECORD_SCHEMA,
        "job_hash": job.job_hash,
        "status": "failed",
        "experiment": experiment,
        "scenario": job.scenario_name,
        "protocol": job.protocol,
        "seed": job.seed,
        "run_index": job.run_index,
        "engine": KERNEL,
        "error": failure.error,
        "error_kind": failure.error_kind,
        "attempts": failure.attempts,
        "elapsed_s": failure.elapsed_s,
        "detail": failure.detail,
    }


def is_failure_record(record: Dict[str, object]) -> bool:
    """True for a quarantined-job record this build can read."""
    return (record.get("schema") == RECORD_SCHEMA
            and record.get("status") == "failed"
            and isinstance(record.get("error"), str))


def decode_failure(record: Dict[str, object]) -> JobFailure:
    """Rebuild the :class:`JobFailure` a failure record was encoded from."""
    if not is_failure_record(record):
        raise ValueError("not a readable failure record")
    return JobFailure(
        error=record["error"],
        error_kind=record.get("error_kind", "Unknown"),
        attempts=int(record.get("attempts", 1)),
        elapsed_s=float(record.get("elapsed_s", 0.0)),
        detail=record.get("detail"),
    )
