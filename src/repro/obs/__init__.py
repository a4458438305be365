"""repro.obs — observability: tracing, telemetry, feeds, analysis.

Small layers, all opt-in:

* :mod:`repro.obs.tracing` — the structured trace-event probe both
  engines accept (``tracer=``), with JSONL and in-memory sinks;
* :mod:`repro.obs.telemetry` — per-run engine counters/time series,
  parent-side phase timers and the ``metrics.json`` artifact writer;
* :mod:`repro.obs.feed` — incremental experiment status
  (:class:`StatusTracker`, behind ``exp watch``) and the live tournament
  leaderboard (:class:`LiveLeaderboard`, ranked like the final table);
* :mod:`repro.obs.journeys` / :mod:`repro.obs.analyze` — per-message
  causal journey reconstruction from traces, trace queries, cross-run
  :class:`TraceDiff` and leaderboard-gap explanations;
* :mod:`repro.obs.bench` — the benchmark regression sentinel comparing
  ``BENCH_*.json`` results against committed baselines with noise-aware
  thresholds (``obs bench-check``).
"""

from .analyze import (
    TraceDiff,
    diff_traces,
    explain_protocol_gap,
    match_protocol_jobs,
    query_journeys,
)
from .bench import BenchComparison, check_bench_files, compare_bench
from .feed import LiveLeaderboard, StatusTracker
from .journeys import Hop, Journey, JourneyBuilder, JourneySet, build_journeys
from .telemetry import (
    METRICS_SCHEMA,
    EngineTelemetry,
    ObsConfig,
    PhaseTimers,
    write_metrics_json,
)
from .tracing import (
    DROP_REASONS,
    EVENT_FIELDS,
    TRACE_EVENTS,
    BufferedTracer,
    JsonlTracer,
    RecordingTracer,
    Tracer,
    iter_trace,
    read_trace,
    validate_event,
)

__all__ = [
    "TRACE_EVENTS",
    "DROP_REASONS",
    "EVENT_FIELDS",
    "validate_event",
    "Tracer",
    "RecordingTracer",
    "JsonlTracer",
    "BufferedTracer",
    "iter_trace",
    "read_trace",
    "METRICS_SCHEMA",
    "EngineTelemetry",
    "ObsConfig",
    "PhaseTimers",
    "write_metrics_json",
    "StatusTracker",
    "LiveLeaderboard",
    "Hop",
    "Journey",
    "JourneyBuilder",
    "JourneySet",
    "build_journeys",
    "TraceDiff",
    "diff_traces",
    "query_journeys",
    "match_protocol_jobs",
    "explain_protocol_gap",
    "BenchComparison",
    "compare_bench",
    "check_bench_files",
]
