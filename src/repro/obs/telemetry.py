"""Run telemetry: engine counters, phase timers and ``metrics.json``.

:class:`EngineTelemetry` rides along one engine run (opt-in, like the
tracer): the engine counts every dispatched event by kind, samples the
event-queue depth and the total buffer occupancy every ``sample_every``
events, and stamps wall-clock time around the event loop.  The result
(:meth:`EngineTelemetry.as_dict`) is a plain JSON-ready dict that the
experiment workers attach to their results, so the orchestrator can roll
per-job engine telemetry into one run-level ``metrics.json`` artifact
(:func:`write_metrics_json`).

:class:`PhaseTimers` is the ``--profile`` half: named wall-clock phases
(plan / execute / report) measured in the parent process.

:class:`ObsConfig` bundles the observability knobs every entrypoint
shares — a per-job trace directory, a ``metrics.json`` path and the
profile flag — so CLIs thread one object instead of three arguments.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["EngineTelemetry", "PhaseTimers", "ObsConfig",
           "METRICS_SCHEMA", "write_metrics_json"]

#: Schema tag stamped into every ``metrics.json`` artifact.
METRICS_SCHEMA = "repro-metrics/1"


class EngineTelemetry:
    """Counters and time series of one engine run (opt-in probe).

    The engine calls :meth:`begin` before its event loop, :meth:`event`
    per dispatched event (optionally with the queue depth), and
    :meth:`finish` after the loop.  Buffer occupancy is sampled by the
    engine every ``sample_every`` events via :meth:`sample_buffers`.
    """

    __slots__ = ("sample_every", "engine", "algorithm", "events",
                 "events_by_kind", "peak_queue_depth", "buffer_occupancy",
                 "wall_s", "_started")

    def __init__(self, sample_every: int = 256) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.engine: Optional[str] = None
        self.algorithm: Optional[str] = None
        self.events = 0
        self.events_by_kind: Dict[str, int] = {}
        self.peak_queue_depth = 0
        #: sampled ``[sim_time, total_buffered_bytes]`` pairs
        self.buffer_occupancy: List[List[float]] = []
        self.wall_s: Optional[float] = None
        self._started: Optional[float] = None

    # ------------------------------------------------------------------
    def begin(self, engine: str, algorithm: str) -> None:
        """Reset and stamp the start of one run."""
        self.engine = engine
        self.algorithm = algorithm
        self.events = 0
        self.events_by_kind = {}
        self.peak_queue_depth = 0
        self.buffer_occupancy = []
        self.wall_s = None
        self._started = _time.perf_counter()

    def event(self, kind: str, queue_depth: int = 0) -> bool:
        """Count one dispatched event; True when a sample is due."""
        self.events += 1
        counts = self.events_by_kind
        counts[kind] = counts.get(kind, 0) + 1
        if queue_depth > self.peak_queue_depth:
            self.peak_queue_depth = queue_depth
        return self.events % self.sample_every == 0

    def sample_buffers(self, sim_time: float, used: float) -> None:
        """Record one point of the buffer-occupancy time series."""
        self.buffer_occupancy.append([sim_time, used])

    def finish(self) -> None:
        """Stamp the end of the run (wall-clock since :meth:`begin`)."""
        if self._started is not None:
            self.wall_s = _time.perf_counter() - self._started

    # ------------------------------------------------------------------
    @property
    def events_per_s(self) -> Optional[float]:
        if not self.wall_s or self.wall_s <= 0.0:
            return None
        return self.events / self.wall_s

    def as_dict(self) -> Dict[str, object]:
        """The run's telemetry as one JSON-ready dict."""
        rate = self.events_per_s
        return {
            "engine": self.engine,
            "algorithm": self.algorithm,
            "events": self.events,
            "events_by_kind": dict(self.events_by_kind),
            "events_per_s": None if rate is None else round(rate, 1),
            "peak_queue_depth": self.peak_queue_depth,
            "buffer_occupancy": [list(point)
                                 for point in self.buffer_occupancy],
            "wall_s": None if self.wall_s is None else round(self.wall_s, 6),
        }


class PhaseTimers:
    """Named wall-clock phases, measured in the parent (``--profile``)."""

    def __init__(self) -> None:
        self._phases: Dict[str, float] = {}
        self._open: Dict[str, float] = {}

    def start(self, name: str) -> None:
        self._open[name] = _time.perf_counter()

    def stop(self, name: str) -> float:
        """Close a phase; returns (and accumulates) its elapsed seconds."""
        started = self._open.pop(name, None)
        if started is None:
            return 0.0
        elapsed = _time.perf_counter() - started
        self.add(name, elapsed)
        return elapsed

    def add(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* measured elsewhere into phase *name*."""
        self._phases[name] = self._phases.get(name, 0.0) + seconds

    class _Phase:
        __slots__ = ("timers", "name")

        def __init__(self, timers: "PhaseTimers", name: str) -> None:
            self.timers = timers
            self.name = name

        def __enter__(self):
            self.timers.start(self.name)
            return self

        def __exit__(self, *exc_info) -> None:
            self.timers.stop(self.name)

    def phase(self, name: str) -> "PhaseTimers._Phase":
        """``with timers.phase("execute"): ...``"""
        return PhaseTimers._Phase(self, name)

    def as_dict(self) -> Dict[str, float]:
        return {name: round(elapsed, 6)
                for name, elapsed in self._phases.items()}


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs shared by every experiment entrypoint.

    ``trace_dir`` — write one JSONL trace file per executed job (named by
    its content hash) into this directory.  ``metrics_path`` — write the
    run-level ``metrics.json`` artifact here.  ``profile`` — time the
    parent-side phases and include them in the artifact.
    """

    trace_dir: Optional[str] = None
    metrics_path: Optional[str] = None
    profile: bool = False

    @property
    def enabled(self) -> bool:
        return bool(self.trace_dir or self.metrics_path or self.profile)

    @property
    def wants_telemetry(self) -> bool:
        """True when per-job engine telemetry should be collected."""
        return bool(self.metrics_path or self.profile)

    def trace_path(self, job_hash: str) -> Optional[Path]:
        """The per-job trace file for *job_hash*, or ``None``."""
        if not self.trace_dir:
            return None
        return Path(self.trace_dir) / f"trace-{job_hash[:16]}.jsonl"


def write_metrics_json(path: Union[str, Path],
                       payload: Dict[str, object]) -> Path:
    """Write *payload* (plus the schema tag) as the metrics artifact."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    record = {"schema": METRICS_SCHEMA}
    record.update(payload)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return target
