"""Span recording around the public entry points of each ``repro`` layer.

Nothing here edits the program: :func:`instrument` replaces entry points
*in the namespaces their callers look them up in* (a method on its class,
a function on the module that imports it by name) with thin wrappers, and
:meth:`Instrumentation.restore` puts the originals back, so untraced
passes run the program unwrapped.  A wrapper records one span —
``[name, start, end, parent, attrs]`` — while the recorder is enabled.

Spans are kept in memory; :meth:`SpanRecorder.dump` writes them out once
the run ends.  All timing is single-threaded, so child spans nest strictly
inside their parent and a span's self time is its duration minus the sum
of its children's durations.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: The benchmark's clock: CPU seconds (user + system) of this process.
#: The program runs single-threaded and CPU-bound, so on an uncontended
#: core this equals wall time; on a shared core it leaves out the time
#: the process sat descheduled, which made wall time of fixed work swing
#: by a quarter between passes where CPU time moved by a few percent.
clock = time.process_time

NAME, START, END, PARENT, ATTRS = range(5)


class SpanRecorder:
    """An in-memory span log with a parent stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, clock(), 0.0, parent, attrs])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: Optional[dict] = None):
        """A span around a direct call from the benchmark into a layer."""
        if not self.enabled:
            yield None
            return
        index = self.open(name, attrs)
        try:
            yield
        finally:
            self.close(index)

    def take(self) -> List[list]:
        """Hand over the spans recorded so far and start a fresh log."""
        spans, self.spans, self._stack = self.spans, [], []
        return spans

    @staticmethod
    def dump(path, passes: List[List[list]]) -> None:
        """Write every traced pass's spans as JSON (times in seconds)."""
        payload = [
            [{"name": s[NAME], "start": s[START], "end": s[END],
              "parent": s[PARENT],
              "attrs": {k: v for k, v in (s[ATTRS] or {}).items()
                        if isinstance(v, (int, float, str, bool))}}
             for s in spans]
            for spans in passes
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def top_level_coverage(spans: List[list], pass_s: float) -> float:
    """Share of a pass's time covered by its parentless spans."""
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return covered / pass_s if pass_s > 0 else 0.0


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
class _Patches:
    def __init__(self) -> None:
        self.undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        self.undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          on_return: Optional[Callable] = None) -> Callable:
    """A recording wrapper; *on_return(attrs, args, result)* fills span
    attributes after the call (it runs inside the span, so keep it cheap)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
            if on_return is not None:
                attrs: Dict[str, object] = {}
                on_return(attrs, args, result)
                recorder.spans[index][ATTRS] = attrs
            return result
        finally:
            recorder.close(index)

    return wrapper


def _method(patches: _Patches, recorder: SpanRecorder, cls, attribute: str,
            name: str, on_return: Optional[Callable] = None) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        patches.replace(cls, attribute, classmethod(
            _wrap(recorder, name, raw.__func__, on_return)))
    else:
        patches.replace(cls, attribute, _wrap(recorder, name, raw, on_return))


def _subclasses(cls) -> List[type]:
    seen, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in seen:
            seen.append(current)
            pending.extend(current.__subclasses__())
    return seen


class Instrumentation:
    """The installed wrappers plus the side tables they fill."""

    def __init__(self) -> None:
        self.patches = _Patches()
        #: simulator instance -> (contact count, code path, protocol name)
        self.simulators: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.patches.undo):
            setattr(owner, attribute, original)
        self.patches.undo.clear()


def code_path(constraints, algorithm) -> str:
    """Which code path ``VectorSimulator`` takes, by the rule it applies:
    bandwidth, an active channel or active churn delegate the run to the
    DES engine; otherwise the protocol's ``vector_fastpath`` flag picks the
    batched fast path or the per-message hook path."""
    if (constraints.bandwidth is not None
            or constraints.active_channel is not None
            or constraints.active_churn is not None):
        return "delegate"
    protocol = getattr(algorithm, "protocol", algorithm)
    return "fastpath" if getattr(protocol, "vector_fastpath", False) else "hook"


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer entry point the workloads reach (see module doc)."""
    import repro.analysis.experiments as experiments
    import repro.datasets as datasets
    import repro.exp.orchestrator as orchestrator
    from repro.core.enumeration import PathEnumerator
    from repro.core.fastpath import StepTables
    from repro.core.space_time_graph import SpaceTimeGraph
    from repro.forwarding.simulator import ForwardingSimulator
    from repro.routing.base import RoutingProtocol
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.adapter import AlgorithmAdapter
    from repro.sim.engine import DesSimulator
    from repro.sim.vector import VectorSimulator
    from repro.svc.store import ShardedResultStore

    inst = Instrumentation()
    patches = inst.patches

    def trace_size(attrs, args, result):
        attrs["contacts"] = len(result)

    def enumeration(attrs, args, result):
        attrs["paths"] = result.num_deliveries

    def explosion(attrs, args, result):
        attrs["exploded"] = result.exploded

    def outcome(attrs, args, result):
        attrs["delivered"] = result.num_delivered
        attrs["copies"] = result.copies_sent or 0
        attrs["messages"] = len(args[1])

    def vector_run(attrs, args, result):
        outcome(attrs, args, result)
        contacts, path, protocol = inst.simulators.get(args[0], (0, "?", "?"))
        attrs.update(contacts=contacts, path=path, protocol=protocol)

    def plan_size(attrs, args, result):
        attrs["jobs"] = len(args[0].jobs)
        attrs["trace_keys"] = len({job.trace_key for job in args[0].jobs})

    # datasets: looked up on the module by both the benchmark and
    # DatasetTraceSpec.build (a call-time local import)
    patches.replace(datasets, "load_dataset",
                    _wrap(recorder, "datasets.load",
                          datasets.__dict__["load_dataset"], trace_size))
    _method(patches, recorder, ScenarioSpec, "build_trace",
            "scenario.build_trace", trace_size)
    _method(patches, recorder, ScenarioSpec, "build_messages",
            "scenario.build_messages")
    _method(patches, recorder, SpaceTimeGraph, "__init__", "core.graph_build")
    _method(patches, recorder, StepTables, "build", "core.graph_build")
    _method(patches, recorder, PathEnumerator, "enumerate", "core.enumerate",
            enumeration)
    # the explosion study calls analyze_message by its imported name
    patches.replace(experiments, "analyze_message",
                    _wrap(recorder, "core.analyze",
                          experiments.__dict__["analyze_message"], explosion))
    _method(patches, recorder, ForwardingSimulator, "run",
            "forwarding.simulate", outcome)
    _method(patches, recorder, DesSimulator, "run", "sim.des_run")
    _method(patches, recorder, VectorSimulator, "run", "sim.run", vector_run)
    original_init = VectorSimulator.__dict__["__init__"]

    @functools.wraps(original_init)
    def vector_init(self, trace, algorithm, *args, **kwargs):
        original_init(self, trace, algorithm, *args, **kwargs)
        inst.simulators[self] = (
            len(trace), code_path(self.constraints, algorithm),
            getattr(getattr(algorithm, "protocol", algorithm), "name", "?"))

    patches.replace(VectorSimulator, "__init__", vector_init)
    for cls in _subclasses(RoutingProtocol) + [AlgorithmAdapter]:
        if "prepare" in cls.__dict__:
            _method(patches, recorder, cls, "prepare", "routing.prepare")
    # run_experiment looks these up in the orchestrator's namespace
    patches.replace(orchestrator, "build_plan",
                    _wrap(recorder, "exp.plan",
                          orchestrator.__dict__["build_plan"]))
    patches.replace(orchestrator, "execute_plan",
                    _wrap(recorder, "exp.execute",
                          orchestrator.__dict__["execute_plan"], plan_size))
    patches.replace(orchestrator, "encode_record",
                    _wrap(recorder, "exp.encode",
                          orchestrator.__dict__["encode_record"]))
    _method(patches, recorder, ShardedResultStore, "put_many", "svc.put")
    _method(patches, recorder, ShardedResultStore, "flush", "svc.flush")
    return inst
