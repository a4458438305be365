"""The four benchmark workloads.

Each workload is a closed loop driven by one client in one process: a
*pass* runs the whole workload once and returns its outputs, and the
benchmark repeats passes for the measurement window.  Inputs derive only
from the ``--seed`` argument.  Sizes are scaled so one pass takes a few
seconds on a 2-core machine; every scale-down keeps the layer mix the
workload was chosen for (see ``perfbench/README.md``).

Output checks (:meth:`check`) run untimed on the first pass's outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.analysis as analysis
import repro.analysis.experiments as experiments
import repro.datasets as datasets
import repro.exp as exp
from repro.core import PathEnumerator, SpaceTimeGraph
from repro.datasets import PAPER_DATASET_KEYS
from repro.exp.executor import FaultPolicy
from repro.exp.records import decode_result
from repro.exp.store import aggregate_leaderboard
from repro.forwarding import (ForwardingSimulator, Message,
                              PoissonMessageWorkload)
from repro.routing.registry import protocol_by_name, protocol_names
from repro.scenario.traces import GridRandomWaypointTraceSpec
from repro.sim.engine import DesSimulator
from repro.sim.scenarios import Scenario
from repro.sim.vector import VectorSimulator
from repro.svc.store import ShardedResultStore, create_store

from spans import SpanRecorder, clock


@dataclass
class PassResult:
    """What one pass produced: timings, simulated counts and its outputs."""

    #: CPU seconds of the whole pass (see ``spans.clock``)
    seconds: float = 0.0
    #: host seconds of each unit of work (message, job or simulator run)
    items: List[float] = field(default_factory=list)
    #: (operation kind, host seconds) of each read on the zoo-grid store
    reads: List[Tuple[str, float]] = field(default_factory=list)
    #: simulated statistics and input sizes (counts, never timings)
    counts: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    #: operations that raised inside the timed loop
    errors: int = 0
    #: outputs kept only for the checked pass
    outputs: Optional[dict] = None


def _hash(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=repr)
                          .encode("utf-8")).hexdigest()[:16]


def _stream(result) -> list:
    """A simulation result's delivery stream, as compared across engines."""
    return [[o.message.id, o.delivered, o.delivery_time, o.hop_count]
            for o in result.outcomes] + [result.copies_sent]


def _mismatch(label: str, expected, actual) -> List[str]:
    return [] if expected == actual else [label]


class Workload:
    """Base: subclasses set ``name``/``why`` and implement a pass."""

    name = ""
    why = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def prepare_pass(self, index: int) -> None:
        """Untimed per-pass set-up (the zoo-grid's empty store)."""

    def run_pass(self, index: int, recorder: SpanRecorder) -> PassResult:
        raise NotImplementedError

    def finish_pass(self, index: int, result: PassResult, keep: bool) -> None:
        """Compute the digest and drop outputs unless *keep*."""
        result.digest = _hash(self.digest_payload(result.outputs))
        if not keep:
            result.outputs = None

    def digest_payload(self, outputs: dict):
        raise NotImplementedError

    def check(self, first: PassResult) -> Tuple[int, List[str]]:
        """(comparisons attempted, labels of those that mismatched)."""
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# paper-repro: the paper's own pipeline on the four stand-ins
# ----------------------------------------------------------------------
class PaperRepro(Workload):
    name = "paper-repro"
    why = ("the paper's result: path explosion then forwarding on the four "
           "stand-ins; the only workload using core and forwarding")

    SCALE = 0.15
    N_EXPLOSION = 50
    MESSAGE_RATE = 0.05
    DELTA = 10.0
    #: messages per dataset re-enumerated by the reference engine
    REFERENCE_SAMPLE = 2

    def _messages(self, trace, index: int):
        """One message per ordered pair of distinct nodes; creation times
        are evenly stratified over the first two thirds of the window and
        dealt to the pairs in seeded order, jittered within their stratum.

        Covering every pair at a stratified set of times keeps the work per
        seed steady: per-message cost is heavy-tailed in the endpoints and
        the creation time, and uniformly sampled messages made enumeration
        time swing by a tenth from seed to seed."""
        rng = np.random.default_rng([self.seed, index])
        nodes = sorted(trace.nodes)
        pairs = [(source, destination) for source in nodes
                 for destination in nodes if source != destination]
        slots = (rng.permutation(len(pairs)) + rng.random(len(pairs))) / len(pairs)
        horizon = trace.duration * 2.0 / 3.0
        return [(source, destination, float(slot * horizon))
                for (source, destination), slot in zip(pairs, slots)]

    def _forwarding_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def run_pass(self, index, recorder):
        result = PassResult()
        records_by, comparisons, traces, messages_by = {}, {}, {}, {}
        clocked = experiments.analyze_message

        def timed(*args, **kwargs):
            started = clock()
            record = clocked(*args, **kwargs)
            result.items.append(clock() - started)
            return record

        experiments.analyze_message = timed
        started = clock()
        try:
            for position, key in enumerate(PAPER_DATASET_KEYS):
                trace = datasets.load_dataset(key, scale=self.SCALE,
                                              contact_scale=self.SCALE)
                messages = self._messages(trace, position)
                records_by[key] = experiments.run_path_explosion_study(
                    trace, messages=messages, n_explosion=self.N_EXPLOSION,
                    delta=self.DELTA)
                comparisons[key] = experiments.run_forwarding_study(
                    trace, message_rate=self.MESSAGE_RATE,
                    seed=self._forwarding_seed(position))
                traces[key], messages_by[key] = trace, messages
            with recorder.span("analysis.summarize"):
                analysis.figure4_duration_and_explosion_cdfs(records_by)
                analysis.figure9_delay_vs_success(comparisons)
                for comparison in comparisons.values():
                    analysis.figure13_pair_type_performance(comparison)
            result.seconds = clock() - started
        finally:
            experiments.analyze_message = clocked
        records = [r for rs in records_by.values() for r in rs]
        runs = [run for c in comparisons.values()
                for rs in c.results.values() for run in rs]
        result.counts = {
            "nodes": sum(t.num_nodes for t in traces.values()),
            "contacts": sum(len(t) for t in traces.values()),
            "messages": len(records) + sum(r.num_messages for r in runs),
            "jobs": len(records) + len(runs),
            "paths_enumerated": sum(r.num_paths for r in records),
            "exploded": sum(1 for r in records if r.exploded),
            "deliveries": sum(r.num_delivered for r in runs),
            "copies_sent": sum(r.copies_sent or 0 for r in runs),
        }
        result.outputs = {"records": records_by, "comparisons": comparisons,
                          "traces": traces, "messages": messages_by}
        return result

    def digest_payload(self, outputs):
        return {
            "records": [[r.source, r.destination, r.creation_time, r.num_paths,
                         r.optimal_duration, r.time_to_explosion]
                        for rs in outputs["records"].values() for r in rs],
            "forwarding": {key: {name: [_stream(run) for run in runs]
                                 for name, runs in c.results.items()}
                           for key, c in outputs["comparisons"].items()},
        }

    def check(self, first):
        outputs = first.outputs
        failures: List[str] = []
        attempted = 0
        rng = np.random.default_rng([self.seed, 99])
        for key in PAPER_DATASET_KEYS:
            trace = outputs["traces"][key]
            graph = SpaceTimeGraph(trace, delta=self.DELTA)
            fast = PathEnumerator(graph, k=self.N_EXPLOSION, engine="fast")
            reference = PathEnumerator(graph, k=self.N_EXPLOSION,
                                       engine="reference")
            messages = outputs["messages"][key]
            records = outputs["records"][key]
            for pick in rng.choice(len(messages), size=self.REFERENCE_SAMPLE,
                                   replace=False):
                source, destination, created = messages[pick]
                streams = []
                for enumerator in (fast, reference):
                    found = enumerator.enumerate(
                        source, destination, created,
                        max_total_deliveries=self.N_EXPLOSION)
                    streams.append([found.stopped_early, found.steps_processed,
                                    [(d.time, d.step, d.path)
                                     for d in found.deliveries]])
                attempted += 1
                failures += _mismatch(f"{key} message {pick}: fast vs reference "
                                      f"enumerator", streams[0], streams[1])
                attempted += 1
                failures += _mismatch(f"{key} message {pick}: study vs direct "
                                      f"enumeration", records[pick].num_paths,
                                      len(streams[0][2]))
        # the trace-driven simulator against the DES engine, on the same
        # workload the pass drew for its first forwarding run
        position = int(rng.integers(len(PAPER_DATASET_KEYS)))
        key = PAPER_DATASET_KEYS[position]
        trace = outputs["traces"][key]
        messages = PoissonMessageWorkload(rate=self.MESSAGE_RATE).generate(
            trace, seed=np.random.default_rng(self._forwarding_seed(position)))
        trace_run = ForwardingSimulator(trace, protocol_by_name("Epidemic")).run(messages)
        des_run = DesSimulator(trace, protocol_by_name("Epidemic")).run(messages)
        attempted += 2
        failures += _mismatch(f"{key}: ForwardingSimulator vs DesSimulator",
                              _stream(trace_run), _stream(des_run))
        failures += _mismatch(
            f"{key}: study vs direct Epidemic run", _stream(trace_run),
            _stream(outputs["comparisons"][key].results["Epidemic"][0]))
        return attempted, failures


# ----------------------------------------------------------------------
# zoo-grid: many small exp jobs into a sharded store, then reads
# ----------------------------------------------------------------------
class ZooGrid(Workload):
    name = "zoo-grid"
    why = ("many small jobs: exp plan/encode, the svc write path and the "
           "read path are a real share; all three vector code paths run")

    SCENARIOS = ("paper-ideal", "paper-buffer-crunch", "paper-ttl-tight",
                 "paper-trickle-link", "rwp-courtyard", "rwp-courtyard-lossy",
                 "hotspot-funnel", "flash-crowd")
    SEEDS_PER_PASS = 4
    READS = 3000
    #: jobs re-run on the DES engine by the output check
    DES_SAMPLE = 6

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        seeds = tuple(seed * 100 + offset for offset in range(self.SEEDS_PER_PASS))
        self.spec = exp.ExperimentSpec(
            name="perfbench-zoo", scenarios=self.SCENARIOS,
            protocols=tuple(protocol_names()), seeds=seeds, engine="vector")
        self._stores: Dict[int, object] = {}

    def _root(self, index: int) -> Path:
        return self.work_dir / f"store-{index}"

    def prepare_pass(self, index):
        self._stores[index] = create_store(self._root(index))

    def _read_plan(self, job_hashes: List[str]):
        """READS operations, leaderboard/query/get in a shuffled 1:1:1 mix."""
        rng = np.random.default_rng([self.seed, 7])
        kinds = np.array(["leaderboard", "query", "get"])[
            rng.permutation(np.arange(self.READS) % 3)]
        protocols = protocol_names()
        operations = []
        for kind in kinds:
            if kind == "query":
                protocol = protocols[int(rng.integers(len(protocols)))]
                scenario = (self.SCENARIOS[int(rng.integers(len(self.SCENARIOS)))]
                            if rng.random() < 0.5 else None)
                operations.append(("query", (scenario, protocol)))
            elif kind == "get":
                operations.append(("get", job_hashes[int(rng.integers(len(job_hashes)))]))
            else:
                operations.append(("leaderboard", None))
        return operations

    def run_pass(self, index, recorder):
        result = PassResult()
        store = self._stores.pop(index)
        marks = []

        def progress(event, job, value):
            if event == "done":
                marks.append(clock())
            elif event == "failed":
                result.errors += 1

        started = clock()
        outcome = exp.run_experiment(self.spec, store=store,
                                     policy=FaultPolicy(), progress=progress)
        with recorder.span("analysis.summarize"):
            rows = outcome.table_rows()
        store.flush()
        operations = self._read_plan(outcome.plan.job_hashes())
        reopened = ShardedResultStore(self._root(index))
        with recorder.span("svc.load"):
            reopened.load()
        answers = []
        reads = result.reads
        traced = recorder.enabled
        for kind, argument in operations:
            if traced:
                span = recorder.open("svc." + kind)
            op_started = clock()
            try:
                if kind == "leaderboard":
                    answer = reopened.leaderboard()
                elif kind == "query":
                    answer = reopened.query_entries(scenario=argument[0],
                                                    protocol=argument[1])
                else:
                    answer = reopened.get(argument)
            except Exception:  # a failed read counts in failed_share
                answer = None
                result.errors += 1
            reads.append((kind, clock() - op_started))
            if traced:
                recorder.close(span)
            answers.append(answer)
        result.seconds = clock() - started
        result.items = [b - a for a, b in zip(marks, marks[1:])]
        results = [outcome.outcome.results.get(job.job_hash)
                   for job in outcome.plan.jobs]
        done = [r for r in results if r is not None]
        result.counts = {
            "jobs": len(outcome.plan.jobs),
            "quarantined": outcome.num_failed,
            "messages": sum(r.num_messages for r in done),
            "deliveries": sum(r.num_delivered for r in done),
            "copies_sent": sum(r.copies_sent or 0 for r in done),
            "reads": len(operations),
            "store_bytes": sum(p.stat().st_size for p in
                               self._root(index).rglob("*") if p.is_file()),
        }
        result.outputs = {"outcome": outcome, "rows": rows, "store": reopened,
                          "operations": operations, "answers": answers}
        return result

    def finish_pass(self, index, result, keep):
        super().finish_pass(index, result, keep)
        if not keep:
            shutil.rmtree(self._root(index), ignore_errors=True)

    def digest_payload(self, outputs):
        outcome = outputs["outcome"]
        streams = [[job.job_hash, _stream(outcome.outcome.results[job.job_hash])]
                   for job in outcome.plan.jobs
                   if job.job_hash in outcome.outcome.results]
        answers = []
        for (kind, _), answer in zip(outputs["operations"], outputs["answers"]):
            if kind == "get":
                answers.append(None if answer is None else answer.get("job_hash"))
            elif kind == "query":
                answers.append([entry["job_hash"] for entry in answer or []])
            else:
                answers.append(answer)
        return {"streams": streams, "rows": outputs["rows"], "answers": answers}

    def check(self, first):
        outputs = first.outputs
        outcome = outputs["outcome"]
        store = outputs["store"]
        failures: List[str] = []
        attempted = len(outcome.plan.jobs)
        failures += [f"job {h} quarantined" for h in outcome.outcome.failed]
        entries = store.entries()
        folded = aggregate_leaderboard(entries)
        attempted += 1
        failures += _mismatch("store leaderboard vs aggregate_leaderboard",
                              folded, store.leaderboard())
        for (kind, argument), answer in zip(outputs["operations"],
                                            outputs["answers"]):
            attempted += 1
            if kind == "query":
                scenario, protocol = argument
                expected = sorted(
                    e["job_hash"] for e in entries
                    if e.get("protocol") == protocol
                    and scenario in (None, e.get("scenario")))
                failures += _mismatch(f"query {argument} vs brute force",
                                      expected,
                                      [e["job_hash"] for e in answer or []])
            elif kind == "get":
                stored = outcome.outcome.results[argument]
                failures += _mismatch(
                    f"get {argument} vs run result", _stream(stored),
                    None if answer is None else _stream(decode_result(answer)))
            else:
                failures += _mismatch("leaderboard read vs aggregate_leaderboard",
                                      folded, answer)
        # input sizes for the provenance record: the pass built each
        # distinct trace inside the executor, out of the benchmark's sight
        distinct = {job.trace_key: job.scenario for job in outcome.plan.jobs}
        traces = [scenario.build_trace() for scenario in distinct.values()]
        first.counts["nodes"] = sum(t.num_nodes for t in traces)
        first.counts["contacts"] = sum(len(t) for t in traces)
        rng = np.random.default_rng([self.seed, 13])
        jobs = outcome.plan.jobs
        for pick in rng.choice(len(jobs), size=self.DES_SAMPLE, replace=False):
            job = jobs[pick]
            trace = job.scenario.build_trace()
            messages = job.scenario.build_messages(trace, job.run_index)
            des = DesSimulator(trace, protocol_by_name(job.protocol),
                               constraints=job.scenario.constraints,
                               copy_semantics=job.scenario.copy_semantics,
                               seed=job.scenario.seed).run(messages)
            attempted += 1
            failures += _mismatch(
                f"{job.scenario_name}/{job.protocol}: vector vs des",
                _stream(outcome.outcome.results[job.job_hash]), _stream(des))
        return attempted, failures


# ----------------------------------------------------------------------
# city workloads: seeded random-waypoint cities on the vector engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StratifiedMessages:
    """A message workload (``generate(trace, seed)``) whose creation times
    are evenly stratified over *window* and dealt in seeded order, with
    seeded endpoints.  An epidemic's cost grows with the time left after a
    message's creation; stratifying the times takes that part out of the
    seed-to-seed spread of the work and leaves the endpoints to chance."""

    num_messages: int
    window: Tuple[float, float]

    def generate(self, trace, seed=None) -> List[Message]:
        rng = np.random.default_rng(seed)
        nodes = sorted(trace.nodes)
        low, high = self.window
        slots = (rng.permutation(self.num_messages)
                 + rng.random(self.num_messages)) / self.num_messages
        messages = []
        for slot in slots:
            source, destination = rng.choice(len(nodes), size=2, replace=False)
            messages.append((low + slot * (high - low), nodes[source],
                             nodes[destination]))
        messages.sort()
        return [Message(id=index, source=source, destination=destination,
                        creation_time=created)
                for index, (created, source, destination) in enumerate(messages)]


class City(Workload):
    """Build TRACES seeded city traces and run each protocol on each.  The
    unit of work is one city: its trace build and every protocol run."""

    NODES = 0
    SIDE_M = 0.0
    DURATION_S = 0.0
    MESSAGES = 0
    TRACES = 1
    PROTOCOLS: Tuple[str, ...] = ()
    #: the scaled-down instance checked against the DES engine
    CHECK_NODES = 0

    def _scenario(self, nodes: int, side: float, seed: int) -> Scenario:
        return Scenario(
            name=self.name, description=self.why,
            trace=GridRandomWaypointTraceSpec(
                num_nodes=nodes, duration=self.DURATION_S, step=30.0,
                width=side, height=side, radio_range=20.0, name=self.name),
            workload=StratifiedMessages(self.MESSAGES,
                                        (0.0, self.DURATION_S / 2)),
            algorithms=self.PROTOCOLS, seed=seed)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.scenarios = [self._scenario(self.NODES, self.SIDE_M,
                                         seed * self.TRACES + offset)
                          for offset in range(self.TRACES)]

    @staticmethod
    def _run(scenario: Scenario):
        trace = scenario.build_trace()
        messages = scenario.build_messages(trace, 0)
        runs = {name: VectorSimulator(trace, protocol_by_name(name)).run(messages)
                for name in scenario.algorithms}
        return trace, messages, runs

    def run_pass(self, index, recorder):
        result = PassResult()
        built = []
        started = clock()
        for scenario in self.scenarios:
            city_started = clock()
            built.append(self._run(scenario))
            result.items.append(clock() - city_started)
        result.seconds = clock() - started
        runs = [run for _, _, by_name in built for run in by_name.values()]
        result.counts = {
            "nodes": sum(trace.num_nodes for trace, _, _ in built),
            "contacts": sum(len(trace) for trace, _, _ in built),
            "messages": sum(r.num_messages for r in runs),
            "jobs": len(runs),
            "deliveries": sum(r.num_delivered for r in runs),
            "copies_sent": sum(r.copies_sent or 0 for r in runs),
        }
        result.outputs = {"runs": [by_name for _, _, by_name in built]}
        return result

    def digest_payload(self, outputs):
        return [{name: _stream(run) for name, run in by_name.items()}
                for by_name in outputs["runs"]]

    def check(self, first):
        # the first trace's generator and seed at the same density with
        # fewer nodes: small enough for the DES engine to replay every
        # protocol in a second or two
        side = self.SIDE_M * (self.CHECK_NODES / self.NODES) ** 0.5
        small = self._scenario(self.CHECK_NODES, side, self.scenarios[0].seed)
        trace, messages, runs = self._run(small)
        failures: List[str] = []
        for name, run in runs.items():
            des = DesSimulator(trace, protocol_by_name(name)).run(messages)
            failures += _mismatch(f"{name}: vector vs des on {trace.num_nodes} "
                                  f"nodes", _stream(run), _stream(des))
        return len(runs), failures


class City10k(City):
    name = "city-10k"
    why = ("trace construction and the vector fast-path loop each take a "
           "large share of the run; peak memory is the trace")
    NODES = 10000
    SIDE_M = 3500.0
    DURATION_S = 600.0
    MESSAGES = 40
    PROTOCOLS = ("Epidemic",)
    CHECK_NODES = 400


class City1kHook(City):
    name = "city-1k-hook"
    why = ("the hook path does almost all the work: O(n)-per-contact "
           "routing state of PRoPHET, Greedy Online and FRESH at 1000 nodes")
    NODES = 1000
    SIDE_M = 1100.0
    DURATION_S = 300.0
    MESSAGES = 30
    #: three cities per pass: PRoPHET's cost grows faster than the contact
    #: count, whose 2.5% seed-to-seed spread a single city would double
    TRACES = 3
    PROTOCOLS = ("Epidemic", "PRoPHET", "Greedy Online", "FRESH")
    CHECK_NODES = 150


WORKLOADS = {cls.name: cls for cls in (PaperRepro, ZooGrid, City10k, City1kHook)}
