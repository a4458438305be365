"""Run telemetry: engine counters, phase timers, metrics.json artifacts
and the orchestrator integration (per-job traces + telemetry attachment).
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.exp.orchestrator import run_experiment
from repro.exp.records import decode_result, encode_record
from repro.exp.spec import ExperimentSpec
from repro.forwarding import PoissonMessageWorkload
from repro.forwarding.algorithms import algorithm_by_name
from repro.obs import (
    METRICS_SCHEMA,
    EngineTelemetry,
    ObsConfig,
    PhaseTimers,
    read_trace,
    write_metrics_json,
)
from repro.routing.registry import protocol_by_name
from repro.sim import (
    DesSimulator,
    ResourceConstraints,
    VectorSimulator,
    run_scenario,
)

_SCALE = 0.2
_RATE = 0.01

SMALL_SPEC = ExperimentSpec(
    name="obs-small", scenarios=("paper-ttl-tight",),
    protocols=("Epidemic", "Direct Delivery"), seeds=(7,), num_runs=1)


# ----------------------------------------------------------------------
# EngineTelemetry
# ----------------------------------------------------------------------
class TestEngineTelemetry:
    def test_sampling_cadence_and_counters(self):
        telemetry = EngineTelemetry(sample_every=4)
        telemetry.begin(engine="des", algorithm="Epidemic")
        due = [telemetry.event("create", queue_depth=depth)
               for depth in (3, 9, 2, 5, 1, 1, 1, 7)]
        assert due == [False, False, False, True] * 2
        telemetry.sample_buffers(10.0, 42.0)
        telemetry.finish()
        assert telemetry.events == 8
        assert telemetry.events_by_kind == {"create": 8}
        assert telemetry.peak_queue_depth == 9
        assert telemetry.buffer_occupancy == [[10.0, 42.0]]
        assert telemetry.wall_s is not None
        assert telemetry.events_per_s > 0

    def test_begin_resets_between_runs(self):
        telemetry = EngineTelemetry()
        telemetry.begin(engine="des", algorithm="A")
        telemetry.event("create")
        telemetry.finish()
        telemetry.begin(engine="trace", algorithm="B")
        assert telemetry.events == 0
        assert telemetry.events_by_kind == {}
        assert telemetry.wall_s is None
        assert telemetry.events_per_s is None

    def test_as_dict_is_json_ready(self):
        telemetry = EngineTelemetry()
        telemetry.begin(engine="des", algorithm="Epidemic")
        telemetry.event("create", queue_depth=2)
        telemetry.finish()
        payload = telemetry.as_dict()
        assert set(payload) == {"engine", "algorithm", "events",
                                "events_by_kind", "events_per_s",
                                "peak_queue_depth", "buffer_occupancy",
                                "wall_s"}
        json.dumps(payload)  # must not raise

    def test_sample_every_validation(self):
        with pytest.raises(ValueError, match="sample_every"):
            EngineTelemetry(sample_every=0)


# ----------------------------------------------------------------------
# engines under telemetry
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def _run(self, simulator_class, telemetry):
        trace = load_dataset(PAPER_DATASET_KEYS[0], scale=_SCALE,
                             contact_scale=_SCALE)
        messages = PoissonMessageWorkload(rate=_RATE).generate(trace, seed=11)
        return simulator_class(trace, algorithm_by_name("Epidemic"),
                               telemetry=telemetry).run(messages)

    @pytest.mark.parametrize("simulator_class",
                             [DesSimulator], ids=["des"])
    def test_des_run_populates_telemetry(self, simulator_class):
        telemetry = EngineTelemetry(sample_every=8)
        result = self._run(simulator_class, telemetry)
        assert telemetry.engine == "des"
        assert telemetry.algorithm == "Epidemic"
        assert telemetry.events > 0
        assert sum(telemetry.events_by_kind.values()) == telemetry.events
        assert telemetry.peak_queue_depth > 0
        assert telemetry.buffer_occupancy, "sample_every=8 must sample"
        assert telemetry.wall_s is not None
        # sim-time samples are non-decreasing
        times = [point[0] for point in telemetry.buffer_occupancy]
        assert times == sorted(times)
        # telemetry must not perturb the simulation
        bare = self._run(simulator_class, None)
        assert bare.outcomes == result.outcomes
        assert bare.copies_sent == result.copies_sent

    @pytest.mark.parametrize("protocol_name, options, code_path", [
        ("Epidemic", {}, "flood"),
        ("Binary Spray-and-Wait", {}, "flood"),
        ("Epidemic", {"buffer_capacity": 4.0, "ttl": 900.0}, "fastpath"),
        ("PRoPHET", {}, "flood"),
        ("Greedy", {"buffer_capacity": 4.0}, "fastpath"),
    ], ids=["epidemic", "spray", "epidemic-buffer-ttl", "prophet",
            "greedy-buffer"])
    def test_vector_telemetry_equals_des_telemetry(self, protocol_name,
                                                   options, code_path):
        """A native vector run counts and samples exactly the events the
        DES engine does, on the flood and the per-message relay alike;
        attaching telemetry does not move a run off the flood."""
        trace = load_dataset(PAPER_DATASET_KEYS[0], scale=_SCALE,
                             contact_scale=_SCALE)
        messages = PoissonMessageWorkload(rate=_RATE).generate(trace, seed=11)

        def run(simulator_class):
            telemetry = EngineTelemetry(sample_every=8)
            simulator = simulator_class(
                trace, protocol_by_name(protocol_name),
                constraints=ResourceConstraints(**options),
                telemetry=telemetry)
            simulator.run(messages)
            return simulator, telemetry

        (_, des), (simulator, vec) = run(DesSimulator), run(VectorSimulator)
        assert simulator.code_path == code_path
        assert (des.engine, vec.engine) == ("des", "vector")
        assert vec.events == des.events > 0
        assert vec.events_by_kind == des.events_by_kind
        assert vec.peak_queue_depth == des.peak_queue_depth
        assert vec.buffer_occupancy == des.buffer_occupancy
        assert vec.buffer_occupancy, "sample_every=8 must sample"

    def test_forwarding_simulator_populates_telemetry(self):
        from repro.forwarding import ForwardingSimulator

        telemetry = EngineTelemetry(sample_every=8)
        result = self._run(ForwardingSimulator, telemetry)
        # the public simulator runs on the vector kernel; the trace-engine
        # label is pinned on the oracle (tests/test_trace_engine_oracle.py)
        assert telemetry.engine == "vector"
        assert telemetry.events > 0
        bare = self._run(ForwardingSimulator, None)
        assert bare.outcomes == result.outcomes


# ----------------------------------------------------------------------
# PhaseTimers / ObsConfig / write_metrics_json
# ----------------------------------------------------------------------
class TestPhaseTimers:
    def test_phases_accumulate(self):
        timers = PhaseTimers()
        with timers.phase("plan"):
            pass
        with timers.phase("execute"):
            pass
        with timers.phase("execute"):
            pass
        phases = timers.as_dict()
        assert set(phases) == {"plan", "execute"}
        assert all(elapsed >= 0.0 for elapsed in phases.values())

    def test_stop_without_start_is_zero(self):
        assert PhaseTimers().stop("never") == 0.0


class TestObsConfig:
    def test_flags(self):
        assert not ObsConfig().enabled
        assert ObsConfig(trace_dir="t").enabled
        assert not ObsConfig(trace_dir="t").wants_telemetry
        assert ObsConfig(metrics_path="m.json").wants_telemetry
        assert ObsConfig(profile=True).wants_telemetry

    def test_trace_path_naming(self):
        config = ObsConfig(trace_dir="traces")
        path = config.trace_path("a" * 64)
        assert path.name == f"trace-{'a' * 16}.jsonl"
        assert ObsConfig().trace_path("a" * 64) is None


class TestWriteMetricsJson:
    def test_schema_tag_and_parent_creation(self, tmp_path):
        target = tmp_path / "deep" / "metrics.json"
        written = write_metrics_json(target, {"jobs": 3})
        assert written == target
        payload = json.loads(target.read_text())
        assert payload["schema"] == METRICS_SCHEMA
        assert payload["jobs"] == 3


# ----------------------------------------------------------------------
# orchestrator integration
# ----------------------------------------------------------------------
class TestOrchestratorIntegration:
    def test_run_experiment_writes_traces_and_metrics(self, tmp_path):
        obs = ObsConfig(trace_dir=str(tmp_path / "traces"),
                        metrics_path=str(tmp_path / "metrics.json"),
                        profile=True)
        result = run_experiment(SMALL_SPEC, obs=obs)
        assert result.num_executed == 2

        # one well-formed trace per executed job, named by its hash
        for job in result.plan.jobs:
            trace_file = obs.trace_path(job.job_hash)
            assert trace_file.exists(), job.job_hash
            events = read_trace(trace_file)
            assert events
            assert all("event" in record and "t" in record
                       for record in events)

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["schema"] == METRICS_SCHEMA
        assert metrics["jobs"] == metrics["executed"] == 2
        assert metrics["reused"] == metrics["failed"] == 0
        assert len(metrics["engine_runs"]) == 2
        hashes = {job.job_hash for job in result.plan.jobs}
        for run in metrics["engine_runs"]:
            assert run["job_hash"] in hashes
            assert run["events"] > 0
            assert run["engine"] == "vector"
        totals = metrics["engine_totals"]
        assert totals["events"] == sum(run["events"]
                                       for run in metrics["engine_runs"])
        assert "execute" in metrics["phases"]

    def test_executed_results_carry_telemetry(self, tmp_path):
        obs = ObsConfig(metrics_path=str(tmp_path / "metrics.json"))
        result = run_experiment(SMALL_SPEC, obs=obs)
        for job in result.plan.jobs:
            telemetry = result.result_for(job).telemetry
            assert telemetry is not None
            assert telemetry["events"] > 0

    def test_telemetry_excluded_from_equality_and_records(self, tmp_path):
        """A result that carries telemetry must stay equal to its stored,
        decoded twin — telemetry is an annotation, not content."""
        store = tmp_path / "results"
        with_obs = run_experiment(
            SMALL_SPEC, store=store,
            obs=ObsConfig(metrics_path=str(tmp_path / "m.json")))
        reused = run_experiment(SMALL_SPEC, store=store)
        assert reused.num_reused == 2
        for job in with_obs.plan.jobs:
            executed = with_obs.result_for(job)
            decoded = reused.result_for(job)
            assert executed.telemetry is not None
            assert decoded.telemetry is None
            assert executed == decoded
            # encoding never persists the telemetry annotation
            record = encode_record(job, executed)
            assert "telemetry" not in json.dumps(record)
            assert decode_result(record) == executed

    def test_no_obs_means_no_artifacts_and_no_telemetry(self, tmp_path):
        result = run_experiment(SMALL_SPEC)
        for job in result.plan.jobs:
            assert result.result_for(job).telemetry is None
        assert list(tmp_path.iterdir()) == []

    def test_obs_on_reused_jobs_writes_metrics_without_engine_runs(
            self, tmp_path):
        """Resume with observability on: nothing executes, but the
        metrics artifact still lands (with empty engine telemetry)."""
        store = tmp_path / "results"
        run_experiment(SMALL_SPEC, store=store)
        obs = ObsConfig(trace_dir=str(tmp_path / "traces"),
                        metrics_path=str(tmp_path / "metrics.json"))
        resumed = run_experiment(SMALL_SPEC, store=store, obs=obs)
        assert resumed.num_executed == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["reused"] == 2
        assert metrics["executed"] == 0
        assert metrics.get("engine_runs", []) == []
        # no job ran, so no trace files
        assert not (tmp_path / "traces").exists()

    def test_scenario_run_metrics_are_timed(self, tmp_path):
        """run_scenario goes through run_experiment, so its metrics.json
        carries the execute time and, with profile on, the phases."""
        obs = ObsConfig(metrics_path=str(tmp_path / "metrics.json"),
                        profile=True)
        run_scenario("paper-ttl-tight", num_runs=1, obs=obs)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["experiment"] == "scenario:paper-ttl-tight"
        assert metrics["executed"] == metrics["jobs"] > 0
        assert metrics["elapsed_s"] > 0
        assert metrics["phases"]["execute"] > 0

    def test_parallel_run_matches_serial_with_obs(self, tmp_path):
        """Observability through the process pool: same results, traces
        for every executed job."""
        serial = run_experiment(SMALL_SPEC)
        obs = ObsConfig(trace_dir=str(tmp_path / "traces"))
        parallel = run_experiment(SMALL_SPEC, workers=2, obs=obs)
        for job in serial.plan.jobs:
            assert parallel.result_for(job) == serial.result_for(job)
            assert obs.trace_path(job.job_hash).exists()
