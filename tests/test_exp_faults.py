"""The fault-tolerant experiment executor and store recovery.

Chaos-style coverage of the runtime fault layer: poison jobs (always
raise), hung jobs (cut by the per-job wall-clock timeout), and jobs that
``os._exit`` their worker mid-grid.  A grid containing any of these must
still complete every healthy job, persist failure RunRecords for the
quarantined ones, report them through ``experiment_status``, and re-run
exactly the failures under ``retry_failed``.  Separately,
:func:`repro.exp.pool.process_map` must drain (and persist) completed
results before surfacing a job error, and the result store must migrate
legacy flat roots with truncated tails and corrupt lines losing only the
damaged records — both pinned with hypothesis properties.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exp import (
    ExperimentSpec,
    FaultPolicy,
    experiment_status,
    process_map,
    resilient_map,
    run_experiment,
)
from repro.exp.records import decode_failure, is_failure_record
from repro.forwarding import PoissonMessageWorkload
from repro.scenario.traces import TwoClassTraceSpec
from repro.sim.scenarios import Scenario
from repro.svc.store import ShardedResultStore

_TRACE = TwoClassTraceSpec(num_high=2, num_low=4, duration=600.0,
                           mean_contacts_per_node=10.0)

#: Fast-retry policy used throughout so tests never sleep for real.
_POLICY = FaultPolicy(timeout_s=2.0, max_attempts=2, crash_retries=2,
                      backoff_base_s=0.01, backoff_cap_s=0.02,
                      backoff_jitter=0.0)


# ----------------------------------------------------------------------
# misbehaving workloads (module-level so worker processes can unpickle them)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoisonWorkload:
    """Raises on every generate call — a deterministic poison job."""

    label: str = "poison"

    def generate(self, trace, seed):
        raise RuntimeError(f"workload {self.label} exploded")


@dataclass(frozen=True)
class HangingWorkload:
    """Sleeps far past any sane per-job timeout."""

    naptime: float = 120.0

    def generate(self, trace, seed):
        time.sleep(self.naptime)
        return []


@dataclass(frozen=True)
class CrashOnceWorkload:
    """``os._exit``s its worker on the first attempt (before *marker*
    exists), then behaves — a transient infrastructure fault."""

    marker: str

    def generate(self, trace, seed):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(41)
        return PoissonMessageWorkload(rate=0.02).generate(trace, seed=seed)


@dataclass(frozen=True)
class CrashAlwaysWorkload:
    """``os._exit``s its worker every single time — a true poison pill."""

    label: str = "crash-always"

    def generate(self, trace, seed):
        os._exit(43)


def _scenario(name, workload):
    return Scenario(name=name, description=f"fault fixture: {name}",
                    trace=_TRACE, workload=workload,
                    algorithms=("Epidemic",))


def _good(name="healthy", rate=0.02):
    # distinct rates where tests use several healthy scenarios: job identity
    # is content-addressed (names excluded), so same-content scenarios
    # would dedup into a single planned job
    return _scenario(name, PoissonMessageWorkload(rate=rate))


# ----------------------------------------------------------------------
# poison + hung jobs: the grid completes degraded
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_poison_and_hung_jobs_do_not_abort_the_grid(self, tmp_path):
        spec = ExperimentSpec(
            name="degraded-grid",
            scenarios=(_good(), _scenario("poison", PoisonWorkload()),
                       _scenario("hung", HangingWorkload())),
            seeds=(7,))
        store = str(tmp_path / "results")
        result = run_experiment(spec, store=store, policy=_POLICY)

        assert result.num_executed == 1
        assert result.num_failed == 2
        kinds = {row["scenario"]: row["error_kind"]
                 for row in result.failure_rows()}
        assert kinds == {"poison": "RuntimeError", "hung": "JobTimeout"}
        attempts = {row["scenario"]: row["attempts"]
                    for row in result.failure_rows()}
        assert attempts["poison"] == _POLICY.max_attempts
        # healthy rows still tabulate; failed cells are simply absent
        assert {row["scenario"] for row in result.table_rows()} == {"healthy"}

    def test_failure_records_persist_and_status_reports_them(self, tmp_path):
        spec = ExperimentSpec(
            name="status-failures",
            scenarios=(_good(), _scenario("poison", PoisonWorkload())),
            seeds=(7,))
        store = str(tmp_path / "results")
        result = run_experiment(spec, store=store, policy=_POLICY)
        assert result.num_failed == 1

        resolved = ShardedResultStore(store)
        failed_hash = result.outcome.failed[0]
        record = resolved.get(failed_hash)
        assert record is not None and is_failure_record(record)
        failure = decode_failure(record)
        assert failure.error_kind == "RuntimeError"
        assert "exploded" in failure.error
        assert failure.attempts == _POLICY.max_attempts
        assert failure.detail and "RuntimeError" in failure.detail

        status = experiment_status(spec, store=store)
        assert (status["done"], status["failed"], status["pending"]) == (1, 1, 0)
        assert status["scenarios"]["poison"]["failed"] == 1
        (row,) = status["failures"]
        assert row["scenario"] == "poison"
        assert row["error_kind"] == "RuntimeError"

    def test_resume_keeps_quarantine_unless_retry_failed(self, tmp_path):
        spec = ExperimentSpec(
            name="retry-failed",
            scenarios=(_good(), _scenario("poison", PoisonWorkload())),
            seeds=(7,))
        store = str(tmp_path / "results")
        first = run_experiment(spec, store=store, policy=_POLICY)
        assert (first.num_executed, first.num_failed) == (1, 1)

        resumed = run_experiment(spec, store=store, policy=_POLICY)
        assert resumed.num_executed == 0          # nothing re-simulated
        assert resumed.num_reused == 1
        assert resumed.num_failed == 1            # quarantine carried over
        carried = next(iter(resumed.outcome.failures.values()))
        assert carried.error_kind == "RuntimeError"

        retried = run_experiment(spec, store=store, policy=_POLICY,
                                 retry_failed=True)
        assert retried.num_executed == 0          # it failed again...
        assert retried.num_failed == 1            # ...freshly, not carried
        assert retried.num_reused == 1

    def test_legacy_strict_path_rejects_then_reruns_failure_records(
            self, tmp_path):
        """Without a policy a stored failure record is not an answer: the
        job re-runs (and, for a poison job, the error propagates)."""
        spec = ExperimentSpec(
            name="strict-rerun",
            scenarios=(_scenario("poison", PoisonWorkload()),), seeds=(7,))
        store = str(tmp_path / "results")
        run_experiment(spec, store=store, policy=_POLICY)
        with pytest.raises(RuntimeError, match="exploded"):
            run_experiment(spec, store=store)


# ----------------------------------------------------------------------
# worker crashes
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_transient_crash_recovers_and_resume_executes_nothing(
            self, tmp_path):
        """A worker os._exit-ing mid-grid loses no completed job: the
        crashed job is retried on a fresh pool, everything persists, and a
        second invocation reuses the entire grid."""
        marker = str(tmp_path / "crashed-once")
        spec = ExperimentSpec(
            name="chaos-resume",
            scenarios=(_good("healthy-a", rate=0.02),
                       _good("healthy-b", rate=0.03),
                       _scenario("crash-once", CrashOnceWorkload(marker)),
                       _good("healthy-c", rate=0.04)),
            seeds=(7,))
        store = str(tmp_path / "results")
        result = run_experiment(spec, store=store, policy=_POLICY,
                                workers=2)
        assert os.path.exists(marker), "the crashing attempt must have run"
        assert result.num_failed == 0
        assert result.num_executed == 4

        resumed = run_experiment(spec, store=store, policy=_POLICY,
                                 workers=2)
        assert resumed.num_executed == 0
        assert resumed.num_reused == 4

    def test_persistent_crasher_is_quarantined_not_fatal(self, tmp_path):
        spec = ExperimentSpec(
            name="poison-pill",
            scenarios=(_good("healthy-a", rate=0.02),
                       _scenario("pill", CrashAlwaysWorkload()),
                       _good("healthy-b", rate=0.03)),
            seeds=(7,))
        store = str(tmp_path / "results")
        result = run_experiment(spec, store=store, policy=_POLICY,
                                workers=2)
        assert result.num_executed == 2
        assert result.num_failed == 1
        (row,) = result.failure_rows()
        assert row["scenario"] == "pill"
        assert row["error_kind"] == "WorkerCrash"
        record = ShardedResultStore(store).get(row["job_hash"])
        assert record is not None and is_failure_record(record)


# ----------------------------------------------------------------------
# process_map drains completed results before surfacing a job error
# ----------------------------------------------------------------------
def _double_or_boom(value):
    if value == 3:
        raise ValueError("boom on 3")
    return value * 2


class TestProcessMapDrain:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_completed_results_persist_past_a_job_error(self, workers):
        jobs = list(range(6))
        persisted = {}
        with pytest.raises(ValueError, match="boom on 3"):
            process_map(_double_or_boom, jobs, workers=workers,
                        on_result=lambda i, r: persisted.setdefault(i, r))
        if workers == 1:
            # the serial path stops at the error: everything before it is in
            assert persisted == {0: 0, 1: 2, 2: 4}
        else:
            # the pool path drains the whole batch before raising
            assert persisted == {0: 0, 1: 2, 2: 4, 4: 8, 5: 10}

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_worker_counts_are_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be positive"):
            process_map(_double_or_boom, [1, 2], workers=workers)
        with pytest.raises(ValueError, match="workers must be positive"):
            resilient_map(_double_or_boom, [1, 2], policy=FaultPolicy(),
                          workers=workers)


# ----------------------------------------------------------------------
# store recovery properties
# ----------------------------------------------------------------------
def _fill(store_dir, count):
    """A legacy flat root holding *count* records; returns its file."""
    path = store_dir / "records.jsonl"
    path.write_bytes(b"".join(
        json.dumps({"job_hash": f"hash-{i}", "value": i}, sort_keys=True,
                   separators=(",", ":")).encode("utf-8") + b"\n"
        for i in range(count)))
    return path


class TestStoreRecovery:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(count=st.integers(min_value=2, max_value=6),
           cut=st.integers(min_value=1, max_value=12))
    def test_truncated_tail_loses_at_most_the_last_record(
            self, tmp_path_factory, count, cut):
        root = tmp_path_factory.mktemp("store")
        path = _fill(root, count)
        raw = path.read_bytes()
        last_line = raw.rstrip(b"\n").rsplit(b"\n", 1)[-1] + b"\n"
        cut = min(cut, len(last_line) - 1)
        path.write_bytes(raw[:len(raw) - cut])

        fresh = ShardedResultStore(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh.load()
        hashes = set(fresh.hashes())
        assert {f"hash-{i}" for i in range(count - 1)} <= hashes
        assert len(hashes) >= count - 1

        # appending after recovery yields a fully valid file again
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh.put({"job_hash": "hash-new", "value": -1})
        reread = ShardedResultStore(root)
        reread.load()
        assert "hash-new" in reread.hashes()
        shard_files = list(reread.path.glob("*/records.jsonl"))
        assert shard_files
        for shard_file in shard_files:
            for line in shard_file.read_bytes().strip().split(b"\n"):
                json.loads(line)  # every line parses

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(count=st.integers(min_value=2, max_value=6),
           victim=st.integers(min_value=0, max_value=5),
           garbage=st.sampled_from([b"{not json", b"\x00\xffbinary",
                                    b'{"job_hash": 1']))
    def test_corrupt_line_loses_only_that_record(self, tmp_path_factory,
                                                 count, victim, garbage):
        victim = victim % count
        root = tmp_path_factory.mktemp("store")
        path = _fill(root, count)
        lines = path.read_bytes().strip().split(b"\n")
        lines[victim] = garbage
        path.write_bytes(b"\n".join(lines) + b"\n")

        fresh = ShardedResultStore(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fresh.load()
        expected = {f"hash-{i}" for i in range(count) if i != victim}
        assert set(fresh.hashes()) == expected
