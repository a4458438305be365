"""End-to-end tests for the orchestration layer: resumable runs, incremental
grid extension, serial/parallel determinism (including through the three
legacy entrypoints) and the ``python -m repro exp`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.exp.orchestrator import (
    execute_plan,
    experiment_status,
    run_experiment,
)
from repro.exp.plan import build_plan
from repro.exp.records import decode_result
from repro.exp.spec import ExperimentSpec, SweepAxis
from repro.routing.tournament import run_tournament
from repro.sim.cli import main
from repro.sim.runner import run_scenario, sweep_scenario
from repro.svc.store import ShardedResultStore

SMALL_SPEC = ExperimentSpec(
    name="small", scenarios=("paper-ttl-tight",),
    protocols=("Epidemic", "Direct Delivery"), seeds=(7,), num_runs=1)


class TestResume:
    def test_rerunning_a_completed_spec_executes_zero_jobs(self, tmp_path):
        store = tmp_path / "results"
        first = run_experiment(SMALL_SPEC, store=store)
        assert first.num_executed == len(first.plan) == 2
        again = run_experiment(SMALL_SPEC, store=store)
        assert again.num_executed == 0
        assert again.num_reused == 2
        assert again.table_rows() == first.table_rows()

    def test_extending_the_grid_runs_only_the_delta(self, tmp_path):
        store = tmp_path / "results"
        run_experiment(SMALL_SPEC, store=store)
        grown = SMALL_SPEC.with_overrides(
            seeds=(7, 8),
            protocols=("Epidemic", "Direct Delivery", "First Contact"))
        extended = run_experiment(grown, store=store)
        assert len(extended.plan) == 6
        assert extended.num_reused == 2     # the original seed-7 pair
        assert extended.num_executed == 4   # new seed + new protocol cells

    def test_renaming_the_experiment_reuses_the_store(self, tmp_path):
        store = tmp_path / "results"
        run_experiment(SMALL_SPEC, store=store)
        renamed = SMALL_SPEC.with_overrides(name="same-content-new-name")
        assert run_experiment(renamed, store=store).num_executed == 0

    def test_fresh_run_ignores_but_rewrites_the_store(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        run_experiment(SMALL_SPEC, store=store)
        fresh = run_experiment(SMALL_SPEC, store=store, resume=False)
        assert fresh.num_executed == 2
        assert fresh.num_reused == 0
        # last write wins, no dupes
        assert len(ShardedResultStore(store.root)) == 2

    def test_reused_records_decode_to_the_simulated_results(self, tmp_path):
        store = tmp_path / "results"
        first = run_experiment(SMALL_SPEC, store=store)
        again = run_experiment(SMALL_SPEC, store=store)
        for job in first.plan.jobs:
            assert again.result_for(job) == first.result_for(job)

    def test_interrupted_run_keeps_completed_records(self, tmp_path, monkeypatch):
        """Records persist as each job finishes, so a crash mid-run loses
        only the in-flight job and resume re-executes just the tail."""
        import repro.exp.orchestrator as orchestrator

        store = ShardedResultStore(tmp_path / "results")
        real_run = orchestrator._run_exp_job
        calls = {"n": 0}

        def explode_on_second(payload):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real_run(payload)

        monkeypatch.setattr(orchestrator, "_run_exp_job", explode_on_second)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(SMALL_SPEC, store=store)
        assert len(ShardedResultStore(store.root)) == 1  # first job survived
        monkeypatch.setattr(orchestrator, "_run_exp_job", real_run)
        resumed = run_experiment(SMALL_SPEC, store=store)
        assert resumed.num_executed == 1
        assert resumed.num_reused == 1

    def test_duplicate_seeds_do_not_double_pool_tournament_cells(self):
        doubled = run_tournament(protocols=("Epidemic",),
                                 scenarios=("paper-ideal",), seeds=(7, 7))
        single = run_tournament(protocols=("Epidemic",),
                                scenarios=("paper-ideal",), seeds=(7,))
        assert doubled.cells[("Epidemic", "paper-ideal", 7)].num_messages == \
            single.cells[("Epidemic", "paper-ideal", 7)].num_messages

    def test_undecodable_stored_record_warns_and_reruns(self, tmp_path):
        """A record this build cannot decode (e.g. a future schema, or a
        store merged from another version) must warn and re-run that job,
        not fail the whole resumed run."""
        store = ShardedResultStore(tmp_path / "results")
        run_experiment(SMALL_SPEC, store=store)
        records = list(ShardedResultStore(store.root).records())
        store.put(dict(records[0], schema=999))  # last write wins
        reopened = ShardedResultStore(store.root)
        with pytest.warns(UserWarning, match="not decodable"):
            healed = run_experiment(SMALL_SPEC, store=reopened)
        assert healed.num_executed == 1
        assert healed.num_reused == 1
        # the fresh record overwrote the stale one: next run reuses fully
        rerun = run_experiment(SMALL_SPEC,
                               store=ShardedResultStore(store.root))
        assert rerun.num_executed == 0

    def test_status_agrees_with_run_on_undecodable_records(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        run_experiment(SMALL_SPEC, store=store)
        records = list(ShardedResultStore(store.root).records())
        store.put(dict(records[0], schema=999))  # last write wins
        status = experiment_status(SMALL_SPEC,
                                   store=ShardedResultStore(store.root))
        assert (status["done"], status["pending"]) == (1, 1)

    def test_status_reports_done_and_pending(self, tmp_path):
        store = tmp_path / "results"
        before = experiment_status(SMALL_SPEC, store=store)
        assert (before["done"], before["pending"]) == (0, 2)
        run_experiment(SMALL_SPEC, store=store)
        after = experiment_status(SMALL_SPEC, store=store)
        assert (after["done"], after["pending"]) == (2, 0)
        assert after["scenarios"]["paper-ttl-tight"]["done"] == 2


class TestDeterminism:
    def test_serial_and_parallel_store_byte_identical_records(self, tmp_path):
        """One spec covering all three legacy grid shapes — multi-scenario,
        multi-protocol, multi-seed, swept constraints, multiple runs — run
        both ways must persist byte-identical JSONL stores."""
        spec = ExperimentSpec(
            name="determinism",
            scenarios=("paper-ttl-tight", "rwp-courtyard-lossy"),
            protocols=("Epidemic", "Binary Spray-and-Wait"),
            seeds=(7, 8), num_runs=2,
            sweep=SweepAxis("buffer_capacity", (4.0, None)))
        serial_store = ShardedResultStore(tmp_path / "serial")
        parallel_store = ShardedResultStore(tmp_path / "parallel")
        serial = run_experiment(spec, store=serial_store)
        parallel = run_experiment(spec, store=parallel_store,
                                  workers=2)
        assert serial.num_executed == parallel.num_executed == 32

        def shard_files(store):
            return {path.relative_to(store.root): path.read_bytes()
                    for path in sorted(store.path.glob("*/*.jsonl"))}

        serial_files = shard_files(serial_store)
        assert serial_files and serial_files == shard_files(parallel_store)

    def test_trace_cache_does_not_change_results(self):
        plan = build_plan(SMALL_SPEC)
        cached = execute_plan(plan, trace_cache=True)
        naive = execute_plan(plan, trace_cache=False)
        for job in plan.jobs:
            assert cached.result_for(job) == naive.result_for(job)

    def test_trace_engine_matches_des_when_unconstrained(self):
        """An unconstrained experiment job (vector kernel) equals both the
        trace-driven oracle and the DES engine run directly."""
        from oracles.trace_engine import TraceEngine
        from repro.routing.registry import protocol_by_name
        from repro.sim import DesSimulator

        result = run_experiment(ExperimentSpec(
            name="ideal", scenarios=("paper-ideal",),
            protocols=("Epidemic",), seeds=(7,)))
        job = result.plan.jobs[0]
        got = result.result_for(job)
        trace = job.scenario.build_trace()
        messages = job.scenario.build_messages(trace, job.run_index)
        ideal = TraceEngine(
            trace, protocol_by_name("Epidemic"),
            copy_semantics=job.scenario.copy_semantics).run(messages)
        des = DesSimulator(trace, protocol_by_name("Epidemic"),
                           constraints=job.scenario.constraints,
                           copy_semantics=job.scenario.copy_semantics,
                           seed=job.scenario.seed).run(messages)
        assert got.outcomes == ideal.outcomes == des.outcomes
        assert got.copies_sent == ideal.copies_sent == des.copies_sent
        assert got.stats == des.stats

    def test_legacy_des_spec_runs_on_the_vector_kernel(self, tmp_path):
        payload = {"name": "old", "scenarios": ["paper-ideal"],
                   "protocols": ["Epidemic"], "seeds": [7], "engine": "des"}
        with pytest.warns(UserWarning, match="ignored") as caught:
            spec = ExperimentSpec.from_dict(payload)
        assert len(caught) == 1
        from repro.obs.telemetry import ObsConfig

        store = tmp_path / "results"
        result = run_experiment(spec, store=store, obs=ObsConfig(
            metrics_path=str(tmp_path / "metrics.json")))
        job = result.plan.jobs[0]
        assert result.result_for(job).telemetry["engine"] == "vector"
        assert ShardedResultStore(store).get(
            job.job_hash)["engine"] == "vector"


class _PlainWorkload:
    """A WorkloadSpec that is deliberately not a dataclass (the Protocol in
    sim.scenarios only requires a seeded ``generate``)."""

    def __init__(self, rate: float = 0.01) -> None:
        self.rate = rate

    def generate(self, trace, seed=None):
        from repro.forwarding import PoissonMessageWorkload

        return PoissonMessageWorkload(rate=self.rate).generate(trace, seed)


class _RngWorkload:
    """Workload with content-addressing-hostile state (an RNG object) —
    legal per the WorkloadSpec protocol and runnable pre-refactor."""

    def __init__(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(0)  # unhashable content

    def generate(self, trace, seed=None):
        from repro.forwarding import PoissonMessageWorkload

        return PoissonMessageWorkload(rate=0.01).generate(trace, seed)


def test_unhashable_workload_state_still_runs_with_warning(tmp_path):
    """Content that cannot be hashed (RNGs, callables) must not break
    storeless runs — it runs under one-off keys and is never store-reused."""
    from repro.sim.scenarios import get_scenario

    scenario = get_scenario("paper-ideal").with_overrides(
        name="rng-workload", workload=_RngWorkload(),
        algorithms=("Epidemic",))
    with pytest.warns(UserWarning, match="unhashable"):
        result = run_scenario(scenario)
    assert result.num_messages > 0
    # through the store: jobs run every time, nothing is wrongly reused
    spec = ExperimentSpec(name="rng", scenarios=(scenario,))
    store = ShardedResultStore(tmp_path / "results")
    with pytest.warns(UserWarning, match="unhashable"):
        first = run_experiment(spec, store=store)
    with pytest.warns(UserWarning, match="unhashable"):
        second = run_experiment(spec, store=store)
    assert first.num_executed == second.num_executed == 1
    assert second.num_reused == 0


def test_non_dataclass_workloads_still_run_and_hash():
    """run_scenario accepted any WorkloadSpec object before the exp refactor
    and must keep doing so (plain objects hash via their public attrs)."""
    from repro.sim.scenarios import get_scenario

    scenario = get_scenario("paper-ideal").with_overrides(
        name="plain-workload", workload=_PlainWorkload(),
        algorithms=("Epidemic",))
    result = run_scenario(scenario)
    assert result.num_messages > 0
    again = run_scenario(scenario)
    assert result.results == again.results


class TestLegacyEntrypointsThroughExp:
    """The three pre-exp pipelines, serial vs parallel, through the shared
    orchestrator — results must be identical object-for-object."""

    def test_run_scenario(self):
        serial = run_scenario("paper-ttl-tight", num_runs=2)
        parallel = run_scenario("paper-ttl-tight", num_runs=2,
                                workers=2)
        assert serial.results.keys() == parallel.results.keys()
        for name in serial.results:
            assert serial.results[name] == parallel.results[name]

    def test_sweep_scenario(self):
        serial = sweep_scenario("paper-buffer-crunch", "buffer_capacity",
                                [2.0, None])
        parallel = sweep_scenario("paper-buffer-crunch", "buffer_capacity",
                                  [2.0, None], workers=2)
        assert serial.table_rows() == parallel.table_rows()
        for value in serial.values:
            assert serial.by_value[value] == parallel.by_value[value]

    def test_run_tournament(self):
        kwargs = dict(protocols=("Epidemic", "Direct Delivery"),
                      scenarios=("paper-ttl-tight",), seeds=(7, 8))
        serial = run_tournament(**kwargs)
        parallel = run_tournament(workers=2, **kwargs)
        assert serial.cells == parallel.cells
        assert serial.leaderboard_rows() == parallel.leaderboard_rows()


class TestExpCli:
    def test_run_then_resume_reports_zero_executed(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-smoke", "scenarios": ["paper-ttl-tight"],
            "protocols": ["Epidemic"], "seeds": [7]}))
        assert main(["exp", "run", str(spec_path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "executed 1 jobs, reused 0" in out
        assert main(["exp", "resume", str(spec_path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "executed 0 jobs, reused 1" in out

    def test_status_command(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-status", "scenarios": ["paper-ttl-tight"],
            "protocols": ["Epidemic", "Direct Delivery"], "seeds": [7]}))
        assert main(["exp", "status", str(spec_path), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0/2 jobs done, 0 failed, 2 pending" in out

    def test_json_export_and_sweep_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        payload_path = tmp_path / "rows.json"
        spec_path.write_text(json.dumps({
            "name": "cli-sweep", "scenarios": ["paper-buffer-crunch"],
            "protocols": ["Epidemic"], "seeds": [7],
            "sweep": {"parameter": "buffer_capacity", "values": [4, None]}}))
        assert main(["exp", "run", str(spec_path), "--no-store",
                     "--json", str(payload_path)]) == 0
        payload = json.loads(payload_path.read_text())
        assert payload["executed"] == 2
        assert {row["buffer_capacity"] for row in payload["rows"]} == \
            {4.0, "inf"}

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_profile_times_plan_and_execute(self, tmp_path, command):
        """The CLI plans before running (to label spec errors); that
        build is still reported as the plan phase."""
        spec_path = tmp_path / "spec.json"
        metrics_path = tmp_path / "metrics.json"
        spec_path.write_text(json.dumps({
            "name": "cli-profile", "scenarios": ["paper-ttl-tight"],
            "protocols": ["Epidemic"], "seeds": [7]}))
        assert main(["exp", command, str(spec_path), "--no-store",
                     "--profile", "--metrics-json", str(metrics_path)]) == 0
        phases = json.loads(metrics_path.read_text())["phases"]
        assert set(phases) == {"plan", "execute"}
        assert phases["plan"] > 0

    def test_bad_spec_fails_fast(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"name": "bad", "scenarios": []}))
        with pytest.raises(SystemExit, match="invalid experiment spec"):
            main(["exp", "run", str(spec_path)])
        with pytest.raises(SystemExit, match="no such spec file"):
            main(["exp", "run", str(tmp_path / "missing.json")])
