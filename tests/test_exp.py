"""Unit tests for the repro.exp building blocks: hashing, specs, planning,
RunRecord round-trips and the JSONL result store."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.exp.hashing import canonical, canonical_json, stable_hash
from repro.exp.plan import build_plan
from repro.exp.records import RECORD_SCHEMA, decode_result, encode_record
from repro.exp.spec import ExperimentSpec, SweepAxis
from repro.sim import ResourceConstraints, get_scenario
from repro.sim.engine import SWEEPABLE_PARAMETERS
from repro.svc.store import DEFAULT_SHARD_WIDTH, ShardedResultStore


class TestHashing:
    def test_canonical_dataclasses_and_scalars(self):
        constraints = ResourceConstraints(buffer_capacity=4.0)
        payload = canonical(constraints)
        # registered specs are tagged by category:kind (stable across
        # module refactors); plain dataclasses keep their module path
        assert payload["__type__"] == "spec:constraints:resource"
        assert payload["buffer_capacity"] == 4.0
        from repro.sim.engine import ResourceStats
        assert canonical(ResourceStats())["__type__"].endswith("ResourceStats")
        assert canonical((1, "a", None, True)) == [1, "a", None, True]
        assert canonical({"b": 2, "a": 1}) == {"a": 1, "b": 2}

    def test_canonical_json_is_deterministic(self):
        a = canonical_json({"x": [1.5, None], "y": "z"})
        b = canonical_json({"y": "z", "x": [1.5, None]})
        assert a == b

    def test_stable_hash_distinguishes_content(self):
        base = ResourceConstraints(ttl=900.0)
        assert stable_hash(base) == stable_hash(ResourceConstraints(ttl=900.0))
        assert stable_hash(base) != stable_hash(ResourceConstraints(ttl=901.0))

    def test_unserializable_values_are_refused(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical(object())
        # code has no capturable content: two lambdas must never collide
        with pytest.raises(TypeError, match="data, not code"):
            canonical(lambda m: m)

    def test_plain_objects_hash_their_full_state(self):
        """Underscore attrs and __slots__ carry behavioral state in plain
        classes; both must reach the hash or distinct objects collide."""
        class Hidden:
            def __init__(self, n):
                self._n = n

        class Slotted:
            __slots__ = ("n",)

            def __init__(self, n):
                self.n = n

        assert stable_hash(Hidden(1)) != stable_hash(Hidden(2))
        assert stable_hash(Slotted(1)) != stable_hash(Slotted(2))
        assert stable_hash(Slotted(1)) == stable_hash(Slotted(1))

    def test_numpy_arrays_and_scalars_canonicalize(self):
        import numpy as np

        assert canonical(np.float64(2.5)) == 2.5
        assert canonical(np.int64(3)) == 3
        assert canonical(np.array([1.0, 2.0, 3.0])) == [1, 2, 3]


class TestExperimentSpec:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            name="study", scenarios=("paper-ideal", "rwp-courtyard"),
            protocols=("Epidemic", "Direct Delivery"), seeds=(7, 8),
            num_runs=2, constraints=ResourceConstraints(ttl=900.0),
            sweep=SweepAxis("buffer_capacity", (2.0, None)))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_engine_field_is_accepted_on_load_only(self, recwarn):
        payload = {"name": "old", "scenarios": ["paper-ideal"]}
        vector = ExperimentSpec.from_dict({**payload, "engine": "vector"})
        assert not recwarn.list
        for legacy in ("des", "trace"):
            with pytest.warns(UserWarning, match="ignored") as caught:
                spec = ExperimentSpec.from_dict({**payload, "engine": legacy})
            assert len(caught) == 1
            assert spec == vector
            assert "engine" not in spec.to_dict()
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentSpec.from_dict({**payload, "engine": "quantum"})

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        payload = {"name": "fromfile", "scenarios": ["paper-ttl-tight"],
                   "seeds": [3], "sweep": {"parameter": "bandwidth",
                                           "values": [2, None]}}
        path.write_text(json.dumps(payload))
        spec = ExperimentSpec.from_json_file(path)
        assert spec.name == "fromfile"
        assert spec.sweep.values == (2.0, None)

    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            ExperimentSpec(name="", scenarios=("paper-ideal",))
        with pytest.raises(ValueError, match="scenario"):
            ExperimentSpec(name="x", scenarios=())
        with pytest.raises(ValueError, match="engine"):
            ExperimentSpec(name="x", scenarios=("paper-ideal",),
                           engine="quantum")
        with pytest.raises(ValueError, match="cannot sweep"):
            SweepAxis("warp_factor", (1.0,))
        with pytest.raises(ValueError, match="seeds must be integers"):
            ExperimentSpec(name="x", scenarios=("paper-ideal",),
                           seeds=(7.5,))
        with pytest.raises(ValueError, match="unknown experiment spec field"):
            ExperimentSpec.from_dict({"name": "x", "scenarios": ["paper-ideal"],
                                      "typo_field": 1})
        with pytest.raises(ValueError, match="'sweep' must be an object"):
            ExperimentSpec.from_dict({"name": "x",
                                      "scenarios": ["paper-ideal"],
                                      "sweep": ["buffer_capacity", [2, 4]]})
        with pytest.raises(ValueError, match="'constraints' must be"):
            ExperimentSpec.from_dict({"name": "x",
                                      "scenarios": ["paper-ideal"],
                                      "constraints": 5})

    def test_sweepable_parameters_reexported_from_engine(self):
        assert SWEEPABLE_PARAMETERS == ("buffer_capacity", "bandwidth",
                                        "ttl", "message_size")


class TestPlanner:
    def test_grid_size_and_order(self):
        spec = ExperimentSpec(
            name="grid", scenarios=("paper-ttl-tight",),
            protocols=("Epidemic", "Direct Delivery"), seeds=(7, 8),
            num_runs=2, sweep=SweepAxis("buffer_capacity", (4.0, None)))
        plan = build_plan(spec)
        # values x seeds x runs x protocols
        assert len(plan) == 2 * 2 * 2 * 2
        first = plan.jobs[0]
        assert (first.sweep_value, first.seed, first.run_index,
                first.protocol) == (4.0, 7, 0, "Epidemic")
        # protocol varies fastest, then run, then seed, then sweep value
        assert plan.jobs[1].protocol == "Direct Delivery"
        assert plan.jobs[2].run_index == 1
        assert plan.jobs[4].seed == 8
        assert plan.jobs[8].sweep_value is None

    def test_job_hashes_are_content_addressed(self):
        spec = ExperimentSpec(name="a", scenarios=("paper-ideal",),
                              protocols=("Epidemic",), seeds=(7,))
        renamed = spec.with_overrides(name="b")
        assert build_plan(spec).job_hashes() == build_plan(renamed).job_hashes()
        reseeded = spec.with_overrides(seeds=(8,))
        assert build_plan(spec).job_hashes() != \
            build_plan(reseeded).job_hashes()

    def test_extending_the_grid_preserves_existing_hashes(self):
        small = ExperimentSpec(name="x", scenarios=("paper-ideal",),
                               protocols=("Epidemic",), seeds=(7,))
        grown = small.with_overrides(seeds=(7, 8),
                                     protocols=("Epidemic", "Direct Delivery"))
        small_hashes = set(build_plan(small).job_hashes())
        grown_hashes = set(build_plan(grown).job_hashes())
        assert small_hashes < grown_hashes
        assert len(grown_hashes) == 4

    def test_duplicate_grid_axes_are_deduplicated(self):
        """Repeated scenarios / seeds / sweep values / alias protocols plan
        one job, so no reassembly layer double-pools a result."""
        duplicated = ExperimentSpec(
            name="x", scenarios=("paper-ideal", "paper-ideal"),
            protocols=("Epidemic", "epidemic"), seeds=(7, 7),
            sweep=SweepAxis("buffer_capacity", (4.0, 4.0)))
        clean = ExperimentSpec(
            name="x", scenarios=("paper-ideal",), protocols=("Epidemic",),
            seeds=(7,), sweep=SweepAxis("buffer_capacity", (4.0,)))
        assert build_plan(duplicated).job_hashes() == \
            build_plan(clean).job_hashes()
        inline = get_scenario("paper-ideal")
        assert build_plan(ExperimentSpec(
            name="x", scenarios=(inline, inline), protocols=("Epidemic",),
            seeds=(7,))).job_hashes() == \
            build_plan(ExperimentSpec(
                name="x", scenarios=(inline,), protocols=("Epidemic",),
                seeds=(7,))).job_hashes()

    def test_int_and_float_constraint_values_hash_identically(self):
        """JSON specs write 1800 where code writes 1800.0; equal specs must
        share storage keys or resume silently re-runs everything."""
        as_int = ExperimentSpec(name="x", scenarios=("paper-ideal",),
                                protocols=("Epidemic",), seeds=(7,),
                                constraints=ResourceConstraints(ttl=1800))
        as_float = as_int.with_overrides(
            constraints=ResourceConstraints(ttl=1800.0))
        assert as_int == as_float
        assert build_plan(as_int).job_hashes() == \
            build_plan(as_float).job_hashes()

    def test_ttl_sweep_on_ttl_stamping_workload_is_refused(self):
        """The exp front door refuses the same silent no-op sweep the
        sweep_scenario adapter refuses."""
        from repro.forwarding import PoissonMessageWorkload

        stamped = get_scenario("paper-ideal").with_overrides(
            name="stamped", workload=PoissonMessageWorkload(rate=0.01,
                                                            ttl=600.0))
        spec = ExperimentSpec(name="x", scenarios=(stamped,),
                              protocols=("Epidemic",),
                              sweep=SweepAxis("ttl", (300.0, None)))
        with pytest.raises(ValueError, match="per-message ttl"):
            build_plan(spec)

    def test_alias_protocols_hash_identically(self):
        canonical_spec = ExperimentSpec(name="x", scenarios=("paper-ideal",),
                                        protocols=("PRoPHET",), seeds=(7,))
        aliased = canonical_spec.with_overrides(protocols=("prophet",))
        assert build_plan(canonical_spec).job_hashes() == \
            build_plan(aliased).job_hashes()
        # alias spellings inside a scenario's own algorithms tuple too
        scenario = get_scenario("paper-ideal").with_overrides(
            algorithms=("binary-spray-and-wait",))
        display = scenario.with_overrides(
            algorithms=("Binary Spray-and-Wait",))
        assert build_plan(ExperimentSpec(
            name="x", scenarios=(scenario,), seeds=(7,))).job_hashes() == \
            build_plan(ExperimentSpec(
                name="x", scenarios=(display,), seeds=(7,))).job_hashes()

    def test_dataset_trace_key_is_seed_independent(self):
        """Dataset stand-ins pin their own registry seed, so one worker-cache
        entry serves every master seed; seeded traces key per seed."""
        spec = ExperimentSpec(name="x", scenarios=("paper-ideal",),
                              protocols=("Epidemic",), seeds=(7, 8))
        plan = build_plan(spec)
        assert plan.jobs[0].trace_key == plan.jobs[1].trace_key
        rwp = ExperimentSpec(name="x", scenarios=("rwp-courtyard",),
                             protocols=("Epidemic",), seeds=(7, 8))
        rwp_plan = build_plan(rwp)
        assert rwp_plan.jobs[0].trace_key != rwp_plan.jobs[1].trace_key

    def test_legacy_trace_engine_plans_constrained_points_as_vector(self):
        # a spec file from when 'trace' was selectable loads with one
        # warning and plans the same (constrained) jobs as a spec without
        # the field: every job runs on the vector kernel
        with pytest.warns(UserWarning, match="ignored") as caught:
            legacy = ExperimentSpec(name="x",
                                    scenarios=("paper-buffer-crunch",),
                                    engine="trace")
        assert len(caught) == 1
        current = ExperimentSpec(name="x", scenarios=("paper-buffer-crunch",))
        assert legacy == current
        assert build_plan(legacy).job_hashes() == \
            build_plan(current).job_hashes()

    def test_vector_job_hashes_keep_their_store_keys(self):
        # keys written when the kernel was a per-spec choice stay valid
        # for engine="vector" runs: literal hashes from that build
        spec = ExperimentSpec(
            name="pin", scenarios=("paper-ideal", "rwp-courtyard"),
            protocols=("Epidemic", "PRoPHET"), seeds=(7,), engine="vector")
        expected = ["7632085ebdad27f0", "3c6c4ebc59937d2e",
                    "10bebd05a2fc3b78", "231a080f6a59ecd8"]
        assert build_plan(spec).job_hashes() == expected
        unnamed = ExperimentSpec(
            name="pin", scenarios=("paper-ideal", "rwp-courtyard"),
            protocols=("Epidemic", "PRoPHET"), seeds=(7,))
        assert build_plan(unnamed).job_hashes() == expected

    def test_unknown_names_fail_before_any_simulation(self):
        # eagerly, at spec construction — not at plan or run time
        with pytest.raises(KeyError, match="unknown scenario"):
            ExperimentSpec(name="x", scenarios=("nope",))
        with pytest.raises(ValueError, match="valid protocols"):
            ExperimentSpec(name="x", scenarios=("paper-ideal",),
                           protocols=("Telepathy",))


def _one_result():
    """One real simulated job + its result, for record round-trips."""
    from repro.exp.orchestrator import execute_plan

    plan = build_plan(ExperimentSpec(
        name="roundtrip", scenarios=("paper-ttl-tight",),
        protocols=("Epidemic",), seeds=(7,)))
    outcome = execute_plan(plan)
    job = plan.jobs[0]
    return job, outcome.result_for(job)


class TestRunRecords:
    def test_encode_decode_round_trip_is_lossless(self):
        job, result = _one_result()
        record = encode_record(job, result, experiment="roundtrip")
        # through JSON, as the store would do it
        decoded = decode_result(json.loads(json.dumps(record)))
        assert decoded == result
        assert decoded.stats == result.stats
        assert decoded.constraints == result.constraints
        assert [o.message for o in decoded.outcomes] == \
            [o.message for o in result.outcomes]

    def test_record_carries_grid_labels(self):
        job, result = _one_result()
        record = encode_record(job, result, experiment="roundtrip")
        assert record["schema"] == RECORD_SCHEMA
        assert record["job_hash"] == job.job_hash
        assert record["scenario"] == "paper-ttl-tight"
        assert record["protocol"] == "Epidemic"
        assert record["seed"] == 7
        assert record["engine"] == "vector"
        assert record["sweep"] is None

    def test_unknown_schema_is_refused(self):
        job, result = _one_result()
        record = encode_record(job, result)
        record["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            decode_result(record)


def _canonical_line(record) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def _shard_records(store, job_hash):
    """The records file of the shard *job_hash* lands in."""
    return store.path / job_hash[:DEFAULT_SHARD_WIDTH] / "records.jsonl"


class TestResultStore:
    """The one result store's put/get contract and crash tolerance.  The
    flat-file cases now arrive as legacy roots, read by the migration."""

    def test_put_get_contains_len(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        job, result = _one_result()
        record = encode_record(job, result, experiment="t")
        assert job.job_hash not in store
        store.put(record)
        assert job.job_hash in store
        assert len(store) == 1
        assert store.get(job.job_hash) == record

    def test_persistence_across_instances(self, tmp_path):
        root = tmp_path / "results"
        job, result = _one_result()
        ShardedResultStore(root).put(encode_record(job, result))
        reopened = ShardedResultStore(root)
        assert decode_result(reopened.get(job.job_hash)) == result

    def test_last_write_wins_on_duplicate_hash(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        job, result = _one_result()
        first = encode_record(job, result, experiment="first")
        second = encode_record(job, result, experiment="second")
        store.put(first)
        store.put(second)
        assert len(store) == 1
        assert ShardedResultStore(store.root).get(
            job.job_hash)["experiment"] == "second"

    def test_rejects_records_without_hash(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        with pytest.raises(ValueError, match="job_hash"):
            store.put({"schema": RECORD_SCHEMA})

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        """A kill mid-append leaves a partial last line in a flat root;
        earlier records must survive its migration (the lost job simply
        re-runs on resume)."""
        root = tmp_path / "results"
        root.mkdir()
        (root / "records.jsonl").write_text(
            '{"job_hash": "a"}\n{"job_hash": "b", "trunc')
        store = ShardedResultStore(root)
        with pytest.warns(UserWarning, match="truncated final record"):
            store.load()
        assert store.hashes() == ["a"]

    def test_append_after_truncated_tail_starts_a_fresh_line(self, tmp_path):
        """Resuming over a flat root with a truncated tail must not glue
        the new record onto the partial line: new records land in the
        shards, and every later open reads them back cleanly."""
        root = tmp_path / "results"
        root.mkdir()
        job, result = _one_result()
        (root / "records.jsonl").write_bytes(
            _canonical_line(encode_record(job, result, experiment="a"))
            + b'{"job_hash": "bb')
        reopened = ShardedResultStore(root)
        with pytest.warns(UserWarning, match="truncated final record"):
            reopened.load()
        reopened.put(encode_record(job, result, experiment="b"))
        reopened.put(encode_record(job, result, experiment="c"))
        # a fresh instance re-reads the store from scratch without complaint
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = ShardedResultStore(root)
            assert final.get(job.job_hash)["experiment"] == "c"
            assert len(final) == 1

    def test_complete_final_record_without_newline_is_not_glued(self, tmp_path):
        """A kill between the record write and the newline write leaves a
        complete last line with no newline; the next append to that shard
        must start a fresh line, not glue onto it."""
        root = tmp_path / "results"
        job, result = _one_result()
        store = ShardedResultStore(root)
        store.put(encode_record(job, result, experiment="a"))
        path = _shard_records(store, job.job_hash)
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-1])  # drop only the trailing newline
        reopened = ShardedResultStore(root)
        reopened.load()
        record = dict(encode_record(job, result, experiment="b"))
        record["job_hash"] = job.job_hash[:DEFAULT_SHARD_WIDTH] + "-second-job"
        reopened.put(record)
        assert _shard_records(reopened, record["job_hash"]) == path
        final = ShardedResultStore(root)
        assert len(final) == 2
        assert final.get(job.job_hash)["experiment"] == "a"
        assert final.get(record["job_hash"])["experiment"] == "b"

    def test_put_never_discards_another_writers_appends(self, tmp_path):
        """A clean store that merely grew under a second writer must keep
        that writer's records when this instance appends."""
        root = tmp_path / "results"
        job, result = _one_result()
        reader = ShardedResultStore(root)
        reader.load()  # indexes an empty (non-existent) store
        writer = ShardedResultStore(root)
        writer.put(encode_record(job, result, experiment="other-process"))
        record = dict(encode_record(job, result, experiment="mine"))
        record["job_hash"] = job.job_hash[:DEFAULT_SHARD_WIDTH] + "-other"
        reader.put(record)
        final = ShardedResultStore(root)
        assert len(final) == 2
        assert final.get(job.job_hash)["experiment"] == "other-process"

    def test_corrupt_interior_lines_warn_and_are_skipped(self, tmp_path):
        """Records are independent content-addressed lines: one damaged
        line in a flat root costs one re-run, not the whole store."""
        root = tmp_path / "results"
        root.mkdir()
        (root / "records.jsonl").write_text(
            '{"job_hash": "a"}\nnot json\n{"job_hash": "b"}\n')
        store = ShardedResultStore(root)
        with pytest.warns(UserWarning, match="skipping corrupt record"):
            store.load()
        assert sorted(store.hashes()) == ["a", "b"]

    def test_concurrent_writers_partial_line_does_not_glue(self, tmp_path):
        """If another process crashed mid-append after this instance
        loaded, put() must still start its record on a fresh line."""
        root = tmp_path / "results"
        job, result = _one_result()
        store = ShardedResultStore(root)
        store.load()  # clean (empty) view
        # another writer crashes mid-append to the same shard after our load
        path = _shard_records(store, job.job_hash)
        path.parent.mkdir(parents=True)
        path.write_text('{"job_hash": "partial-cr')
        store.put(encode_record(job, result, experiment="after-crash"))
        # rebuild the index from the records file alone: a glued line
        # would lose the record, a fresh one only skips the partial line
        path.with_name("index.jsonl").unlink()
        final = ShardedResultStore(root)
        with pytest.warns(UserWarning, match="skipping corrupt record"):
            final.load()
        assert final.get(job.job_hash)["experiment"] == "after-crash"
