"""Tests for the sharded result store (:mod:`repro.svc.store`):

  * index-line codec round-trips (hypothesis property over every field
    combination the store can persist);
  * legacy flat-root migration, in place on first load through every
    opener and into another directory via ``migrate_store``, against a
    brute-force fold of the flat file;
  * query-filter correctness against a brute-force scan of full record
    bodies on a generated store;
  * incrementally maintained leaderboard aggregates vs recomputation,
    ranked on exact success rates;
  * compaction drops superseded lines while pinning query results
    byte for byte;
  * crash recovery: lost/torn indexes self-heal from the records file
    (a torn index append rebuilds its shard once), torn record tails are
    ignored;
  * concurrent-writer safety: two processes appending to the same shard.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import ExperimentSpec, run_experiment
from repro.exp.records import RECORD_SCHEMA
from repro.exp.store import QUERY_FIELDS, aggregate_leaderboard, record_entry
from repro.obs import StatusTracker
from repro.sim.cli import main
from repro.svc.daemon import ExperimentDaemon
from repro.svc.store import (
    DEFAULT_SHARD_WIDTH,
    ShardedResultStore,
    create_store,
    decode_index_line,
    encode_index_line,
    migrate_store,
    open_store,
)


# ----------------------------------------------------------------------
# synthetic RunRecords (shaped so is_decodable/is_failure_record agree)
# ----------------------------------------------------------------------
def job_hash_for(index: int) -> str:
    return hashlib.sha256(f"job-{index}".encode()).hexdigest()


def make_record(job_hash, *, protocol="epidemic", scenario="scn-a", seed=0,
                experiment="study", run_index=0, status="ok",
                messages=3, delivered=2, copies=5):
    if status == "failed":
        return {"schema": RECORD_SCHEMA, "job_hash": job_hash,
                "status": "failed", "experiment": experiment,
                "scenario": scenario, "protocol": protocol, "seed": seed,
                "run_index": run_index, "error": "boom",
                "error_kind": "RuntimeError", "attempts": 1}
    outcomes = []
    for i in range(messages):
        done = i < delivered
        outcomes.append([i, 0, 1, 10.0, 1.0, 900.0, done,
                         10.0 + 60.0 * (i + 1) if done else None,
                         1 if done else 0])
    return {"schema": RECORD_SCHEMA, "job_hash": job_hash, "status": "ok",
            "experiment": experiment, "scenario": scenario,
            "protocol": protocol, "seed": seed, "run_index": run_index,
            "constraints": {},
            "result": {"algorithm": protocol, "trace_name": scenario,
                       "stats": {"copies_sent": copies},
                       "outcomes": outcomes}}


def generated_records():
    """A small mixed grid: 2 protocols x 2 scenarios x 5 seeds + failures."""
    records = []
    index = 0
    for protocol in ("epidemic", "spray"):
        for scenario in ("scn-a", "scn-b"):
            for seed in range(5):
                status = "failed" if (protocol == "spray" and seed == 4) \
                    else "ok"
                records.append(make_record(
                    job_hash_for(index), protocol=protocol,
                    scenario=scenario, seed=seed, status=status,
                    delivered=1 + seed % 3))
                index += 1
    return records


def canonical_line(record) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def write_flat_root(root: Path, records) -> Path:
    """A legacy flat root: one ``records.jsonl`` of canonical lines."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / "records.jsonl"
    path.write_bytes(b"".join(map(canonical_line, records)))
    return path


class FlatFold:
    """The brute-force answer to every store question: a fold of a flat
    ``records.jsonl`` read whole (last write per hash wins)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._records = {}
        for line in (root / "records.jsonl").read_bytes().splitlines():
            record = json.loads(line)
            self._records[record["job_hash"]] = record

    def __len__(self):
        return len(self._records)

    def hashes(self):
        return list(self._records)

    def get(self, job_hash):
        return self._records.get(job_hash)

    def records(self):
        return iter(self._records.values())

    def leaderboard(self):
        return aggregate_leaderboard(
            record_entry(record) for record in self._records.values())


@pytest.fixture
def flat_store(tmp_path):
    write_flat_root(tmp_path / "flat", generated_records())
    return FlatFold(tmp_path / "flat")


@pytest.fixture
def sharded_store(flat_store, tmp_path):
    migrate_store(flat_store.root, tmp_path / "sharded")
    return ShardedResultStore(tmp_path / "sharded")


# ----------------------------------------------------------------------
# index-line codec
# ----------------------------------------------------------------------
ENTRY_STRATEGY = st.fixed_dictionaries(
    {"job_hash": st.text("0123456789abcdef", min_size=8, max_size=64),
     "offset": st.integers(min_value=0, max_value=2 ** 40),
     "length": st.integers(min_value=1, max_value=2 ** 20),
     "status": st.sampled_from(["ok", "failed", "weird"]),
     "decodable": st.booleans(),
     "failed": st.booleans()},
    optional={
        "experiment": st.text(max_size=20),
        "scenario": st.text(max_size=20),
        "protocol": st.text(max_size=20),
        "seed": st.integers(-2 ** 31, 2 ** 31),
        "run_index": st.integers(0, 10_000),
        "error_kind": st.text(max_size=12),
        "error": st.text(max_size=40),
        "attempts": st.integers(1, 9),
        "messages": st.integers(0, 10 ** 6),
        "delivered": st.integers(0, 10 ** 6),
        "delay_sum": st.floats(allow_nan=False, allow_infinity=False),
        "copies": st.integers(0, 10 ** 6),
    })


class TestIndexCodec:
    @settings(max_examples=200, deadline=None)
    @given(entry=ENTRY_STRATEGY)
    def test_round_trip(self, entry):
        line = encode_index_line(entry)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert decode_index_line(line[:-1]) == entry

    def test_real_entries_round_trip(self):
        for record in generated_records():
            entry = record_entry(record)
            entry["offset"] = 123
            entry["length"] = 456
            assert decode_index_line(encode_index_line(entry)) == entry

    def test_damaged_lines_decode_to_none(self):
        assert decode_index_line(b"not json") is None
        assert decode_index_line(b"[1,2,3]") is None
        assert decode_index_line(b'{"o": 1}') is None  # no hash

    def test_unknown_fields_are_skipped_not_fatal(self):
        line = b'{"h": "abc", "o": 0, "l": 5, "zz": "future"}'
        entry = decode_index_line(line)
        assert entry["job_hash"] == "abc"
        assert "zz" not in entry
        # booleans default off when the compact line omits them
        assert entry["decodable"] is False and entry["failed"] is False


# ----------------------------------------------------------------------
# migration + layout detection
# ----------------------------------------------------------------------
class TestMigration:
    def test_migrates_every_surviving_record(self, flat_store, tmp_path):
        report = migrate_store(flat_store.root, tmp_path / "sharded")
        assert report["migrated"] == len(flat_store)
        store = ShardedResultStore(tmp_path / "sharded")
        assert len(store) == len(flat_store)
        for job_hash in flat_store.hashes():
            assert store.get(job_hash) == flat_store.get(job_hash)

    def test_open_store_auto_detects_layout(self, flat_store, tmp_path):
        migrate_store(flat_store.root, tmp_path / "sharded")
        assert isinstance(open_store(tmp_path / "sharded"),
                          ShardedResultStore)
        opened = open_store(flat_store.root)
        assert isinstance(opened, ShardedResultStore)
        assert (flat_store.root / "records.jsonl").exists()  # lazy
        with pytest.warns(UserWarning,
                          match=f"migrated {len(flat_store)} record"):
            assert len(opened) == len(flat_store)
        assert (flat_store.root / "records.jsonl.migrated").exists()
        assert not (flat_store.root / "records.jsonl").exists()

    def test_migrating_a_sharded_source_is_refused(self, sharded_store,
                                                   tmp_path):
        with pytest.raises(ValueError, match="already a sharded store"):
            migrate_store(sharded_store.root, tmp_path / "other")

    def test_create_store_migrates_an_existing_flat_root(self, flat_store,
                                                        tmp_path):
        store = create_store(flat_store.root)
        assert isinstance(store, ShardedResultStore)
        with pytest.warns(UserWarning, match="migrated"):
            assert sorted(store.hashes()) == sorted(flat_store.hashes())
        fresh = create_store(tmp_path / "brand-new", shard_width=3)
        assert isinstance(fresh, ShardedResultStore)
        meta = json.loads((tmp_path / "brand-new" / "store.json").read_text())
        assert meta["shard_width"] == 3
        assert (tmp_path / "brand-new" / "shards").is_dir()

    def test_shard_fanout_uses_hash_prefix(self, sharded_store):
        for job_hash in sharded_store.hashes():
            prefix = job_hash[:DEFAULT_SHARD_WIDTH]
            path = sharded_store.path / prefix / "records.jsonl"
            assert path.exists()
            raw = path.read_bytes()
            assert job_hash.encode() in raw


# ----------------------------------------------------------------------
# legacy flat roots migrate in place, once, through every opener
# ----------------------------------------------------------------------
LEGACY_SPEC = ExperimentSpec(
    name="legacy", scenarios=("paper-ttl-tight",),
    protocols=("Epidemic", "Direct Delivery"), seeds=(7,), num_runs=1)


@pytest.fixture(scope="module")
def legacy_records(tmp_path_factory):
    """The records of a real run of LEGACY_SPEC, as a flat root holds them."""
    root = tmp_path_factory.mktemp("legacy-source") / "store"
    run_experiment(LEGACY_SPEC, store=root)
    return list(ShardedResultStore(root).records())


def _run_experiment(root):
    assert run_experiment(LEGACY_SPEC, store=str(root)).num_executed == 0


def _track_status(root):
    status = StatusTracker(LEGACY_SPEC, store=str(root)).refresh()
    assert status["done"] == status["total_jobs"] == 2


def _run_daemon(root):
    async def scenario():
        daemon = ExperimentDaemon(root)
        await daemon.start(recover=False)
        await daemon.drain()

    asyncio.run(scenario())


OPENERS = {
    "open_store": lambda root: open_store(root).load(),
    "create_store": lambda root: create_store(root).load(),
    "run_experiment": _run_experiment,
    "StatusTracker": _track_status,
    "ExperimentDaemon": _run_daemon,
}


def _migrations(caught):
    return [w for w in caught if "migrated" in str(w.message)]


def assert_answers_like(store, fold):
    """*store* answers get / query_entries / query / leaderboard exactly
    as the brute-force fold of the flat file does."""
    assert sorted(store.hashes()) == sorted(fold.hashes())
    for job_hash in fold.hashes():
        assert store.get(job_hash) == fold.get(job_hash)
    assert [entry["job_hash"] for entry in store.query_entries()] == \
        sorted(fold.hashes())
    for record in fold.records():
        protocol = record["protocol"]
        assert {entry["job_hash"] for entry in
                store.query_entries(protocol=protocol)} == \
            brute_force(fold, protocol=protocol)
    assert store.leaderboard() == fold.leaderboard()


class TestLegacyRoots:
    @pytest.mark.parametrize("opener", sorted(OPENERS))
    def test_every_opener_migrates_once(self, opener, legacy_records,
                                        tmp_path):
        root = tmp_path / "legacy"
        flat = write_flat_root(root, legacy_records)
        original = flat.read_bytes()
        fold = FlatFold(root)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            OPENERS[opener](root)
        (migration,) = _migrations(caught)
        assert str(root) in str(migration.message)
        assert f"{len(legacy_records)} record" in str(migration.message)
        assert not flat.exists()
        assert (root / "records.jsonl.migrated").read_bytes() == original
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = open_store(root)
            assert_answers_like(reopened, fold)
        assert _migrations(caught) == []
        # the records moved byte for byte: each shard line is a flat line
        shard_lines = sorted(line for path in reopened.path.glob(
            "*/records.jsonl") for line in path.read_bytes().splitlines())
        assert shard_lines == sorted(original.splitlines())

    def test_duplicates_and_damage_fold_like_the_flat_loader(self,
                                                             tmp_path):
        records = generated_records()
        retried = dict(records[0], experiment="retried")
        flat = write_flat_root(tmp_path / "legacy", records + [retried])
        with open(flat, "ab") as handle:
            handle.write(b'{"job_hash": "torn')
        with pytest.warns(UserWarning, match="truncated final record"):
            store = open_store(tmp_path / "legacy")
            store.load()
        assert store.get(records[0]["job_hash"])["experiment"] == "retried"
        assert len(store) == len(records)

    def _crash_after(self, root, records, appended, later=()):
        """The state a migration killed after *appended* shard appends
        leaves (the flat file still in place, some records in shards),
        plus the *later* records a writer stored after the crash."""
        partial = root.parent / "partial"
        store = create_store(partial)
        store.put_many(records[:appended])
        store.put_many(later)
        (partial / "shards").rename(root / "shards")
        (partial / "store.json").rename(root / "store.json")

    def test_interrupted_migration_completes_on_next_open(self, flat_store):
        records = list(flat_store.records())
        self._crash_after(flat_store.root, records, 7)
        with pytest.warns(UserWarning, match=f"migrated {len(records)}"):
            store = open_store(flat_store.root)
            assert_answers_like(store, flat_store)
        # each record landed once: the resumed run skipped the first 7
        lines = [line for path in store.path.glob("*/records.jsonl")
                 for line in path.read_bytes().splitlines()]
        assert len(lines) == len(records)

    def test_newer_sharded_record_survives_a_resumed_migration(
            self, flat_store):
        records = list(flat_store.records())
        # after the crash, a writer stored newer results for one hash the
        # migration had appended and for one it had not reached yet
        newer = [dict(records[2], experiment="newer"),
                 dict(records[12], experiment="newer")]
        self._crash_after(flat_store.root, records, 7, later=newer)
        with pytest.warns(UserWarning, match="migrated"):
            store = open_store(flat_store.root)
            store.load()
        for record in newer:
            assert store.get(record["job_hash"])["experiment"] == "newer"
        assert len(store) == len(records)

    def test_a_migrator_that_loses_the_rename_race_stands_down(
            self, flat_store, monkeypatch):
        import repro.svc.store as store_module

        read = store_module._read_flat_records
        raced = []

        def read_then_race(path):
            records = read(path)
            if not raced:
                raced.append(True)
                open_store(flat_store.root).load()  # the rival commits
            return records

        monkeypatch.setattr(store_module, "_read_flat_records",
                            read_then_race)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = open_store(flat_store.root)
            assert_answers_like(store, flat_store)
        assert len(_migrations(caught)) == 1
        assert sorted(path.name for path in flat_store.root.iterdir()) == \
            ["records.jsonl.migrated", "shards", "store.json"]


# ----------------------------------------------------------------------
# query correctness vs brute force
# ----------------------------------------------------------------------
def _hashes(entries):
    return [entry["job_hash"] for entry in entries]


def brute_force(store, **filters):
    hashes = set()
    for record in store.records():
        if all(record.get(field) == value
               for field, value in filters.items() if value is not None):
            hashes.add(record["job_hash"])
    return hashes


class TestQueryCorrectness:
    def test_every_filter_combination_matches_brute_force(self,
                                                          sharded_store):
        values = {"scenario": (None, "scn-a", "scn-b", "missing"),
                  "protocol": (None, "epidemic", "spray"),
                  "seed": (None, 0, 4),
                  "status": (None, "ok", "failed")}
        for scenario in values["scenario"]:
            for protocol in values["protocol"]:
                for seed in values["seed"]:
                    for status in values["status"]:
                        filters = {"scenario": scenario,
                                   "protocol": protocol,
                                   "seed": seed, "status": status}
                        expected = brute_force(sharded_store, **filters)
                        got = {entry["job_hash"] for entry in
                               sharded_store.query_entries(**filters)}
                        assert got == expected, filters

    def test_entries_and_bodies_agree(self, sharded_store):
        entries = sharded_store.query_entries(protocol="epidemic")
        bodies = sharded_store.query(protocol="epidemic")
        assert [e["job_hash"] for e in entries] == \
            [r["job_hash"] for r in bodies]
        assert all(r["protocol"] == "epidemic" for r in bodies)

    def test_limit_and_deterministic_order(self, sharded_store):
        all_rows = sharded_store.query_entries()
        hashes = [entry["job_hash"] for entry in all_rows]
        assert hashes == sorted(hashes)
        assert sharded_store.query_entries(limit=3) == all_rows[:3]

    def test_experiment_filter(self, sharded_store):
        assert len(sharded_store.query_entries(experiment="study")) == \
            len(sharded_store)
        assert sharded_store.query_entries(experiment="nope") == []

    def test_query_fields_stay_in_sync_with_api(self):
        assert set(QUERY_FIELDS) == {"scenario", "protocol", "seed",
                                     "status", "experiment"}


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------
class TestLeaderboard:
    def test_matches_flat_store(self, flat_store, sharded_store):
        assert sharded_store.leaderboard() == flat_store.leaderboard()

    def test_supersede_folds_aggregates_incrementally(self, sharded_store):
        target = next(entry["job_hash"]
                      for entry in sharded_store.entries()
                      if entry["protocol"] == "epidemic"
                      and entry["decodable"])
        before = {row["protocol"]: row for row in
                  sharded_store.leaderboard()}
        # retry the job as a failure: it must leave the epidemic pool
        record = sharded_store.get(target)
        sharded_store.put(make_record(
            target, protocol=record["protocol"],
            scenario=record["scenario"], seed=record["seed"],
            status="failed"))
        after = {row["protocol"]: row for row in sharded_store.leaderboard()}
        assert after["epidemic"]["jobs"] == before["epidemic"]["jobs"] - 1
        assert after["spray"] == \
            {**before["spray"], "rank": after["spray"]["rank"]}
        # and a fresh handle (reading only index lines) agrees
        reread = ShardedResultStore(sharded_store.root)
        assert reread.leaderboard() == sharded_store.leaderboard()

    def test_ranks_on_exact_success_rate(self, tmp_path, capsys):
        """1498/1499 and 1499/1500 both round to 0.999333; the higher
        exact rate must rank first even though its mean delay is longer,
        on every leaderboard surface."""
        store = create_store(tmp_path / "store")
        store.put(make_record(job_hash_for(1), protocol="lower",
                              messages=1499, delivered=1498))
        store.put(make_record(job_hash_for(2), protocol="higher",
                              messages=1500, delivered=1499))
        rows = store.leaderboard()
        assert [row["protocol"] for row in rows] == ["higher", "lower"]
        assert rows[0]["success_rate"] == rows[1]["success_rate"] == 0.999333
        assert rows[0]["mean_delay_s"] > rows[1]["mean_delay_s"]
        assert aggregate_leaderboard(store.entries()) == rows
        assert ShardedResultStore(store.root).leaderboard() == rows
        board = tmp_path / "board.json"
        assert main(["svc", "leaderboard", "--store", str(store.root),
                     "--json", str(board)]) == 0
        assert json.loads(board.read_text()) == rows

    def test_ranks_on_exact_mean_delay(self, tmp_path):
        """Mean delays 10.0000004 s and 10.0000001 s both print as 10.0;
        at equal success rates the faster pool must rank first, not the
        one whose name sorts first."""
        store = create_store(tmp_path / "store")
        for index, (protocol, delay) in enumerate((("A", 10.0000004),
                                                   ("B", 10.0000001))):
            record = make_record(job_hash_for(index), protocol=protocol,
                                 messages=10, delivered=5)
            for outcome in record["result"]["outcomes"]:
                outcome[3] = 0.0
                if outcome[6]:
                    outcome[7] = delay
            store.put(record)
        rows = store.leaderboard()
        assert [row["protocol"] for row in rows] == ["B", "A"]
        assert rows[0]["mean_delay_s"] == rows[1]["mean_delay_s"] == 10.0
        assert aggregate_leaderboard(store.entries()) == rows
        assert ShardedResultStore(store.root).leaderboard() == rows

    def test_no_aggregate_file_is_written(self, sharded_store):
        sharded_store.put(make_record(job_hash_for(500)))
        sharded_store.flush()
        assert sorted(path.name for path in sharded_store.root.iterdir()) \
            == ["shards", "store.json"]


# ----------------------------------------------------------------------
# refresh: second handle sees appended records incrementally
# ----------------------------------------------------------------------
class TestRefresh:
    def test_refresh_picks_up_appends_from_another_handle(self,
                                                          sharded_store):
        reader = ShardedResultStore(sharded_store.root)
        reader.load()
        new_hash = job_hash_for(999)
        sharded_store.put(make_record(new_hash, seed=99))
        fresh = reader.refresh_entries()
        assert [entry["job_hash"] for entry in fresh] == [new_hash]
        assert new_hash in reader
        assert reader.refresh_entries() == []

    def test_refresh_discovers_new_shards(self, tmp_path):
        writer = create_store(tmp_path / "store")
        reader = ShardedResultStore(tmp_path / "store")
        reader.load()
        writer.put(make_record(job_hash_for(1)))
        fresh = reader.refresh_entries()
        assert len(fresh) == 1 and len(reader) == 1

    def test_a_writing_handle_still_sees_other_writers(self, tmp_path):
        """Appending to a shard must not make a handle skip the index
        lines another writer appended there since its last read."""
        writer = create_store(tmp_path / "store")
        writer.put(make_record("aa" + "0" * 62))
        other = ShardedResultStore(writer.root)
        other.put(make_record("aa" + "1" * 62, seed=1))
        writer.put(make_record("aa" + "2" * 62, seed=2))
        assert _hashes(writer.refresh_entries()) == ["aa" + "1" * 62]
        assert sorted(writer.hashes()) == \
            sorted(ShardedResultStore(writer.root).hashes())
        assert writer.refresh_entries() == []

    def test_refresh_survives_external_compaction(self, sharded_store):
        reader = ShardedResultStore(sharded_store.root)
        reader.load()
        target = sharded_store.hashes()[0]
        sharded_store.put(make_record(target, status="failed"))
        sharded_store.compact()  # shrinks index files under the reader
        reader.refresh_entries()
        assert len(reader) == len(sharded_store)
        assert reader.entry_for(target)["failed"] is True


# ----------------------------------------------------------------------
# compaction: byte-identical query results, superseded lines dropped
# ----------------------------------------------------------------------
def query_fingerprint(store):
    """Every query surface serialized to bytes (entries modulo the
    physical offset/length, which compaction legitimately rewrites)."""
    entries = [{key: value for key, value in sorted(entry.items())
                if key not in ("offset", "length")}
               for entry in store.query_entries()]
    return (json.dumps(entries, sort_keys=True).encode(),
            json.dumps(store.query(), sort_keys=True).encode(),
            json.dumps(store.leaderboard(), sort_keys=True).encode(),
            json.dumps(store.query(protocol="spray", status="failed"),
                       sort_keys=True).encode())


class TestCompaction:
    def test_compaction_preserves_queries_byte_for_byte(self, sharded_store):
        # supersede two records (a retry and a duplicate append)
        retried = next(entry["job_hash"]
                       for entry in sharded_store.entries()
                       if entry["failed"])
        sharded_store.put(make_record(retried, protocol="spray",
                                      scenario=sharded_store.entry_for(
                                          retried)["scenario"],
                                      seed=4, status="ok"))
        duplicate = sharded_store.hashes()[0]
        sharded_store.put(sharded_store.get(duplicate))
        before = query_fingerprint(sharded_store)
        report = sharded_store.compact()
        assert report["records_dropped"] == 2
        assert report["records_kept"] == len(sharded_store)
        assert report["bytes_after"] <= report["bytes_before"]
        assert query_fingerprint(sharded_store) == before
        # a cold open of the compacted layout answers identically too
        assert query_fingerprint(ShardedResultStore(sharded_store.root)) \
            == before

    def test_compacting_a_clean_store_drops_nothing(self, sharded_store):
        count = len(sharded_store)
        report = sharded_store.compact()
        assert report["records_dropped"] == 0
        assert report["records_kept"] == count == len(sharded_store)


# ----------------------------------------------------------------------
# recovery: advisory index, authoritative records file
# ----------------------------------------------------------------------
class TestRecovery:
    def test_deleted_index_rebuilds_from_records(self, sharded_store):
        expected = query_fingerprint(sharded_store)
        for index_path in sharded_store.path.glob("*/index.jsonl"):
            index_path.unlink()
        recovered = ShardedResultStore(sharded_store.root)
        assert query_fingerprint(recovered) == expected
        # the self-heal re-wrote the index files
        assert list(sharded_store.path.glob("*/index.jsonl"))

    def test_torn_index_tail_recovers_missing_entries(self, sharded_store):
        expected = len(sharded_store)
        index_path = next(iter(sharded_store.path.glob("*/index.jsonl")))
        raw = index_path.read_bytes()
        index_path.write_bytes(raw[:-max(4, len(raw) // 3)])
        recovered = ShardedResultStore(sharded_store.root)
        assert len(recovered) == expected
        for job_hash in recovered.hashes():
            assert recovered.get(job_hash) is not None

    def test_torn_record_tail_is_ignored(self, sharded_store):
        expected = len(sharded_store)
        records_path = next(iter(
            sharded_store.path.glob("*/records.jsonl")))
        with open(records_path, "ab") as handle:
            handle.write(b'{"job_hash": "abc", "trunc')
        recovered = ShardedResultStore(sharded_store.root)
        assert len(recovered) == expected
        # the next writer closes the torn line before appending
        writer = ShardedResultStore(sharded_store.root)
        writer.put(make_record(job_hash_for(1000)))
        final = ShardedResultStore(sharded_store.root)
        assert len(final) == expected + 1
        assert final.get(job_hash_for(1000)) is not None

    def test_torn_index_append_heals_for_refreshers_and_reopens(
            self, tmp_path):
        """A writer killed mid-way through an index append: the next
        append must not glue onto the torn bytes, a handle that only
        refreshes must end up holding what a fresh load holds, and
        reopening must stop re-appending recovered index lines."""
        root = tmp_path / "store"
        create_store(root).put(make_record("aa" + "1" * 62))
        refresher = ShardedResultStore(root)
        refresher.load()
        # the dead writer: a complete record line, a torn index line
        dead = make_record("aa" + "2" * 62, seed=2)
        shard = root / "shards" / "aa"
        offset = (shard / "records.jsonl").stat().st_size
        line = canonical_line(dead)
        with open(shard / "records.jsonl", "ab") as handle:
            handle.write(line)
        entry = record_entry(dead)
        entry.update(offset=offset, length=len(line) - 1)
        with open(shard / "index.jsonl", "ab") as handle:
            handle.write(encode_index_line(entry)[:20])
        # a second writer appends to the same shard
        ShardedResultStore(root).put(make_record("aa" + "3" * 62, seed=3))

        refresher.refresh_entries()
        fresh = ShardedResultStore(root)
        fresh.load()
        assert sorted(refresher.hashes()) == sorted(fresh.hashes())
        assert len(fresh) == 3
        assert refresher.leaderboard() == fresh.leaderboard()
        index_lines = len((shard / "index.jsonl").read_bytes().splitlines())
        for _ in range(3):
            ShardedResultStore(root).load()
            assert len((shard / "index.jsonl").read_bytes()
                       .splitlines()) == index_lines

    def test_glued_index_line_rebuilds_the_shard_once(self, sharded_store):
        """An index already damaged by a glued append (older writers did
        not close torn lines) heals on the first load."""
        expected = query_fingerprint(sharded_store)
        index_path = next(iter(sharded_store.path.glob("*/index.jsonl")))
        lines = index_path.read_bytes().splitlines(keepends=True)
        index_path.write_bytes(lines[0][:15] + b"".join(lines))
        assert query_fingerprint(ShardedResultStore(sharded_store.root)) \
            == expected
        healed = index_path.read_bytes()
        assert query_fingerprint(ShardedResultStore(sharded_store.root)) \
            == expected
        assert index_path.read_bytes() == healed

    def test_stale_index_entry_falls_back_to_rescan(self, sharded_store):
        # rewrite a records file under the store's feet (offsets shift)
        target = sharded_store.hashes()[0]
        prefix = target[:DEFAULT_SHARD_WIDTH]
        records_path = sharded_store.path / prefix / "records.jsonl"
        lines = records_path.read_bytes().splitlines(keepends=True)
        records_path.write_bytes(b"".join([b"\n"] + lines))
        record = sharded_store.get(target)
        assert record is not None and record["job_hash"] == target


# ----------------------------------------------------------------------
# concurrent writers: two processes, one shard namespace
# ----------------------------------------------------------------------
_WRITER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from test_svc_store import make_record
from repro.svc.store import ShardedResultStore

store = ShardedResultStore({root!r})
store.load()
for i in range({start}, {start} + {count}):
    # one shared prefix: every record contends on the same shard files
    store.put(make_record("aa%060x" % i, seed=i))
"""


class TestConcurrentWriters:
    def test_two_processes_appending_to_one_shard(self, tmp_path):
        root = create_store(tmp_path / "store").root
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [src, str(Path(__file__).resolve().parent)]))
        count = 150
        procs = [subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT.format(
                src=src, root=str(root), start=start, count=count)],
            env=env, cwd=str(Path(__file__).resolve().parent))
            for start in (0, count)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = ShardedResultStore(root)
        assert len(store) == 2 * count
        # every record body is addressable through its index entry
        for i in range(2 * count):
            record = store.get("aa%060x" % i)
            assert record is not None and record["seed"] == i
        # no interleaving corrupted the shard: one JSON object per line
        records_path = store.path / "aa" / "records.jsonl"
        for line in records_path.read_bytes().splitlines():
            if line.strip():
                json.loads(line)


# ----------------------------------------------------------------------
# the svc CLI, offline surfaces
# ----------------------------------------------------------------------
class TestOfflineCli:
    def test_migrate_query_leaderboard_compact(self, flat_store, tmp_path,
                                               capsys):
        dst = tmp_path / "sharded"
        assert main(["svc", "migrate", str(flat_store.root),
                     str(dst)]) == 0
        out = tmp_path / "query.json"
        assert main(["svc", "query", "--store", str(dst),
                     "--protocol", "epidemic", "--json", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert {entry["job_hash"] for entry in rows} == \
            brute_force(flat_store, protocol="epidemic")
        board = tmp_path / "board.json"
        assert main(["svc", "leaderboard", "--store", str(dst),
                     "--json", str(board)]) == 0
        assert json.loads(board.read_text()) == flat_store.leaderboard()
        assert main(["svc", "compact", "--store", str(dst)]) == 0
        assert "dropped 0 superseded" in capsys.readouterr().out

    def test_compact_migrates_flat_stores_first(self, flat_store, capsys):
        with pytest.warns(UserWarning, match="migrated"):
            assert main(["svc", "compact", "--store",
                         str(flat_store.root)]) == 0
        assert "dropped 0 superseded" in capsys.readouterr().out
        assert (flat_store.root / "records.jsonl.migrated").exists()
        assert sorted(ShardedResultStore(flat_store.root).hashes()) == \
            sorted(flat_store.hashes())

    def test_query_and_leaderboard_migrate_a_flat_root(self, flat_store,
                                                       tmp_path):
        out = tmp_path / "query.json"
        with pytest.warns(UserWarning, match="migrated"):
            assert main(["svc", "query", "--store", str(flat_store.root),
                         "--protocol", "epidemic", "--json",
                         str(out)]) == 0
        assert {entry["job_hash"] for entry in
                json.loads(out.read_text())} == \
            brute_force(flat_store, protocol="epidemic")
        board = tmp_path / "board.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # migrated once, not again
            assert main(["svc", "leaderboard", "--store",
                         str(flat_store.root), "--json", str(board)]) == 0
        assert json.loads(board.read_text()) == flat_store.leaderboard()

    def test_migrate_refuses_missing_source(self, tmp_path):
        with pytest.raises(SystemExit, match="no store"):
            main(["svc", "migrate", str(tmp_path / "nope"),
                  str(tmp_path / "dst")])
