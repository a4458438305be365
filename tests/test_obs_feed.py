"""Live experiment feeds: incremental store reads, status tracking, the
live leaderboard and the ``exp watch`` CLI.

The load-bearing guarantees: :meth:`ShardedResultStore.refresh_entries`
parses only the index bytes appended since the last poll (and never
consumes a writer's partial line); :class:`StatusTracker` reproduces
``experiment_status`` payloads exactly while polling incrementally;
:class:`LiveLeaderboard` ranks the same results into the same rows as the
tournament's final table;
and an interrupted observed run keeps its telemetry artifacts across
resume.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.exp import ExperimentSpec, run_experiment
from repro.exp.store import record_entry
from repro.exp.orchestrator import experiment_status
from repro.obs import LiveLeaderboard, ObsConfig, StatusTracker, read_trace
from repro.obs.feed import StatusTracker as FeedStatusTracker
from repro.routing.tournament import run_tournament
from repro.sim.cli import main
from repro.svc.store import ShardedResultStore, encode_index_line

SMALL_SPEC = ExperimentSpec(
    name="feed-small", scenarios=("paper-ttl-tight",),
    protocols=("Epidemic", "Direct Delivery"), seeds=(7,), num_runs=1)


def _record(job_hash, payload=0):
    return {"schema": 1, "job_hash": job_hash, "payload": payload}


def _shard_dir(store, job_hash):
    return store.path / store._prefix_of(job_hash)


def _append_record(store, record) -> bytes:
    """Append *record*'s line to its shard's records file, as a writer
    does before its index append, and return that index line."""
    directory = _shard_dir(store, record["job_hash"])
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "records.jsonl"
    offset = path.stat().st_size if path.exists() else 0
    line = json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "ab") as handle:
        handle.write(line + b"\n")
    entry = record_entry(record)
    entry.update(offset=offset, length=len(line))
    return encode_index_line(entry)


def _append_raw(store, job_hash, data: bytes,
                name: str = "index.jsonl") -> None:
    directory = _shard_dir(store, job_hash)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / name, "ab") as handle:
        handle.write(data)


def _hashes(entries):
    return [entry["job_hash"] for entry in entries]


# ----------------------------------------------------------------------
# ShardedResultStore.refresh_entries
# ----------------------------------------------------------------------
class TestStoreRefresh:
    def test_first_refresh_loads_everything(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("a"))
        writer.put(_record("b"))
        reader = ShardedResultStore(tmp_path / "s")
        fresh = reader.refresh_entries()
        assert set(_hashes(fresh)) == {"a", "b"}
        assert reader.refresh_entries() == []

    def test_refresh_returns_only_appended_records(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("a"))
        reader = ShardedResultStore(tmp_path / "s")
        reader.load()
        assert reader.refresh_entries() == []
        writer.put(_record("b"))
        writer.put(_record("c"))
        fresh = reader.refresh_entries()
        assert _hashes(fresh) == ["b", "c"]
        assert reader.refresh_entries() == []
        assert reader.get("c") == _record("c")

    def test_partial_final_line_is_left_for_the_next_poll(self, tmp_path):
        """A writer caught mid-append must not lose the record: the
        partial index line stays unconsumed and parses once completed."""
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("aa1"))
        reader = ShardedResultStore(tmp_path / "s")
        reader.load()
        line = _append_record(reader, _record("aa2"))
        index = _shard_dir(reader, "aa2") / "index.jsonl"
        _append_raw(reader, "aa2", line[:10])     # mid-append snapshot
        inode = index.stat().st_ino
        assert reader.refresh_entries() == []
        _append_raw(reader, "aa2", line[10:])     # writer finishes
        fresh = reader.refresh_entries()
        assert _hashes(fresh) == ["aa2"]
        # the reader never treated the line as damage: nothing rebuilt
        assert index.stat().st_ino == inode
        assert index.read_bytes().endswith(b"\n" + line)

    def test_unindexed_record_is_seen_without_growing_the_index(self,
                                                                tmp_path):
        """A record line whose index append has not landed (a writer
        between its two appends, or killed there) reaches a refresh-only
        handle, which appends no index line: the writer's own line later
        re-reads as a no-op and the index holds it once."""
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("aa1"))
        reader = ShardedResultStore(tmp_path / "s")
        reader.load()
        line = _append_record(reader, _record("aa2"))
        index = _shard_dir(reader, "aa2") / "index.jsonl"
        before = index.read_bytes()
        assert _hashes(reader.refresh_entries()) == ["aa2"]
        assert reader.get("aa2") == _record("aa2")
        assert index.read_bytes() == before
        _append_raw(reader, "aa2", line)      # the writer's index append
        assert reader.refresh_entries() == []
        assert [raw for raw in index.read_bytes().splitlines()
                if b'"aa2"' in raw] == [line.rstrip(b"\n")]
        # a shard first seen by a refresh is adopted the same way
        _append_record(reader, _record("bb1"))
        assert _hashes(reader.refresh_entries()) == ["bb1"]
        assert not (_shard_dir(reader, "bb1") / "index.jsonl").exists()

    def test_complete_line_without_trailing_newline_is_consumed(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("aa1"))
        reader = ShardedResultStore(tmp_path / "s")
        reader.load()
        line = _append_record(reader, _record("aa2"))
        _append_raw(reader, "aa2", line[:-1])
        fresh = reader.refresh_entries()
        assert _hashes(fresh) == ["aa2"]
        assert reader.refresh_entries() == []

    def test_shrunken_file_triggers_full_reload(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("aa1"))
        writer.put(_record("aa2"))
        reader = ShardedResultStore(tmp_path / "s")
        reader.load()
        # the shard is rewritten from scratch under the reader
        directory = _shard_dir(writer, "aa1")
        (directory / "records.jsonl").unlink()
        (directory / "index.jsonl").unlink()
        _append_raw(writer, "aaz", _append_record(writer, _record("aaz")))
        fresh = reader.refresh_entries()
        assert _hashes(fresh) == ["aaz"]
        assert reader.hashes() == ["aaz"]

    def test_corrupt_interior_line_warns_and_skips(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "s")
        writer.put(_record("aa1"))
        reader = ShardedResultStore(tmp_path / "s")
        reader.load()
        _append_raw(reader, "aa2", b"{this is not json}\n", "records.jsonl")
        line = _append_record(reader, _record("aa2"))
        _append_raw(reader, "aa2", b"{this is not json}\n" + line)
        with pytest.warns(UserWarning, match="corrupt"):
            fresh = reader.refresh_entries()
        assert _hashes(fresh) == ["aa2"]


# ----------------------------------------------------------------------
# StatusTracker
# ----------------------------------------------------------------------
class TestStatusTracker:
    def test_payload_matches_experiment_status_before_and_after(self, tmp_path):
        store = str(tmp_path / "results")
        tracker = StatusTracker(SMALL_SPEC, store=store)
        assert tracker.refresh() == experiment_status(SMALL_SPEC, store=store)
        assert not tracker.is_complete
        run_experiment(SMALL_SPEC, store=store)
        after = tracker.refresh()
        assert after == experiment_status(SMALL_SPEC, store=store)
        assert (after["done"], after["pending"]) == (2, 0)
        assert tracker.is_complete

    def test_experiment_status_routes_through_the_tracker(self):
        # the satellite fix: one classification pass, shared implementation
        import repro.exp.orchestrator as orchestrator
        import inspect

        source = inspect.getsource(orchestrator.experiment_status)
        assert "StatusTracker" in source

    def test_incremental_refresh_sees_new_records_cheaply(self, tmp_path):
        """Jobs landing between polls flip pending->done without a full
        reload (the tracker's store only tail-reads)."""
        store_root = tmp_path / "results"
        tracker = StatusTracker(SMALL_SPEC, store=str(store_root))
        assert tracker.refresh()["pending"] == 2
        run_experiment(SMALL_SPEC, store=str(store_root))
        status = tracker.refresh()
        assert (status["done"], status["pending"]) == (2, 0)
        assert status["scenarios"]["paper-ttl-tight"]["done"] == 2

    def test_storeless_tracker_reports_all_pending(self):
        tracker = StatusTracker(SMALL_SPEC, store=None)
        status = tracker.refresh()
        assert (status["done"], status["pending"]) == (0, 2)
        assert status["store"] is None
        assert not tracker.is_complete

    def test_failure_records_classify_and_report(self, tmp_path):
        store = ShardedResultStore(tmp_path / "results")
        run_experiment(SMALL_SPEC, store=store)
        tracker = StatusTracker(SMALL_SPEC,
                                store=ShardedResultStore(store.root))
        assert tracker.refresh()["failed"] == 0
        # quarantine one job after the fact: last write wins per hash
        victim = tracker.plan.jobs[0]
        store.put({
            "schema": 1, "job_hash": victim.job_hash, "status": "failed",
            "scenario": victim.scenario_name, "protocol": victim.protocol,
            "seed": victim.seed, "run_index": victim.run_index,
            "error": "exploded", "error_kind": "RuntimeError",
            "attempts": 2, "elapsed_s": 0.1, "detail": None})
        status = tracker.refresh()
        assert (status["done"], status["failed"]) == (1, 1)
        (row,) = status["failures"]
        assert row["protocol"] == victim.protocol
        assert row["error_kind"] == "RuntimeError"
        assert status == experiment_status(
            SMALL_SPEC, store=ShardedResultStore(store.root))
        # failed jobs are settled: watch terminates on them
        assert tracker.is_complete

    def test_watch_during_a_live_run(self, tmp_path):
        """Poll a tracker while another thread executes the experiment —
        the feed must settle to complete without a full store rescan."""
        store_root = str(tmp_path / "results")
        tracker = StatusTracker(SMALL_SPEC, store=store_root)
        assert tracker.refresh()["pending"] == 2
        runner = threading.Thread(
            target=run_experiment, args=(SMALL_SPEC,),
            kwargs={"store": store_root})
        runner.start()
        try:
            deadline = time.monotonic() + 60.0
            while not tracker.is_complete:
                assert time.monotonic() < deadline, "watch never settled"
                tracker.refresh()
                time.sleep(0.02)
        finally:
            runner.join(timeout=60.0)
        status = tracker.refresh()
        assert (status["done"], status["failed"]) == (2, 0)


# ----------------------------------------------------------------------
# LiveLeaderboard
# ----------------------------------------------------------------------
class TestLiveLeaderboard:
    def test_converges_to_the_tournament_leaderboard(self):
        """Observing every finished cell through the progress callback
        must end at the same standings the batch leaderboard computes."""
        board = LiveLeaderboard()
        snapshots = []

        def progress(event, job, value):
            if event in ("done", "reused"):
                board.observe(job.protocol, value)
                snapshots.append([row["protocol"] for row in board.rows()])

        result = run_tournament(
            protocols=("Epidemic", "Direct Delivery"),
            scenarios=("paper-ttl-tight",), seeds=(7,),
            progress=progress)
        assert board.num_observed == 2
        assert snapshots, "progress must fire per settled job"
        assert len(snapshots[0]) == 1  # standings existed mid-run

        final = {row["protocol"]: row for row in board.rows()}
        batch = {row["protocol"]: row for row in result.leaderboard_rows()}
        assert final.keys() == batch.keys()
        for protocol, row in batch.items():
            live = final[protocol]
            for column in ("rank", "messages", "delivered", "success_rate",
                           "median_delay_s", "p90_delay_s",
                           "copies/delivery", "lost", "retx", "crashes"):
                assert live[column] == row[column], (protocol, column)

    def test_preseeded_protocols_rank_with_zero_observations(self):
        board = LiveLeaderboard(protocols=("A", "B"))
        rows = board.rows()
        assert [row["protocol"] for row in rows] == ["A", "B"]
        assert all(row["messages"] == 0 for row in rows)
        assert "A" in board.table()

    def test_ranking_orders_by_success_then_delay(self):
        board = LiveLeaderboard()

        class _Result:
            def __init__(self, delivered, total, delay):
                from repro.forwarding.simulator import DeliveryOutcome
                from repro.forwarding.messages import Message

                self.copies_sent = total
                self.outcomes = []
                for index in range(total):
                    message = Message(id=index, source=0, destination=1,
                                      creation_time=0.0)
                    hit = index < delivered
                    self.outcomes.append(DeliveryOutcome(
                        message=message, delivered=hit,
                        delivery_time=delay if hit else None,
                        hop_count=1 if hit else 0))

        board.observe("strong", _Result(delivered=9, total=10, delay=50.0))
        board.observe("weak", _Result(delivered=2, total=10, delay=5.0))
        board.observe("slow", _Result(delivered=9, total=10, delay=400.0))
        ranked = [row["protocol"] for row in board.rows()]
        assert ranked == ["strong", "slow", "weak"]
        assert [row["rank"] for row in board.rows()] == [1, 2, 3]

    def test_both_leaderboards_rank_on_unrounded_success_rates(self):
        """0.5004 and 0.5001 both print as 0.5; the higher rate must still
        rank first although the other protocol delivers faster."""
        from repro.forwarding.messages import Message
        from repro.forwarding.simulator import DeliveryOutcome
        from repro.routing.tournament import TournamentResult
        from repro.sim import UNCONSTRAINED, ConstrainedSimulationResult
        from repro.sim.engine import ResourceStats

        def result(name, delivered, delay, total=10000):
            run = ConstrainedSimulationResult(
                algorithm=name, trace_name="t", constraints=UNCONSTRAINED,
                stats=ResourceStats(copies_sent=delivered),
                copies_sent=delivered)
            for index in range(total):
                hit = index < delivered
                run.outcomes.append(DeliveryOutcome(
                    message=Message(id=index, source=0, destination=1,
                                    creation_time=0.0),
                    delivered=hit, delivery_time=delay if hit else None,
                    hop_count=1 if hit else 0))
            return run

        cells = {"higher": result("higher", 5004, delay=90.0),
                 "faster": result("faster", 5001, delay=10.0)}
        tournament = TournamentResult(
            protocols=["faster", "higher"], scenarios=["s"], seeds=[1],
            num_runs=1,
            cells={(name, "s", 1): run for name, run in cells.items()})
        board = LiveLeaderboard()
        for name in ("faster", "higher"):
            board.observe(name, cells[name])
        for rows in (tournament.leaderboard_rows(), board.rows()):
            assert [row["protocol"] for row in rows] == ["higher", "faster"]
            assert rows[0]["success_rate"] == rows[1]["success_rate"] == 0.5


    def test_live_rows_equal_final_rows_past_four_thousand_deliveries(self):
        """Thousands of exponential delays per protocol: the live board and
        the tournament pool the same results into the same rows, column
        for column (the live board has no ``scenarios`` column)."""
        import numpy as np

        from repro.forwarding.messages import Message
        from repro.forwarding.simulator import DeliveryOutcome
        from repro.routing.tournament import TournamentResult
        from repro.sim import UNCONSTRAINED, ConstrainedSimulationResult
        from repro.sim.engine import ResourceStats

        rng = np.random.default_rng(11)

        def cell(name, messages, delivered, scale):
            delays = rng.exponential(scale, size=delivered)
            run = ConstrainedSimulationResult(
                algorithm=name, trace_name="t", constraints=UNCONSTRAINED,
                stats=ResourceStats(copies_sent=3 * delivered,
                                    lost_transfers=delivered // 7,
                                    retransmissions=delivered // 5),
                copies_sent=3 * delivered)
            for index in range(messages):
                hit = index < delivered
                created = float(rng.uniform(0.0, 100.0))
                run.outcomes.append(DeliveryOutcome(
                    message=Message(id=index, source=0, destination=1,
                                    creation_time=created),
                    delivered=hit,
                    delivery_time=created + delays[index] if hit else None,
                    hop_count=1 if hit else 0))
            return run

        seeds = [1, 2, 3]
        sizes = {"big": (2500, 1700, 300.0), "small": (400, 150, 40.0)}
        cells = {(name, "s", seed): cell(name, *sizes[name])
                 for name in sizes for seed in seeds}
        assert sum(run.num_delivered for (name, _, _), run in cells.items()
                   if name == "big") > 4096
        tournament = TournamentResult(
            protocols=list(sizes), scenarios=["s"], seeds=seeds,
            num_runs=1, cells=cells)
        board = LiveLeaderboard()
        # the live board sees the cells in completion order, not plan order
        for key in reversed(list(cells)):
            board.observe(key[0], cells[key])
        final = tournament.leaderboard_rows()
        assert all(row.pop("scenarios") == 1 for row in final)
        assert board.rows() == final

    def test_pooling_of_duck_typed_results(self):
        """Results with only ``outcomes`` and ``copies_sent`` pool too: an
        unknown copy counter makes the total unknown, and fault columns
        appear once a result carries stats."""
        from repro.forwarding.messages import Message
        from repro.forwarding.simulator import DeliveryOutcome
        from repro.sim.engine import ResourceStats

        class _Result:
            def __init__(self, copies, stats=None):
                self.copies_sent = copies
                self.outcomes = [DeliveryOutcome(
                    message=Message(id=0, source=0, destination=1,
                                    creation_time=0.0),
                    delivered=True, delivery_time=5.0, hop_count=1)]
                if stats is not None:
                    self.stats = stats

        board = LiveLeaderboard()
        board.observe("known", _Result(4))
        board.observe("known", _Result(2))
        board.observe("unknown", _Result(4))
        board.observe("unknown", _Result(None))
        board.observe("faulty", _Result(1))
        board.observe("faulty", _Result(1, ResourceStats(lost_transfers=3)))
        rows = {row["protocol"]: row for row in board.rows()}
        assert rows["known"]["copies/delivery"] == 3.0
        assert rows["unknown"]["copies/delivery"] is None
        assert "lost" not in rows["known"]
        assert (rows["faulty"]["lost"], rows["faulty"]["retx"]) == (3, 0)


# ----------------------------------------------------------------------
# interrupted observed runs
# ----------------------------------------------------------------------
class TestKillAndResume:
    def test_interrupt_preserves_telemetry_artifacts(self, tmp_path,
                                                     monkeypatch):
        """Kill mid-run: the finished job's trace survives; resume
        executes the tail, keeps the old trace, and writes metrics."""
        import repro.exp.orchestrator as orchestrator

        store = ShardedResultStore(tmp_path / "results")
        obs = ObsConfig(trace_dir=str(tmp_path / "traces"),
                        metrics_path=str(tmp_path / "metrics.json"))
        real_run = orchestrator._run_exp_job
        calls = {"n": 0}

        def explode_on_second(payload):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real_run(payload)

        monkeypatch.setattr(orchestrator, "_run_exp_job", explode_on_second)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(SMALL_SPEC, store=store, obs=obs)
        trace_dir = tmp_path / "traces"
        survivors = sorted(trace_dir.glob("trace-*.jsonl"))
        assert len(survivors) == 1
        first_trace = survivors[0].read_bytes()

        monkeypatch.setattr(orchestrator, "_run_exp_job", real_run)
        resumed = run_experiment(SMALL_SPEC,
                                 store=ShardedResultStore(store.root),
                                 obs=obs)
        assert resumed.num_executed == 1
        assert resumed.num_reused == 1
        # both traces on disk now; the survivor is untouched
        assert len(sorted(trace_dir.glob("trace-*.jsonl"))) == 2
        assert survivors[0].read_bytes() == first_trace
        assert read_trace(survivors[0])
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["executed"] == 1
        assert metrics["reused"] == 1
        assert len(metrics["engine_runs"]) == 1


# ----------------------------------------------------------------------
# the watch CLI
# ----------------------------------------------------------------------
class TestWatchCli:
    def _spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "watch-cli", "scenarios": ["paper-ttl-tight"],
            "protocols": ["Epidemic", "Direct Delivery"], "seeds": [7]}))
        return str(spec_path)

    def test_watch_bounded_polls_on_a_pending_grid(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path)
        store = str(tmp_path / "results")
        assert main(["exp", "watch", spec_path, "--store", store,
                     "--interval", "0.01", "--max-polls", "2"]) == 0
        out = capsys.readouterr().out
        assert "0/2 done, 0 failed, 2 pending" in out
        assert "stopping after 2 poll(s)" in out

    def test_watch_exits_when_the_grid_settles(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path)
        store = str(tmp_path / "results")
        assert main(["exp", "run", spec_path, "--store", store]) == 0
        capsys.readouterr()
        assert main(["exp", "watch", spec_path, "--store", store,
                     "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done, 0 failed, 0 pending" in out
        assert "experiment complete" in out

    def test_status_live_aliases_watch(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path)
        store = str(tmp_path / "results")
        assert main(["exp", "run", spec_path, "--store", store]) == 0
        capsys.readouterr()
        assert main(["exp", "status", spec_path, "--store", store,
                     "--live", "--interval", "0.01"]) == 0
        assert "experiment complete" in capsys.readouterr().out

    def test_interval_must_be_positive(self, tmp_path):
        spec_path = self._spec_file(tmp_path)
        with pytest.raises(SystemExit, match="interval"):
            main(["exp", "watch", spec_path, "--interval", "0"])


def test_public_reexports():
    """The feed types are part of the repro.obs (and repro) surface."""
    import repro

    assert FeedStatusTracker is StatusTracker
    assert repro.obs.LiveLeaderboard is LiveLeaderboard
