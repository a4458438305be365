"""Tests for the experiment daemon (:mod:`repro.svc.daemon`):

  * whole-grid execution with content-hash dedupe — a re-submitted spec
    executes 0 jobs;
  * priority-then-FIFO scheduling;
  * cancellation of queued submissions;
  * journal replay: finished grids recover as done/reused, unfinished
    ones are re-queued and resume exactly the missing jobs;
  * kill -9 of a live ``svc serve`` process mid-grid, then restart:
    the jobs completed before the kill are never executed again.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exp.spec import ExperimentSpec
from repro.svc.daemon import SUBMISSIONS_FILENAME, ExperimentDaemon
from repro.svc.store import ShardedResultStore, create_store

SPEC = ExperimentSpec(
    name="svc-grid", scenarios=("paper-ttl-tight",),
    protocols=("Epidemic", "Direct Delivery"), seeds=(7, 8), num_runs=1)


async def settle(daemon, submission_id, timeout=60.0):
    """Wait until the submission leaves queued/running; returns its state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = daemon.submissions[submission_id].state
        if state not in ("queued", "running"):
            return state
        await asyncio.sleep(0.02)
    raise AssertionError(f"{submission_id} still "
                         f"{daemon.submissions[submission_id].state} "
                         f"after {timeout:g}s")


class TestDedupe:
    def test_grid_executes_then_resubmit_executes_zero(self, tmp_path):
        async def scenario():
            daemon = ExperimentDaemon(tmp_path / "store", chunk_size=2)
            await daemon.start()
            first = daemon.submit(SPEC)
            assert first["already_stored"] == 0
            assert await settle(daemon, first["id"]) == "done"
            submission = daemon.submissions[first["id"]]
            assert submission.executed == 4 and submission.reused == 0

            again = daemon.submit(SPEC)
            assert again["already_stored"] == 4
            assert await settle(daemon, again["id"]) == "done"
            resubmitted = daemon.submissions[again["id"]]
            assert resubmitted.executed == 0
            assert resubmitted.reused == 4
            await daemon.drain()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.jobs_executed == 4 and daemon.jobs_reused == 4
        assert len(ShardedResultStore(tmp_path / "store")) == 4

    def test_overlapping_submissions_share_the_store(self, tmp_path):
        grown = SPEC.with_overrides(seeds=(7, 8, 9))

        async def scenario():
            daemon = ExperimentDaemon(tmp_path / "store")
            await daemon.start()
            base = daemon.submit(SPEC)
            extended = daemon.submit(grown)
            await settle(daemon, base["id"])
            await settle(daemon, extended["id"])
            await daemon.drain()
            return daemon

        daemon = asyncio.run(scenario())
        # the 6-job superset reuses the 4 overlapping cells
        assert daemon.jobs_executed == 6
        assert daemon.submissions["sub-000002"].reused == 4


class TestScheduling:
    def test_higher_priority_runs_first(self, tmp_path):
        low_spec = SPEC.with_overrides(name="low", seeds=(1,),
                                       protocols=("Direct Delivery",))
        high_spec = SPEC.with_overrides(name="high", seeds=(2,),
                                        protocols=("Direct Delivery",))

        async def scenario():
            daemon = ExperimentDaemon(tmp_path / "store")
            low = daemon.submit(low_spec, priority=0)
            high = daemon.submit(high_spec, priority=5)
            await daemon.start(recover=False)
            await settle(daemon, low["id"])
            await settle(daemon, high["id"])
            await daemon.drain()
            return (daemon.submissions[high["id"]].finished_at,
                    daemon.submissions[low["id"]].finished_at)

        high_done, low_done = asyncio.run(scenario())
        assert high_done <= low_done

    def test_cancel_queued_submission_never_runs(self, tmp_path):
        async def scenario():
            daemon = ExperimentDaemon(tmp_path / "store")
            queued = daemon.submit(SPEC)
            info = daemon.cancel(queued["id"])
            assert info["state"] == "cancelled"
            await daemon.start(recover=False)
            await asyncio.sleep(0.05)
            await daemon.drain()
            return daemon

        daemon = asyncio.run(scenario())
        assert daemon.jobs_executed == 0
        assert len(daemon.store) == 0

    def test_non_positive_workers_rejected_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExperimentDaemon(tmp_path / "store", workers=0)

    def test_cancel_unknown_submission_raises(self, tmp_path):
        daemon = ExperimentDaemon(tmp_path / "store")
        with pytest.raises(KeyError, match="no such submission"):
            daemon.cancel("sub-999999")
        with pytest.raises(KeyError, match="no such submission"):
            daemon.status("sub-999999")

    def test_invalid_spec_rejected_at_submit_time(self, tmp_path):
        daemon = ExperimentDaemon(tmp_path / "store")
        with pytest.raises((KeyError, TypeError, ValueError)):
            daemon.submit({"name": "broken"})
        assert daemon.submissions == {}
        # nothing journaled for a rejected spec
        assert not (daemon.root / SUBMISSIONS_FILENAME).exists()

    def test_status_reports_tracker_payload(self, tmp_path):
        async def scenario():
            daemon = ExperimentDaemon(tmp_path / "store")
            await daemon.start()
            info = daemon.submit(SPEC)
            await settle(daemon, info["id"])
            payload = daemon.status(info["id"])
            await daemon.drain()
            return payload

        payload = asyncio.run(scenario())
        assert payload["done"] == payload["total_jobs"] == 4
        assert payload["submission"]["state"] == "done"
        assert "paper-ttl-tight" in payload["scenarios"]


class TestJournalRecovery:
    def test_finished_grid_recovers_as_done(self, tmp_path):
        async def first_life():
            daemon = ExperimentDaemon(tmp_path / "store")
            await daemon.start()
            info = daemon.submit(SPEC)
            await settle(daemon, info["id"])
            await daemon.drain()

        asyncio.run(first_life())

        async def second_life():
            daemon = ExperimentDaemon(tmp_path / "store")
            report = await daemon.start(recover=True)
            await daemon.drain()
            return daemon, report

        daemon, report = asyncio.run(second_life())
        assert report == {"records": 4, "requeued": 0}
        recovered = daemon.submissions["sub-000001"]
        assert recovered.state == "done" and recovered.recovered
        assert recovered.reused == 4
        assert daemon.jobs_executed == 0

    def test_unfinished_grid_is_requeued_and_resumed(self, tmp_path):
        # journal a submission without ever starting the scheduler: the
        # shape a crash leaves behind
        crashed = ExperimentDaemon(tmp_path / "store")
        crashed.submit(SPEC)

        async def second_life():
            daemon = ExperimentDaemon(tmp_path / "store")
            report = await daemon.start(recover=True)
            assert report["requeued"] == 1
            assert await settle(daemon, "sub-000001") == "done"
            # new ids allocate past the journaled ones
            duplicate = daemon.submit(SPEC)
            assert duplicate["id"] == "sub-000002"
            await settle(daemon, duplicate["id"])
            await daemon.drain()
            return daemon

        daemon = asyncio.run(second_life())
        assert daemon.jobs_executed == 4
        assert len(ShardedResultStore(tmp_path / "store")) == 4

    def test_journaled_des_spec_replays_on_the_vector_kernel(self, tmp_path):
        # a journal line written when the kernel was a per-spec choice
        # still recovers: the engine field warns once and is ignored
        crashed = ExperimentDaemon(tmp_path / "store")
        crashed.submit(SPEC)
        journal = crashed.root / SUBMISSIONS_FILENAME
        line = json.loads(journal.read_text(encoding="utf-8"))
        line["spec"]["engine"] = "des"
        journal.write_text(json.dumps(line) + "\n", encoding="utf-8")

        async def second_life():
            daemon = ExperimentDaemon(tmp_path / "store")
            with pytest.warns(UserWarning, match="ignored") as caught:
                report = await daemon.start(recover=True)
            assert len(caught) == 1
            assert report["requeued"] == 1
            assert await settle(daemon, "sub-000001") == "done"
            await daemon.drain()
            return daemon

        daemon = asyncio.run(second_life())
        assert daemon.jobs_executed == 4
        store = ShardedResultStore(tmp_path / "store")
        assert [entry["job_hash"] for entry in store.query_entries()] == \
            sorted(set(job.job_hash for job in
                       daemon.submissions["sub-000001"].plan.jobs))
        assert all(store.get(entry["job_hash"])["engine"] == "vector"
                   for entry in store.query_entries())

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        daemon = ExperimentDaemon(tmp_path / "store")
        daemon.submit(SPEC)
        journal = daemon.root / SUBMISSIONS_FILENAME
        with open(journal, "ab") as handle:
            handle.write(b'{"id": "sub-000002", "spec": {"na')

        async def second_life():
            fresh = ExperimentDaemon(tmp_path / "store")
            report = await fresh.start(recover=True)
            await fresh.drain()
            return fresh, report

        fresh, report = asyncio.run(second_life())
        assert report["requeued"] == 1
        assert list(fresh.submissions) == ["sub-000001"]


class TestKillNineRecovery:
    """SIGKILL a live ``svc serve`` mid-grid; restart must resume exactly
    the missing jobs — completed ones are reused, never re-executed."""

    # 3 protocols x 100 seeds: enough wall-clock (~1.5s serial) that the
    # poll loop reliably lands the kill strictly mid-grid
    BIG = {"name": "kill9", "scenarios": ["paper-ttl-tight"],
           "protocols": ["Epidemic", "Direct Delivery",
                         "Binary Spray-and-Wait"],
           "seeds": list(range(100)), "num_runs": 1}

    def _serve(self, root, spec_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "svc", "serve",
             "--store", str(root), "--port", "0", "--chunk-size", "4"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            endpoint = Path(root) / "svc.json"
            while not endpoint.exists():
                assert process.poll() is None, \
                    process.stdout.read().decode()
                assert time.monotonic() < deadline, "serve never bound"
                time.sleep(0.02)
            url = json.loads(endpoint.read_text())["url"]
            submit = subprocess.run(
                [sys.executable, "-m", "repro", "svc", "submit",
                 str(spec_path), "--url", url], env=env,
                capture_output=True, text=True, timeout=60)
            assert submit.returncode == 0, submit.stderr
        except BaseException:
            process.kill()
            process.wait()
            raise
        return process

    def test_sigkill_mid_grid_then_resume_reuses_completed_jobs(
            self, tmp_path):
        root = tmp_path / "store"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.BIG))
        total = 300

        process = self._serve(root, spec_path)
        try:
            deadline = time.monotonic() + 120
            while True:
                done = len(ShardedResultStore(root))
                if done >= 5:
                    break
                assert time.monotonic() < deadline, "no records appeared"
                time.sleep(0.005)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

        survivors = len(ShardedResultStore(root))
        assert 0 < survivors, "kill landed before any record"
        assert survivors < total, "grid finished before the kill landed"

        async def second_life():
            daemon = ExperimentDaemon(root, chunk_size=32)
            report = await daemon.start(recover=True)
            assert report["requeued"] == 1
            assert await settle(daemon, "sub-000001", timeout=300) == "done"
            await daemon.drain()
            return daemon

        daemon = asyncio.run(second_life())
        resumed = daemon.submissions["sub-000001"]
        # resume executes only the missing jobs: everything completed
        # before the kill is answered by the store
        assert resumed.reused >= survivors
        assert resumed.executed == total - resumed.reused
        assert resumed.executed + resumed.reused == total
        assert len(ShardedResultStore(root)) == total
