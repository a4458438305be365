"""The experiment daemon: an asyncio scheduler over the exp worker pool.

:class:`ExperimentDaemon` turns :func:`repro.exp.execute_plan` into a
long-running service.  Submissions are whole :class:`ExperimentSpec`
grids; the daemon plans each one, *dedupes jobs by content hash* — against
the persistent store (a job anyone ever completed is never re-run) and
against jobs other queued submissions already claimed in this session —
and executes the remainder through the same worker machinery the CLI
uses, chunk by chunk so the event loop stays responsive between batches.

Scheduling is priority-then-FIFO.  Cancellation takes effect at the next
chunk boundary; a graceful drain (SIGTERM in :mod:`repro.svc.api`)
finishes the in-flight chunk, persists everything completed and stops —
nothing is lost, because every executed job is already in the store and
every unexecuted one is re-derivable from its spec by content hash.

Crash recovery is store replay: submissions are journaled to
``<root>/submissions.jsonl`` as they arrive, and :meth:`start` re-plans
any journaled submission the store cannot fully answer — after a kill -9
the daemon resumes exactly the missing jobs (completed ones are reused,
so re-running a finished grid executes 0 jobs).
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exp.executor import FaultPolicy
from ..exp.orchestrator import execute_plan
from ..exp.plan import ExperimentPlan, build_plan
from ..exp.spec import ExperimentSpec
from .store import ShardedResultStore, create_store, open_store

__all__ = ["ExperimentDaemon", "Submission", "SUBMISSIONS_FILENAME"]

SUBMISSIONS_FILENAME = "submissions.jsonl"

#: Submission lifecycle states.
QUEUED, RUNNING, DONE, PARTIAL, CANCELLED, FAILED = (
    "queued", "running", "done", "partial", "cancelled", "failed")


class Submission:
    """One submitted spec's lifecycle inside the daemon."""

    __slots__ = ("id", "spec", "priority", "state", "error", "plan",
                 "total_jobs", "executed", "reused", "deferred", "failed",
                 "submitted_at", "finished_at", "tracker", "cancel_requested",
                 "recovered")

    def __init__(self, submission_id: str, spec: ExperimentSpec,
                 priority: int = 0, recovered: bool = False) -> None:
        self.id = submission_id
        self.spec = spec
        self.priority = priority
        self.state = QUEUED
        self.error: Optional[str] = None
        self.plan: Optional[ExperimentPlan] = None
        self.total_jobs = 0
        #: jobs this submission actually simulated
        self.executed = 0
        #: jobs answered by the store (content-hash dedupe)
        self.reused = 0
        #: jobs skipped because another live submission claimed them
        self.deferred = 0
        self.failed = 0
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        #: lazy StatusTracker for the status endpoint (own store handle)
        self.tracker = None
        self.cancel_requested = False
        self.recovered = recovered

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "experiment": self.spec.name,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "total_jobs": self.total_jobs,
            "executed": self.executed,
            "reused": self.reused,
            "deferred": self.deferred,
            "failed": self.failed,
            "recovered": self.recovered,
        }


class ExperimentDaemon:
    """Async experiment scheduler over a persistent result store.

    Parameters
    ----------
    store:
        Store root path or an opened :class:`ShardedResultStore`.  A
        fresh root gets its layout written up front
        (:func:`repro.svc.create_store`); a legacy flat root migrates in
        place on first load.
    workers / policy:
        Passed through to :func:`repro.exp.execute_plan` per chunk.  The
        default policy quarantines failing jobs (1 attempt) instead of
        killing the daemon.
    chunk_size:
        Jobs per executor batch; cancellation and drain take effect at
        chunk boundaries, so this bounds their latency.
    """

    def __init__(self, store: Union[str, Path, ShardedResultStore],
                 workers: int = 1,
                 policy: Optional[FaultPolicy] = None,
                 chunk_size: int = 16) -> None:
        if isinstance(store, ShardedResultStore):
            self.store = store
        else:
            self.store = create_store(store)
        self.root = Path(self.store.root)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.policy = policy if policy is not None else FaultPolicy()
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.submissions: Dict[str, Submission] = {}
        self._queue: List[tuple] = []  # (-priority, seq, submission_id)
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._wakeup: Optional[asyncio.Event] = None
        self._draining = False
        self._scheduler: Optional[asyncio.Task] = None
        self._current: Optional[Submission] = None
        #: hashes claimed by a queued/running submission but not yet stored
        self._claimed: Dict[str, str] = {}
        self.jobs_executed = 0
        self.jobs_reused = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, recover: bool = True) -> Dict[str, object]:
        """Load the store, optionally replay the journal, start scheduling.

        Returns a recovery report: stored record count and how many
        journaled submissions were re-queued because the store cannot
        fully answer them yet.
        """
        self._wakeup = asyncio.Event()
        self.store.load()
        requeued = 0
        if recover:
            requeued = self._recover_journal()
        self._scheduler = asyncio.ensure_future(self._run_scheduler())
        return {"records": len(self.store), "requeued": requeued}

    def _recover_journal(self) -> int:
        journal = self.root / SUBMISSIONS_FILENAME
        if not journal.exists():
            return 0
        requeued = 0
        seen: Dict[str, Dict[str, object]] = {}
        for line in journal.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a killed journal append
            if isinstance(payload, dict) and payload.get("id"):
                seen[str(payload["id"])] = payload
        for submission_id, payload in seen.items():
            try:
                spec = ExperimentSpec.from_dict(payload["spec"])
                plan = build_plan(spec, check_flat_ttl_sweep=False)
            except (KeyError, TypeError, ValueError):
                continue  # spec no longer valid under this build; skip
            missing = [job for job in plan.jobs
                       if job.job_hash not in self.store]
            submission = Submission(
                submission_id, spec,
                priority=int(payload.get("priority", 0)), recovered=True)
            submission.plan = plan
            submission.total_jobs = len(plan.jobs)
            self.submissions[submission_id] = submission
            if missing:
                self._enqueue(submission)
                requeued += 1
            else:
                submission.state = DONE
                submission.reused = len(plan.jobs)
                submission.finished_at = time.time()
            # keep id allocation past every journaled id
            tail = submission_id.rsplit("-", 1)[-1]
            if tail.isdigit():
                self._ids = itertools.count(
                    max(int(tail) + 1, next(self._ids)))
        return requeued

    async def drain(self) -> None:
        """Stop accepting work, finish the in-flight chunk, stop cleanly."""
        self._draining = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._scheduler is not None:
            await self._scheduler
            self._scheduler = None
        self.store.flush()

    @property
    def is_draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, spec: Union[ExperimentSpec, Dict[str, object]],
               priority: int = 0) -> Dict[str, object]:
        """Queue *spec*; returns the submission summary immediately.

        The grid is planned eagerly so an invalid spec is rejected at
        submit time (ValueError/KeyError propagate to the caller), and the
        dedupe preview — how many of its jobs the store already answers —
        comes back in the response.
        """
        if self._draining:
            raise RuntimeError("daemon is draining; not accepting work")
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.from_dict(spec)
        plan = build_plan(spec, check_flat_ttl_sweep=False)
        submission_id = f"sub-{next(self._ids):06d}"
        submission = Submission(submission_id, spec, priority=priority)
        submission.plan = plan
        submission.total_jobs = len(plan.jobs)
        done_already = sum(1 for job in plan.jobs
                           if job.job_hash in self.store)
        self.submissions[submission_id] = submission
        self._journal(submission)
        self._enqueue(submission)
        return {**submission.as_dict(), "already_stored": done_already}

    def _journal(self, submission: Submission) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"id": submission.id,
                           "priority": submission.priority,
                           "spec": submission.spec.to_dict()},
                          sort_keys=True).encode("utf-8") + b"\n"
        with open(self.root / SUBMISSIONS_FILENAME, "ab", buffering=0) as fh:
            fh.write(line)

    def _enqueue(self, submission: Submission) -> None:
        heapq.heappush(self._queue,
                       (-submission.priority, next(self._seq), submission.id))
        if self._wakeup is not None:
            self._wakeup.set()

    def cancel(self, submission_id: str) -> Dict[str, object]:
        """Cancel a queued submission, or stop a running one at the next
        chunk boundary.  Finished submissions are left untouched."""
        submission = self.submissions.get(submission_id)
        if submission is None:
            raise KeyError(f"no such submission: {submission_id}")
        if submission.state in (DONE, PARTIAL, FAILED, CANCELLED):
            return submission.as_dict()
        submission.cancel_requested = True
        if submission.state == QUEUED:
            submission.state = CANCELLED
            submission.finished_at = time.time()
            self._release_claims(submission.id)
        return submission.as_dict()

    def status(self, submission_id: str) -> Dict[str, object]:
        """The submission's state plus its StatusTracker payload.

        The tracker is the same :class:`repro.obs.StatusTracker` behind
        ``exp status`` / ``exp watch`` — classification comes from the
        store's entry view, refreshed incrementally per poll.  Each
        submission gets its own store handle so trackers don't consume
        each other's refresh increments.
        """
        submission = self.submissions.get(submission_id)
        if submission is None:
            raise KeyError(f"no such submission: {submission_id}")
        if submission.tracker is None:
            from ..obs.feed import StatusTracker

            submission.tracker = StatusTracker(
                submission.spec, store=open_store(self.root))
        payload = submission.tracker.refresh()
        payload["submission"] = submission.as_dict()
        return payload

    def list_submissions(self) -> List[Dict[str, object]]:
        return [submission.as_dict()
                for submission in self.submissions.values()]

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------
    async def _run_scheduler(self) -> None:
        assert self._wakeup is not None
        while True:
            while not self._queue:
                if self._draining:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            if self._draining:
                return
            _, _, submission_id = heapq.heappop(self._queue)
            submission = self.submissions.get(submission_id)
            if submission is None or submission.state != QUEUED:
                continue
            self._current = submission
            try:
                await self._run_submission(submission)
            except Exception as error:  # noqa: BLE001 — keep the daemon up
                submission.state = FAILED
                submission.error = f"{type(error).__name__}: {error}"
                submission.finished_at = time.time()
            finally:
                self._release_claims(submission.id)
                self._current = None

    async def _run_submission(self, submission: Submission) -> None:
        submission.state = RUNNING
        plan = submission.plan
        if plan is None:
            plan = submission.plan = build_plan(submission.spec,
                                                check_flat_ttl_sweep=False)
        # content-hash dedupe: drop jobs the store answers and jobs another
        # submission claimed this session (their records land when it runs)
        pending = []
        seen = set()
        for job in plan.jobs:
            if job.job_hash in seen:
                continue
            seen.add(job.job_hash)
            if job.job_hash in self.store:
                submission.reused += 1
            elif job.job_hash in self._claimed:
                submission.deferred += 1
            else:
                self._claimed[job.job_hash] = submission.id
                pending.append(job)
        self.jobs_reused += submission.reused
        for start in range(0, len(pending), self.chunk_size):
            if submission.cancel_requested or self._draining:
                break
            chunk = pending[start:start + self.chunk_size]
            chunk_plan = ExperimentPlan(spec=plan.spec, jobs=chunk)
            outcome = await asyncio.to_thread(
                execute_plan, chunk_plan, store=self.store,
                workers=self.workers, resume=True, policy=self.policy)
            submission.executed += len(outcome.executed)
            submission.failed += len(outcome.failed)
            self.jobs_executed += len(outcome.executed)
            for job in chunk:
                self._claimed.pop(job.job_hash, None)
        submission.finished_at = time.time()
        if submission.cancel_requested:
            submission.state = CANCELLED
        elif any(job.job_hash not in self.store for job in plan.jobs):
            # drained mid-grid, or deferred jobs whose claimer was
            # cancelled: honest state, resumable by resubmitting
            submission.state = PARTIAL
        else:
            submission.state = DONE

    def _release_claims(self, submission_id: str) -> None:
        for job_hash in [h for h, owner in self._claimed.items()
                         if owner == submission_id]:
            del self._claimed[job_hash]
