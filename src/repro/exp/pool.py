"""The one job dispatcher every experiment runner fans out through.

:func:`process_map` is the only pool loop in the package.  The batch
experiments (:mod:`repro.analysis.experiments`,
:mod:`repro.forwarding.metrics`), the scenario/sweep runners
(:mod:`repro.sim.runner`), the tournament and the :mod:`repro.exp` job
executor all call it.  Expensive shared state (space-time graphs, contact
traces) is built **once per worker process** via the pool initializer
rather than pickled per task; jobs are dispatched in chunks so consecutive
grid jobs land on the same worker and hit its caches.

Every fan-out takes one ``workers`` count: ``workers=1`` runs the jobs in
this process (no pool is created), ``N > 1`` a pool of at most N workers,
capped by the job count.  Environments that forbid spawning processes
(restricted sandboxes, some embedded interpreters) degrade gracefully: if
the pool cannot be created the work runs serially in the parent with
identical results.

Every job runs through one guarded call and settles in retry rounds.
Within a round, results reach ``on_result`` in job order, whatever the
worker count, so a store fed from it is byte-identical for every
``workers``.  A job whose worker process died is a crash suspect: the next
round runs each suspect alone in a one-worker pool, so a poisonous job can
only kill itself.  What a job error means depends on the
:class:`~repro.exp.executor.FaultPolicy`:

* ``policy=None`` (strict) — a job's exception is final and re-raised with
  its own type: at once in a serial run, after the batch drains in a pool
  run.  A worker crash is retried under the default policy's crash budget
  and then raised as :class:`BrokenProcessPool`.
* with a policy — timeouts, retries with backoff and quarantine apply, and
  a job that exhausts its budget becomes a
  :class:`~repro.exp.executor.JobFailure` value instead of aborting the
  batch.
"""

from __future__ import annotations

import random
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from .executor import FaultPolicy, JobFailure, JobTimeout

__all__ = ["process_map"]

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")

_WORKER_CRASH = "WorkerCrash"
_CRASH_MESSAGE = "worker process died mid-job"


def _alarm_handler(signum, frame):  # pragma: no cover — fires in workers
    raise JobTimeout("job exceeded its wall-clock budget")


def _error_outcome(error: Exception, strict: bool, elapsed: float) -> Tuple:
    """A failed job's outcome: strict runs ship the exception itself (to be
    re-raised with its own type); policy runs ship its type name, message
    and traceback text, which always pickle."""
    if strict:
        return False, error, elapsed
    kind = type(error).__name__
    return False, (kind, str(error) or kind, traceback.format_exc()), elapsed


class _GuardedCall:
    """Picklable wrapper: runs *fn* under the timeout, captures failures.

    Returns ``(True, result, elapsed)`` or an :func:`_error_outcome` — it
    never raises for a job's own error, so the transport layer surfaces
    only infrastructure faults.  The timeout uses ``SIGALRM`` (Unix, main
    thread; elsewhere it is a no-op), so a hung job is cut off without
    killing its worker.
    """

    __slots__ = ("fn", "timeout_s", "strict")

    def __init__(self, fn: Callable, timeout_s: Optional[float],
                 strict: bool) -> None:
        self.fn = fn
        self.timeout_s = timeout_s
        self.strict = strict

    def __call__(self, job):
        started = time.perf_counter()
        armed = (self.timeout_s is not None
                 and hasattr(signal, "SIGALRM")
                 and threading.current_thread() is threading.main_thread())
        previous = None
        if armed:
            previous = signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        try:
            result = self.fn(job)
        except Exception as error:  # noqa: BLE001 — shipped to the parent
            return _error_outcome(error, self.strict,
                                  time.perf_counter() - started)
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        return True, result, time.perf_counter() - started


def _run_chunk(guarded: _GuardedCall, jobs: List) -> List[Tuple]:
    """One pool task: consecutive jobs on one worker, sharing its caches."""
    return [guarded(job) for job in jobs]


def _probe_worker() -> None:
    """No-op used to force worker spawn before dispatching real jobs."""


def _spawn(workers: int, initializer, initargs) -> Optional[ProcessPoolExecutor]:
    """A started pool of *workers* processes, or ``None`` where processes
    cannot be spawned.  ProcessPoolExecutor spawns lazily, so a forbidden
    fork surfaces on first dispatch: the no-op probe forces it here, before
    any job runs, and a job's own ``OSError`` is never mistaken for it."""
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=initializer, initargs=initargs)
        pool.submit(_probe_worker).result()
        return pool
    except (OSError, BrokenProcessPool):
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return None


def _pool_size(workers: int, num_jobs: int) -> int:
    """*workers*, validated and capped by the job count."""
    if workers < 1:
        raise ValueError("workers must be positive")
    return max(1, min(workers, num_jobs))


def process_map(
    fn: Callable[[_Job], _Result],
    jobs: Iterable[_Job],
    workers: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_result: Optional[Callable[[int, _Result], None]] = None,
    policy: Optional[FaultPolicy] = None,
) -> List[_Result]:
    """``[fn(job) for job in jobs]`` over a process pool, preserving order.

    *fn* and every job must be picklable.  When *initializer* is given it
    runs once per worker (use it to build per-worker shared state).
    ``workers=1`` maps in this process, running *initializer* here first;
    so does a pool that cannot be created.

    *on_result* runs **in the parent** as each job settles, in job order
    within each retry round — the orchestration layer persists RunRecords
    through it, so an interrupted run keeps everything settled so far.

    Without a *policy* a job error is final: it is re-raised with its own
    type, at once in a serial run and after the batch drains (every other
    result delivered to *on_result*) in a pool run.  With a *policy* the
    batch always completes: each entry is the job's result or, once its
    retry budget is spent, a :class:`JobFailure`.  A serial run has no
    crash boundary — a job that kills its process (``os._exit``) takes the
    parent with it.
    """
    jobs = list(jobs)
    workers = _pool_size(workers, len(jobs))
    results: List = [None] * len(jobs)
    if not jobs:
        return results
    strict = policy is None
    rules = FaultPolicy() if strict else policy
    guarded = _GuardedCall(fn, rules.timeout_s, strict)
    failures = [0] * len(jobs)      # own failures (exceptions, timeouts)
    crashes = [0] * len(jobs)       # worker deaths survived
    elapsed = [0.0] * len(jobs)     # cumulative in-job seconds
    first_error: Optional[BaseException] = None
    in_pool = workers > 1
    initialized = False
    rng = random.Random()

    def settle(index: int, outcome: Optional[Tuple]) -> bool:
        """Record one outcome (``None``: the worker died); True when the
        job must run again."""
        nonlocal first_error
        if outcome is None:
            crashes[index] += 1
            if crashes[index] <= rules.crash_retries:
                return True
            error = (BrokenProcessPool(_CRASH_MESSAGE) if strict
                     else (_WORKER_CRASH, _CRASH_MESSAGE, None))
        else:
            ok, value, spent = outcome
            elapsed[index] += spent
            if ok:
                results[index] = value
                if on_result is not None:
                    on_result(index, value)
                return False
            failures[index] += 1
            if failures[index] < rules.max_attempts:
                return True
            error = value
        if strict:
            if not in_pool:
                raise error
            if first_error is None:
                first_error = error
            return False
        kind, message, detail = error
        results[index] = JobFailure(
            error=message, error_kind=kind,
            attempts=failures[index] + crashes[index],
            elapsed_s=round(elapsed[index], 6), detail=detail)
        if on_result is not None:
            on_result(index, results[index])
        return False

    def pooled(pool, pending: List[int], clean: List[int]):
        """Yield ``(index, outcome)`` for *pending* in job order: *clean*
        jobs in chunks on *pool*, each crash suspect alone on a fresh
        one-worker pool."""
        tasks = {}
        size = max(1, len(clean) // (workers * 4))
        for start in range(0, len(clean), size):
            chunk = clean[start:start + size]
            future = pool.submit(_run_chunk, guarded,
                                 [jobs[index] for index in chunk])
            for position, index in enumerate(chunk):
                tasks[index] = (future, position)
        try:
            for index in pending:
                solo = None
                if index in tasks:
                    future, position = tasks[index]
                else:
                    solo = ProcessPoolExecutor(max_workers=1,
                                               initializer=initializer,
                                               initargs=initargs)
                    future, position = solo.submit(
                        _run_chunk, guarded, [jobs[index]]), 0
                try:
                    outcome = future.result()[position]
                except BrokenProcessPool:
                    outcome = None
                except Exception as error:  # noqa: BLE001 transport fault
                    outcome = _error_outcome(error, strict, 0.0)
                finally:
                    if solo is not None:
                        solo.shutdown(wait=True, cancel_futures=True)
                yield index, outcome
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    pending = list(range(len(jobs)))
    round_number = 0
    while pending:
        round_number += 1
        if round_number > 1:
            delay = rules.backoff(round_number - 1, rng)
            if delay > 0:
                time.sleep(delay)
        stream = None
        if in_pool:
            clean = [index for index in pending if not crashes[index]]
            pool = (_spawn(min(workers, len(clean)), initializer, initargs)
                    if clean else None)
            if clean and pool is None:
                in_pool = False
            else:
                stream = pooled(pool, pending, clean)
        if stream is None:
            if not initialized and initializer is not None:
                initializer(*initargs)
            initialized = True
            stream = ((index, guarded(jobs[index])) for index in pending)
        with closing(stream):
            pending = [index for index, outcome in stream
                       if settle(index, outcome)]
    if first_error is not None:
        raise first_error
    return results
