"""The shared process-pool backend every experiment runner dispatches through.

Historically each pipeline carried its own fan-out plumbing; the pool now
lives in the orchestration layer and is reused by the batch experiments
(:mod:`repro.analysis.experiments`, :mod:`repro.forwarding.metrics`), the
scenario/sweep runners (:mod:`repro.sim.runner`), the tournament and the
:mod:`repro.exp` job executor.  Expensive shared state (space-time graphs,
contact traces) is built **once per worker process** via the pool
initializer rather than pickled per task; jobs are dispatched in chunks so
consecutive grid jobs land on the same worker and hit its caches.

Every fan-out takes one ``workers`` count: ``workers=1`` runs the jobs in
this process (no pool is created), ``N > 1`` a pool of at most N workers,
capped by the job count.  Environments that forbid spawning processes
(restricted sandboxes, some embedded interpreters) degrade gracefully: if
the pool cannot be created the work runs serially in the parent with
identical results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["process_map"]

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


class _JobError:
    """A job's exception, shipped back as a value instead of raised.

    ``pool.map`` surfaces a job exception *while iterating results*, which
    used to discard every already-completed result behind it in the stream.
    Wrapping the callable turns failures into values so the parent can
    drain — and persist — all completed work before re-raising the first
    error.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class _CapturingCall:
    """Picklable wrapper running *fn* and capturing its exceptions."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, job):
        try:
            return self.fn(job)
        except Exception as error:  # noqa: BLE001 — shipped to the parent
            return _JobError(error)


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
) -> List[_Result]:
    """``[fn(job) for job in jobs]`` over a process pool, preserving order.

    *fn* and every job must be picklable.  When *initializer* is given it
    runs once per worker (use it to build per-worker shared state).
    ``workers=1`` maps in this process, running *initializer* here first;
    so does a pool that cannot be created.

    *on_result* runs **in the parent**, in job order, as each result
    arrives — the orchestration layer persists RunRecords through it, so an
    interrupted run keeps everything completed so far.  It may be invoked a
    second time for early indices if a broken pool forces the serial
    fallback, so it must be idempotent (the store's last-write-wins
    indexing is).
    """
    jobs = list(jobs)
    workers = _pool_size(workers, len(jobs))
    if not jobs:
        return []
    if workers == 1:
        return _serial_map(fn, jobs, initializer, initargs, on_result)
    # ProcessPoolExecutor spawns workers lazily, so a forbidden fork/spawn
    # surfaces on first dispatch, not in the constructor.  Probe with a
    # no-op first: a spawn failure there (or workers dying later, seen as
    # BrokenProcessPool) falls back to a serial run, while an exception
    # raised by a job itself — including an OSError of its own — propagates
    # directly instead of silently re-running the whole batch.
    pool = ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                               initargs=initargs)
    try:
        pool.submit(_probe_worker).result()
    except (OSError, PermissionError, BrokenProcessPool):
        pool.shutdown(wait=False, cancel_futures=True)
        return _serial_map(fn, jobs, initializer, initargs, on_result)
    results: List[_Result] = []
    first_error: Optional[BaseException] = None
    try:
        with pool:
            chunksize = max(1, len(jobs) // (workers * 4))
            for index, result in enumerate(pool.map(_CapturingCall(fn), jobs,
                                                    chunksize=chunksize)):
                if isinstance(result, _JobError):
                    # keep draining: jobs after the failing one may already
                    # be done, and on_result must persist them before the
                    # error surfaces
                    if first_error is None:
                        first_error = result.error
                    continue
                if first_error is None:
                    if on_result is not None:
                        on_result(index, result)
                    results.append(result)
                elif on_result is not None:
                    on_result(index, result)
            if first_error is not None:
                raise first_error
            return results
    except BrokenProcessPool:
        if first_error is not None:
            raise first_error from None
        # results stream in order, so resume serially after the last one
        # collected instead of re-running the whole batch
        if initializer is not None:
            initializer(*initargs)
        for index in range(len(results), len(jobs)):
            result = fn(jobs[index])
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results


def _probe_worker() -> None:
    """No-op used to force worker spawn before dispatching real jobs."""


def _serial_map(fn, jobs: Sequence, initializer, initargs,
                on_result=None) -> List:
    if initializer is not None:
        initializer(*initargs)
    results = []
    for index, job in enumerate(jobs):
        result = fn(job)
        if on_result is not None:
            on_result(index, result)
        results.append(result)
    return results
