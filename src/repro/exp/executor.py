"""Fault-tolerant job execution: timeouts, retries, quarantine.

:func:`resilient_map` is the hardened sibling of
:func:`repro.exp.pool.process_map`.  Where ``process_map`` propagates the
first job exception (after draining completed work), ``resilient_map``
*finishes the batch*: every job either produces its result or a
:class:`JobFailure` describing why it could not, governed by a
:class:`FaultPolicy`:

* **per-job wall-clock timeout** — enforced inside the worker via
  ``SIGALRM`` (Unix; on platforms without it the timeout is a no-op), so a
  hung simulation is cut off without killing the worker;
* **retries with exponential backoff + jitter** — a job that raises (or
  times out) is re-dispatched up to ``max_attempts`` times total;
* **worker-crash recovery** — a job whose worker died (``os._exit``,
  OOM-kill, segfault) is retried on a fresh pool up to ``crash_retries``
  times; jobs that merely shared the doomed pool are retried without
  burning their own budget beyond that;
* **poison-job quarantine** — a job that exhausts its budget is marked
  failed and the run continues, degraded, instead of aborting the batch.

Outcomes are reported through ``on_outcome`` *as they become final* (in
completion order, not submission order), so a caller persisting records
loses nothing if the parent itself is killed mid-batch.
"""

from __future__ import annotations

import random
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .pool import _pool_size, _probe_worker

__all__ = ["FaultPolicy", "JobFailure", "JobTimeout", "resilient_map"]


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its wall-clock budget."""


@dataclass(frozen=True)
class FaultPolicy:
    """How :func:`resilient_map` treats failing jobs.

    Parameters
    ----------
    timeout_s:
        Per-job wall-clock budget in seconds (``None`` = unlimited).
    max_attempts:
        Total tries per job for its *own* failures (exceptions and
        timeouts); ``1`` means no retries.
    crash_retries:
        Extra re-dispatches granted when the job's worker process died —
        a crash takes out innocent pool-mates, so these are budgeted
        separately from the job's own failures.
    backoff_base_s / backoff_cap_s:
        Retry *n* waits ``min(backoff_base_s * 2**(n-1), backoff_cap_s)``
        seconds before re-dispatching.
    backoff_jitter:
        Uniform multiplicative jitter in ``[0, backoff_jitter]`` added to
        each backoff so retry storms decorrelate.
    """

    timeout_s: Optional[float] = None
    max_attempts: int = 1
    crash_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    backoff_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive or None")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.crash_retries < 0:
            raise ValueError("crash_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must be >= 0")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")

    def backoff(self, retry_number: int,
                rng: Optional[random.Random] = None) -> float:
        """Seconds to sleep before retry number *retry_number* (1-based)."""
        delay = min(self.backoff_base_s * (2.0 ** max(retry_number - 1, 0)),
                    self.backoff_cap_s)
        jitter = (rng or random).random() * self.backoff_jitter
        return delay * (1.0 + jitter)


@dataclass
class JobFailure:
    """Why one job could not produce a result (its quarantine record)."""

    error: str
    error_kind: str
    attempts: int
    elapsed_s: float
    detail: Optional[str] = None

    def describe(self) -> str:
        return f"{self.error_kind}: {self.error} (attempts={self.attempts})"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _alarm_handler(signum, frame):  # pragma: no cover — fires in workers
    raise JobTimeout("job exceeded its wall-clock budget")


class _GuardedCall:
    """Picklable wrapper: runs *fn* under the timeout, captures failures.

    Returns ``("ok", result, elapsed)`` or
    ``("err", kind, message, traceback, elapsed)`` — never raises for job
    errors, so the transport layer only surfaces infrastructure faults.
    """

    __slots__ = ("fn", "timeout_s")

    def __init__(self, fn: Callable, timeout_s: Optional[float]) -> None:
        self.fn = fn
        self.timeout_s = timeout_s

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
        except Exception as error:  # noqa: BLE001 — captured by design
            elapsed = time.perf_counter() - started
            kind = type(error).__name__
            return ("err", kind, str(error) or kind,
                    traceback.format_exc(), elapsed)
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        return ("ok", result, time.perf_counter() - started)


_WORKER_CRASH = "WorkerCrash"


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def resilient_map(
    fn: Callable,
    jobs: Iterable,
    policy: FaultPolicy,
    workers: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    on_outcome: Optional[Callable[[int, Union[object, JobFailure]], None]] = None,
) -> List[Union[object, JobFailure]]:
    """``process_map`` that completes the batch no matter which jobs fail.

    Returns one entry per job, order-preserved: the job's result, or a
    :class:`JobFailure` if it exhausted its retry budget.  *on_outcome*
    runs in the parent as each job's fate becomes final.  ``workers=1``
    (or an environment that cannot spawn processes) runs serially in the
    parent — timeouts still apply, but a job that kills its whole process
    (``os._exit``) then takes the parent with it; the pool is the
    crash boundary.
    """
    jobs = list(jobs)
    workers = _pool_size(workers, len(jobs))
    outcomes: List[Union[object, JobFailure]] = [None] * len(jobs)
    if not jobs:
        return outcomes
    guarded = _GuardedCall(fn, policy.timeout_s)
    failures: Dict[int, int] = {}       # index -> own failures so far
    crashes: Dict[int, int] = {}        # index -> worker crashes survived
    elapsed: Dict[int, float] = {}      # index -> cumulative in-job seconds
    last_error: Dict[int, Tuple[str, str, Optional[str]]] = {}
    rng = random.Random()

    def _finalize(index: int, value: Union[object, JobFailure]) -> None:
        outcomes[index] = value
        if on_outcome is not None:
            on_outcome(index, value)

    def _quarantine(index: int) -> None:
        kind, message, detail = last_error.get(
            index, ("Unknown", "job failed", None))
        _finalize(index, JobFailure(
            error=message, error_kind=kind,
            attempts=failures.get(index, 0) + crashes.get(index, 0),
            elapsed_s=round(elapsed.get(index, 0.0), 6), detail=detail))

    def _settle(index: int, outcome: Tuple) -> bool:
        """Record one guarded outcome; True when the job needs a re-try."""
        if outcome[0] == "ok":
            elapsed[index] = elapsed.get(index, 0.0) + outcome[2]
            _finalize(index, outcome[1])
            return False
        _, kind, message, detail, spent = outcome
        elapsed[index] = elapsed.get(index, 0.0) + spent
        last_error[index] = (kind, message, detail)
        if kind == _WORKER_CRASH:
            crashes[index] = crashes.get(index, 0) + 1
            if crashes[index] > policy.crash_retries:
                _quarantine(index)
                return False
            return True
        failures[index] = failures.get(index, 0) + 1
        if failures[index] >= policy.max_attempts:
            _quarantine(index)
            return False
        return True

    def _harvest(futures: Dict, retry: List[int]) -> None:
        """Drain *futures* (future -> job index), settling each outcome."""
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    outcome = ("err", _WORKER_CRASH,
                               "worker process died mid-job", None, 0.0)
                except Exception as error:  # noqa: BLE001 transport fault
                    outcome = ("err", type(error).__name__,
                               str(error) or type(error).__name__,
                               traceback.format_exc(), 0.0)
                if _settle(index, outcome):
                    retry.append(index)

    pending = list(range(len(jobs)))
    use_pool = workers > 1
    round_number = 0
    while pending:
        round_number += 1
        if round_number > 1:
            delay = policy.backoff(round_number - 1, rng)
            if delay > 0:
                time.sleep(delay)
        # a job whose worker already died once is a crash *suspect*: rerun
        # each one in its own single-worker pool so a genuinely poisonous
        # job can only kill itself, not pool-mates, on its next attempt
        suspects = [index for index in pending if crashes.get(index, 0) > 0]
        clean = [index for index in pending if crashes.get(index, 0) == 0]
        if use_pool and clean:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(clean)),
                                       initializer=initializer,
                                       initargs=initargs)
            try:
                pool.submit(_probe_worker).result()
            except (OSError, PermissionError, BrokenProcessPool):
                pool.shutdown(wait=True, cancel_futures=True)
                use_pool = False
        if not use_pool:
            if initializer is not None:
                initializer(*initargs)
            retry = []
            for index in pending:
                if _settle(index, guarded(jobs[index])):
                    retry.append(index)
            pending = retry
            continue
        retry: List[int] = []
        if clean:
            try:
                _harvest({pool.submit(guarded, jobs[index]): index
                          for index in clean}, retry)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        for index in suspects:
            solo = ProcessPoolExecutor(max_workers=1,
                                       initializer=initializer,
                                       initargs=initargs)
            try:
                _harvest({solo.submit(guarded, jobs[index]): index}, retry)
            finally:
                solo.shutdown(wait=True, cancel_futures=True)
        # deterministic re-dispatch order regardless of completion order
        pending = sorted(retry)
    return outcomes
