"""The fault policy and failure record of the one job dispatcher.

Without a policy :func:`repro.exp.pool.process_map` is strict: the first
job error is re-raised.  Given a :class:`FaultPolicy` it *finishes the
batch*: per-job wall-clock timeouts (``SIGALRM`` inside the worker raises
:class:`JobTimeout`), retries with capped-exponential backoff and jitter,
crash recovery (a job whose worker died is retried alone on a fresh pool)
and quarantine — a job that exhausts its budget becomes a
:class:`JobFailure` and the run continues, degraded.  Outcomes reach the
caller in job order within each retry round, so a store fed from them
writes the same bytes for every worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultPolicy", "JobFailure", "JobTimeout"]


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its wall-clock budget."""


@dataclass(frozen=True)
class FaultPolicy:
    """How :func:`~repro.exp.pool.process_map` treats failing jobs.

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
