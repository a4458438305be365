"""Live experiment feeds: incremental status and a live leaderboard.

:class:`StatusTracker` answers "how far along is this experiment?" without
rescanning the whole JSONL store on every poll: the plan is built once,
every planned job hash is classified once from a single pass over the
store index, and subsequent :meth:`~StatusTracker.refresh` calls parse
only the index bytes appended since the previous poll (via
:meth:`repro.svc.store.ShardedResultStore.refresh_entries`).  ``exp
status`` is a one-shot refresh; ``exp watch`` polls it in a loop.

:class:`LiveLeaderboard` is the tournament's standings while it runs: it
keeps each protocol's results as they land through the pool's progress
callback and pools them with
:func:`repro.forwarding.metrics.pooled_leaderboard_rows`, the function
behind the final table, so its rows equal the final rows over the same
results.

Imports from :mod:`repro.exp` stay lazy: ``repro.exp`` imports
:mod:`repro.obs` at module level (the orchestrator attaches telemetry),
so the reverse edge must not exist at import time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.tables import format_table

__all__ = ["StatusTracker", "LiveLeaderboard"]


class StatusTracker:
    """Incremental done/failed/pending view of one experiment spec.

    Classification mirrors what a run would reuse: a stored record this
    build cannot decode counts as pending; quarantined (``failed``)
    records get their own bucket.  The first :meth:`refresh` loads the
    store once; later calls only read appended records, so polling a
    large store stays cheap.
    """

    def __init__(self, spec, store=None) -> None:
        from ..exp.orchestrator import _resolve_store
        from ..exp.plan import build_plan

        self.spec = spec
        # status must never build traces or workloads, so the flat-ttl
        # sweep check (which needs workloads) is deferred to the run
        self.plan = build_plan(spec, check_flat_ttl_sweep=False)
        self.store = _resolve_store(store)
        self._watched = {job.job_hash for job in self.plan.jobs}
        self._classified: Dict[str, str] = {}
        self._failure_info: Dict[str, Dict[str, object]] = {}
        self._primed = False

    # ------------------------------------------------------------------
    def _classify(self, job_hash: str,
                  entry: Optional[Dict[str, object]]) -> None:
        # classification consumes the store's lightweight entry view
        # (repro.exp.store.record_entry), read straight from index lines
        # with no record body reads
        if entry is not None and entry.get("decodable"):
            self._classified[job_hash] = "done"
            self._failure_info.pop(job_hash, None)
        elif entry is not None and entry.get("failed"):
            self._classified[job_hash] = "failed"
            self._failure_info[job_hash] = {
                "error_kind": entry.get("error_kind", "Unknown"),
                "error": entry.get("error", ""),
                "attempts": entry.get("attempts", 1),
            }
        else:
            self._classified[job_hash] = "pending"
            self._failure_info.pop(job_hash, None)

    def refresh(self) -> Dict[str, object]:
        """Re-read any new store records and return the status payload.

        The payload matches :func:`repro.exp.orchestrator.
        experiment_status` exactly: ``experiment``, ``total_jobs``,
        ``done`` / ``failed`` / ``pending``, per-scenario ``scenarios``
        buckets, ``failures`` rows and the ``store`` path.
        """
        if self.store is None:
            for job_hash in self._watched:
                self._classified.setdefault(job_hash, "pending")
        elif not self._primed:
            self.store.load()
            for job_hash in self._watched:
                self._classify(job_hash, self.store.entry_for(job_hash))
            self._primed = True
        else:
            for entry in self.store.refresh_entries():
                job_hash = entry.get("job_hash")
                if job_hash in self._watched:
                    self._classify(job_hash, entry)
        return self._assemble()

    def _assemble(self) -> Dict[str, object]:
        per_scenario: Dict[str, Dict[str, int]] = {}
        failure_rows: List[Dict[str, object]] = []
        seen_failures = set()
        for job in self.plan.jobs:
            bucket = per_scenario.setdefault(
                job.scenario_name,
                {"jobs": 0, "done": 0, "pending": 0, "failed": 0})
            bucket["jobs"] += 1
            state = self._classified.get(job.job_hash, "pending")
            bucket[state] += 1
            if state == "failed" and job.job_hash not in seen_failures:
                seen_failures.add(job.job_hash)
                info = self._failure_info.get(job.job_hash, {})
                failure_rows.append({
                    "scenario": job.scenario_name,
                    "protocol": job.protocol,
                    "seed": job.seed,
                    "run_index": job.run_index,
                    "job_hash": job.job_hash,
                    "error_kind": info.get("error_kind", "Unknown"),
                    "error": info.get("error", ""),
                    "attempts": info.get("attempts", 1),
                })
        total = len(self.plan.jobs)
        done = sum(bucket["done"] for bucket in per_scenario.values())
        failed = sum(bucket["failed"] for bucket in per_scenario.values())
        return {
            "experiment": self.spec.name,
            "total_jobs": total,
            "done": done,
            "failed": failed,
            "pending": total - done - failed,
            "scenarios": per_scenario,
            "failures": failure_rows,
            "store": None if self.store is None else str(self.store.root),
        }

    @property
    def is_complete(self) -> bool:
        """True once every planned job is done or quarantined."""
        states = [self._classified.get(job_hash, "pending")
                  for job_hash in self._watched]
        return bool(states) and all(state != "pending" for state in states)


class LiveLeaderboard:
    """Per-protocol standings, updated as jobs complete.

    :meth:`observe` keeps each result; :meth:`rows` re-pools them all (a
    ``routing tournament --live`` grid redraws about ten times).  The
    results are the ones the tournament holds anyway, so the board adds
    references, not copies.
    """

    def __init__(self, protocols=()) -> None:
        self._results: Dict[str, List[object]] = {
            name: [] for name in protocols
        }
        self.num_observed = 0

    def observe(self, protocol: str, result) -> None:
        """Add one finished job's result to the protocol's pool."""
        self._results.setdefault(protocol, []).append(result)
        self.num_observed += 1

    def rows(self) -> List[Dict[str, object]]:
        """Current standings, pooled and ranked like the tournament's."""
        from ..forwarding.metrics import pooled_leaderboard_rows

        return pooled_leaderboard_rows(self._results)

    def table(self) -> str:
        """The current standings as an aligned text table."""
        return format_table(self.rows())
