"""Persistent JSONL result store keyed by job content hash.

Records append to ``<root>/records.jsonl``, one canonical-JSON dict per
line, so the store is durable across crashes (every ``put`` is flushed),
mergeable with ``cat``, and greppable.  Lookups go through an in-memory
index built lazily from the file; on duplicate hashes the last line wins,
which makes blind re-appends (e.g. an interrupted run retried with
``resume=False``) harmless.

Resumability falls out of content addressing: re-planning a spec yields the
same job hashes, so completed jobs are served from the store and only the
delta — new seeds, new protocols, new sweep values — is executed.

:class:`BaseResultStore` is the interface every consumer programs against
(the orchestrator, :class:`repro.obs.StatusTracker`, the experiment
service).  :class:`ResultStore` is the flat single-file implementation;
:class:`repro.svc.ShardedResultStore` fans the same records out by
job-hash prefix with per-shard offset indexes so million-record stores
stay queryable.  The shared currency between them is the *entry* — a
lightweight per-record summary (:func:`record_entry`) carrying everything
status tracking, filtered queries and leaderboard aggregation need without
decoding the full outcome stream.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["BaseResultStore", "ResultStore", "record_entry",
           "DEFAULT_STORE_ROOT"]

#: Default store location, relative to the invoking process's cwd.
DEFAULT_STORE_ROOT = "results"

RECORDS_FILENAME = "records.jsonl"

#: The record fields a filtered query may match on (entry-level, so no
#: record body needs decoding to evaluate a filter).
QUERY_FIELDS = ("scenario", "protocol", "seed", "status", "experiment")


def record_entry(record: Dict[str, object]) -> Dict[str, object]:
    """The lightweight *entry* summarizing one stored RunRecord.

    Entries are what status tracking, filtered queries and leaderboard
    aggregation consume: job identity and grid coordinates, the
    done/failed classification (mirroring what a run would reuse), and —
    for decodable success records — the delivery summary, all without
    keeping (or re-reading) the full outcome stream.  The sharded store
    persists exactly this shape in its per-shard index lines.
    """
    from .records import is_decodable, is_failure_record

    entry: Dict[str, object] = {
        "job_hash": record.get("job_hash"),
        "status": record.get("status", "ok"),
        "decodable": is_decodable(record),
        "failed": is_failure_record(record),
        "experiment": record.get("experiment"),
        "scenario": record.get("scenario"),
        "protocol": record.get("protocol"),
        "seed": record.get("seed"),
        "run_index": record.get("run_index"),
    }
    if entry["failed"]:
        entry["error_kind"] = record.get("error_kind", "Unknown")
        entry["error"] = record.get("error", "")
        entry["attempts"] = record.get("attempts", 1)
    if entry["decodable"]:
        payload = record["result"]
        outcomes = payload.get("outcomes", [])
        delivered = 0
        delay_sum = 0.0
        for outcome in outcomes:
            # outcome rows are [id, src, dst, created, size, ttl,
            # delivered, delivery_time, hops] — see records.encode_record
            if outcome[6]:
                delivered += 1
                if outcome[7] is not None:
                    delay_sum += float(outcome[7]) - float(outcome[3])
        stats = payload.get("stats", {})
        entry["messages"] = len(outcomes)
        entry["delivered"] = delivered
        entry["delay_sum"] = delay_sum
        entry["copies"] = int(stats.get("copies_sent", 0) or 0)
    return entry


def _entry_matches(entry: Dict[str, object], filters: Dict[str, object]) -> bool:
    for key, wanted in filters.items():
        if wanted is None:
            continue
        if key == "seed":
            if entry.get("seed") != wanted:
                return False
        elif entry.get(key) != wanted:
            return False
    return True


class BaseResultStore:
    """The store interface: durable ``job_hash -> RunRecord`` mapping.

    Implementations provide :meth:`load`, :meth:`get`, :meth:`put`,
    :meth:`records`, :meth:`entries` and :meth:`refresh_entries`; the
    query/leaderboard helpers here are generic brute-force fallbacks that
    sharded stores override with index-backed fast paths.  ``root`` and
    ``path`` name the on-disk location (``path`` is whatever is most
    useful to print).
    """

    root: Path
    path: Path

    # -- required primitives -------------------------------------------
    def load(self, refresh: bool = False) -> None:
        raise NotImplementedError

    def get(self, job_hash: str) -> Optional[Dict[str, object]]:
        raise NotImplementedError

    def put(self, record: Dict[str, object]) -> None:
        raise NotImplementedError

    def records(self) -> Iterator[Dict[str, object]]:
        raise NotImplementedError

    def hashes(self) -> List[str]:
        raise NotImplementedError

    def entries(self) -> List[Dict[str, object]]:
        """Lightweight :func:`record_entry` summaries of every record."""
        raise NotImplementedError

    def refresh_entries(self) -> List[Dict[str, object]]:
        """Entries appended since the last load/refresh (see
        :meth:`ResultStore.refresh` for the incremental-read contract);
        the first call loads the store and returns everything."""
        raise NotImplementedError

    # -- generic conveniences ------------------------------------------
    def entry_for(self, job_hash: str) -> Optional[Dict[str, object]]:
        """The entry for *job_hash*, or ``None`` — without decoding the
        record body where the implementation can avoid it."""
        record = self.get(job_hash)
        return None if record is None else record_entry(record)

    def flush(self) -> None:
        """Persist any write-behind state (caches, aggregates)."""

    def __contains__(self, job_hash: str) -> bool:
        return self.get(job_hash) is not None

    def __len__(self) -> int:
        return len(self.hashes())

    def query_entries(self, scenario: Optional[str] = None,
                      protocol: Optional[str] = None,
                      seed: Optional[int] = None,
                      status: Optional[str] = None,
                      experiment: Optional[str] = None,
                      limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Entries matching the given filters, sorted by job hash.

        The brute-force fallback scans :meth:`entries`; the sharded store
        overrides this with bucketed index lookups.
        """
        filters = {"scenario": scenario, "protocol": protocol, "seed": seed,
                   "status": status, "experiment": experiment}
        matches = [entry for entry in self.entries()
                   if _entry_matches(entry, filters)]
        matches.sort(key=lambda entry: entry["job_hash"] or "")
        return matches if limit is None else matches[:limit]

    def query(self, scenario: Optional[str] = None,
              protocol: Optional[str] = None,
              seed: Optional[int] = None,
              status: Optional[str] = None,
              experiment: Optional[str] = None,
              limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Full RunRecords matching the given filters, sorted by job hash.

        Filters apply at the entry level, so implementations holding an
        index never parse a non-matching record body.
        """
        selected = self.query_entries(scenario=scenario, protocol=protocol,
                                      seed=seed, status=status,
                                      experiment=experiment, limit=limit)
        out = []
        for entry in selected:
            record = self.get(entry["job_hash"])
            if record is not None:
                out.append(record)
        return out

    def leaderboard(self) -> List[Dict[str, object]]:
        """Per-protocol standings pooled over every decodable record.

        Rows are ranked by success rate, then mean delay, then protocol
        name; a sharded store serves this from its incrementally
        maintained aggregate cache instead of re-scanning.
        """
        return aggregate_leaderboard(self.entries())


def aggregate_leaderboard(entries) -> List[Dict[str, object]]:
    """Fold entries into the per-protocol leaderboard rows.

    Pure function of the entry multiset, so a store rebuilding its cache
    and a store updating it incrementally converge on the same rows.
    """
    pools: Dict[str, Dict[str, float]] = {}
    for entry in entries:
        fold_entry(pools, entry)
    return rank_pools(pools)


def fold_entry(pools: Dict[str, Dict[str, float]], entry: Dict[str, object],
               sign: int = 1) -> None:
    """Fold one decodable entry into (``sign=-1``: out of) its protocol's
    pool of job, message, delivery and copy counts and delay sum."""
    if not entry.get("decodable"):
        return
    pool = pools.setdefault(str(entry.get("protocol")), {
        "jobs": 0, "messages": 0, "delivered": 0,
        "copies": 0, "delay_sum": 0.0})
    pool["jobs"] += sign
    pool["messages"] += sign * int(entry.get("messages", 0))
    pool["delivered"] += sign * int(entry.get("delivered", 0))
    pool["copies"] += sign * int(entry.get("copies", 0))
    pool["delay_sum"] += sign * float(entry.get("delay_sum", 0.0))


def rank_pools(pools: Dict[str, Dict[str, float]]) -> List[Dict[str, object]]:
    """The leaderboard rows of per-protocol pools (those holding jobs),
    ranked by success rate, then mean delay, then protocol name."""
    rows = []
    for protocol, pool in pools.items():
        if pool["jobs"] <= 0:
            continue
        messages = int(pool["messages"])
        delivered = int(pool["delivered"])
        rows.append({
            "protocol": protocol,
            "jobs": int(pool["jobs"]),
            "messages": messages,
            "delivered": delivered,
            "success_rate": (round(delivered / messages, 6)
                             if messages else 0.0),
            "mean_delay_s": (round(pool["delay_sum"] / delivered, 6)
                             if delivered else None),
            "copies_per_delivery": (round(pool["copies"] / delivered, 6)
                                    if delivered else None),
        })
    rows.sort(key=lambda row: (
        -row["success_rate"],
        row["mean_delay_s"] if row["mean_delay_s"] is not None
        else float("inf"),
        row["protocol"],
    ))
    return [{"rank": position + 1, **row}
            for position, row in enumerate(rows)]


class ResultStore(BaseResultStore):
    """Durable ``job_hash -> RunRecord`` mapping backed by one JSONL file."""

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self.path = self.root / RECORDS_FILENAME
        self._index: Dict[str, Dict[str, object]] = {}
        self._loaded = False
        # set when load() found a truncated tail from a killed append:
        # _valid_size is then the byte length of the intact record prefix
        # and the next put() cuts the tail off before appending
        self._truncated_tail = False
        self._valid_size = 0
        self._size_at_load = 0

    # ------------------------------------------------------------------
    def load(self, refresh: bool = False) -> None:
        """Build (or rebuild) the in-memory index from disk."""
        if self._loaded and not refresh:
            return
        self._index = {}
        raw = self.path.read_bytes() if self.path.exists() else b""
        self._truncated_tail = False
        self._valid_size = len(raw)
        self._size_at_load = len(raw)
        chunks = raw.split(b"\n")
        offset = 0
        for line_number, chunk in enumerate(chunks, start=1):
            if chunk.strip():
                try:
                    record = json.loads(chunk.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    if not b"\n".join(chunks[line_number:]).strip():
                        # a kill mid-append leaves a partial final line;
                        # every earlier record is intact, so keep them (the
                        # lost job simply re-runs) and remember where the
                        # valid prefix ends so the next put truncates first
                        warnings.warn(
                            f"ignoring truncated final record at "
                            f"{self.path}:{line_number}", stacklevel=2)
                        self._truncated_tail = True
                        self._valid_size = offset
                        break
                    # records are independent, content-addressed lines:
                    # dropping a damaged one only means its job re-runs,
                    # which beats bricking the whole store
                    warnings.warn(
                        f"skipping corrupt record at "
                        f"{self.path}:{line_number}", stacklevel=2)
                else:
                    job_hash = record.get("job_hash")
                    if not job_hash:
                        warnings.warn(
                            f"skipping record without job_hash at "
                            f"{self.path}:{line_number}", stacklevel=2)
                    else:
                        self._index[job_hash] = record
            offset += len(chunk) + 1
        self._loaded = True

    def refresh(self) -> List[Dict[str, object]]:
        """Index records appended since the last load/refresh; return them.

        This is the incremental read behind ``exp watch``: instead of
        re-reading the whole file per poll, only the byte range past the
        last known-valid prefix is parsed.  A partial final line (a writer
        caught mid-append) is left unconsumed and retried on the next
        refresh.  If the file shrank (store rewritten), a full reload runs
        and every record is returned.
        """
        if not self._loaded:
            self.load()
            return list(self._index.values())
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        if size < self._valid_size or self._truncated_tail:
            self.load(refresh=True)
            return list(self._index.values())
        if size == self._valid_size:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self._valid_size)
            raw = handle.read(size - self._valid_size)
        fresh: List[Dict[str, object]] = []
        chunks = raw.split(b"\n")
        offset = self._valid_size
        for position, chunk in enumerate(chunks):
            is_last = position == len(chunks) - 1
            if chunk.strip():
                try:
                    record = json.loads(chunk.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    if is_last:
                        # a writer is mid-append: leave the partial line
                        # for the next refresh (do NOT mark the store
                        # truncated — the line is still being written)
                        break
                    warnings.warn(
                        f"skipping corrupt record in {self.path}",
                        stacklevel=2)
                else:
                    job_hash = record.get("job_hash")
                    if job_hash:
                        self._index[job_hash] = record
                        fresh.append(record)
            if is_last:
                # a complete final chunk is either empty (file ended with
                # a newline) or a parsed record without a trailing newline
                offset += len(chunk)
            else:
                offset += len(chunk) + 1
        self._valid_size = offset
        return fresh

    def get(self, job_hash: str) -> Optional[Dict[str, object]]:
        """The stored record for *job_hash*, or ``None``."""
        self.load()
        return self._index.get(job_hash)

    def put(self, record: Dict[str, object]) -> None:
        """Append *record* (must carry ``job_hash``) and index it."""
        job_hash = record.get("job_hash")
        if not job_hash:
            raise ValueError("a RunRecord needs a job_hash")
        self.load()
        self.root.mkdir(parents=True, exist_ok=True)
        if self._truncated_tail and self.path.exists() and \
                self.path.stat().st_size == self._size_at_load:
            # cut off the truncated tail load() found, so the new record
            # starts a fresh line instead of gluing onto the partial one.
            # The size guard skips the truncate when another writer
            # appended (and thereby repaired the tail) since our load;
            # stat-then-truncate is not atomic, so a writer racing into
            # that exact window can still lose one record — bounded harm,
            # as the lost job simply re-runs on the next resume.
            with open(self.path, "r+b") as handle:
                handle.truncate(self._valid_size)
        self._truncated_tail = False
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")).encode("utf-8") + b"\n"
        if self._last_byte_is_not_newline():
            # the file ends mid-line — our own loaded tail, or a line
            # another writer never finished; close it before appending so
            # records never glue together (at worst this inserts a blank
            # line, which load() skips)
            line = b"\n" + line
        # one unbuffered O_APPEND write per record: concurrent writers
        # cannot interleave inside a line
        with open(self.path, "ab", buffering=0) as handle:
            handle.write(line)
        self._index[job_hash] = record

    def _last_byte_is_not_newline(self) -> bool:
        """Live probe of the file's final byte (the file may have grown
        under another writer since load())."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, 2)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, 2)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    # ------------------------------------------------------------------
    def __contains__(self, job_hash: str) -> bool:
        self.load()
        return job_hash in self._index

    def __len__(self) -> int:
        self.load()
        return len(self._index)

    def hashes(self) -> List[str]:
        """All stored job hashes."""
        self.load()
        return list(self._index)

    def records(self) -> Iterator[Dict[str, object]]:
        """All stored records (last write per hash wins)."""
        self.load()
        return iter(list(self._index.values()))

    # ------------------------------------------------------------------
    # the entry view (BaseResultStore): derived from the in-memory index,
    # which the flat store keeps in full anyway
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, object]]:
        self.load()
        return [record_entry(record) for record in self._index.values()]

    def refresh_entries(self) -> List[Dict[str, object]]:
        if not self._loaded:
            return self.entries()
        return [record_entry(record) for record in self.refresh()]
