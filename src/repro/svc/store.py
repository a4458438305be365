"""The result store: job-hash-prefix shards + offset indexes.

:class:`ShardedResultStore` is the one ``job_hash -> RunRecord`` store
behind every ``--store DIR``: ``exp run|resume|status|watch``, the svc
daemon, its HTTP API and the offline ``svc query|leaderboard|compact``.
Records are append-only canonical JSON lines, fanned out by job-hash
prefix::

    <root>/store.json                   # layout metadata (shard width)
    <root>/shards/<prefix>/records.jsonl
    <root>/shards/<prefix>/index.jsonl  # one entry line per record line

Each ``records.jsonl`` append is followed by an ``index.jsonl`` append
carrying the record's byte ``offset``/``length`` plus the lightweight
:func:`repro.exp.store.record_entry` summary (grid coordinates,
done/failed classification, delivery counts).  Everything except fetching
a specific record body — status tracking, filtered queries, leaderboards,
resume planning — is answered from index lines alone, which are an order
of magnitude smaller than record lines; record bodies are read by
``seek(offset); read(length)``, never by scanning.

Crash safety: appends are single unbuffered ``O_APPEND`` writes
(concurrent writers cannot interleave inside a line, and POSIX appends
make ``tell()`` after the write name our line's exact offset even under
contention), and an append that finds the file ending mid-line — a writer
killed mid-append — first closes that line.  The index is *advisory*: on
load, any record bytes past the index's coverage (a writer killed between
the two appends, a torn index tail) are rescanned from the records file
and the index self-heals by appending the recovered lines; a damaged
interior index line makes its shard rebuild the index from the records
file once.  Losing an index entirely costs one shard rescan, never data.

Leaderboard aggregates are maintained in memory as entries are absorbed —
every append folds the new entry in (and unfolds the entry it
supersedes) — and never rebuilt by re-reading record bodies.  Every put
is durable when it returns; nothing is written behind.

A legacy flat root (a single ``<root>/records.jsonl``, the layout older
versions wrote) is migrated in place the first time a handle loads it:
its records are appended to the shards and the file is renamed to
``records.jsonl.migrated``.  :func:`migrate_store` runs the same
migration into another directory, leaving the source untouched, and
:meth:`ShardedResultStore.compact` rewrites shards dropping superseded
records while preserving query results byte for byte.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..exp.store import _entry_matches, fold_entry, rank_pools, record_entry

__all__ = ["ShardedResultStore", "open_store", "create_store",
           "migrate_store", "encode_index_line", "decode_index_line",
           "INDEX_SCHEMA", "DEFAULT_SHARD_WIDTH"]

INDEX_SCHEMA = 1
DEFAULT_SHARD_WIDTH = 2
STORE_META_FILENAME = "store.json"
SHARDS_DIRNAME = "shards"
#: the single records file of a legacy flat root, and its name once migrated
FLAT_RECORDS_FILENAME = "records.jsonl"
MIGRATED_FILENAME = "records.jsonl.migrated"
STORE_FORMAT = "sharded-jsonl"

#: in-memory entry key <-> compact on-disk index key
_INDEX_KEYS: Tuple[Tuple[str, str], ...] = (
    ("job_hash", "h"),
    ("offset", "o"),
    ("length", "l"),
    ("status", "st"),
    ("decodable", "d"),
    ("failed", "f"),
    ("experiment", "ex"),
    ("scenario", "sc"),
    ("protocol", "pr"),
    ("seed", "se"),
    ("run_index", "ri"),
    ("error_kind", "ek"),
    ("error", "er"),
    ("attempts", "at"),
    ("messages", "nm"),
    ("delivered", "nd"),
    ("delay_sum", "ds"),
    ("copies", "cs"),
)
_TO_DISK = dict(_INDEX_KEYS)
_FROM_DISK = {short: full for full, short in _INDEX_KEYS}


def encode_index_line(entry: Dict[str, object]) -> bytes:
    """One index entry as a compact JSONL line (with trailing newline).

    Only the keys present in *entry* are emitted (failure fields only on
    failed records, delivery summaries only on decodable ones), keeping
    index lines an order of magnitude smaller than the record lines they
    describe.  Booleans shrink to 0/1.
    """
    payload = {}
    for full, short in _INDEX_KEYS:
        if full in entry:
            value = entry[full]
            payload[short] = int(value) if isinstance(value, bool) else value
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_index_line(raw: bytes) -> Optional[Dict[str, object]]:
    """The entry an index line encodes, or ``None`` for a damaged line."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict) or "h" not in payload:
        return None
    entry: Dict[str, object] = {}
    for short, value in payload.items():
        full = _FROM_DISK.get(short)
        if full is None:
            continue  # forward compatibility: unknown index fields skip
        if full in ("decodable", "failed"):
            value = bool(value)
        entry[full] = value
    entry.setdefault("decodable", False)
    entry.setdefault("failed", False)
    return entry


class _Shard:
    """Load/refresh bookkeeping for one shard directory."""

    __slots__ = ("prefix", "directory", "records_path", "index_path",
                 "index_size", "covered")

    def __init__(self, prefix: str, directory: Path) -> None:
        self.prefix = prefix
        self.directory = directory
        self.records_path = directory / "records.jsonl"
        self.index_path = directory / "index.jsonl"
        #: bytes of index.jsonl consumed so far (complete lines only)
        self.index_size = 0
        #: records.jsonl bytes known to be described by consumed index
        #: lines (max offset+length+newline seen)
        self.covered = 0


class ShardedResultStore:
    """The result store: sharded, indexed ``job_hash -> RunRecord``
    mapping (see module doc).  ``root`` is the store directory, ``path``
    its ``shards/`` directory."""

    def __init__(self, root: Union[str, Path],
                 shard_width: int = DEFAULT_SHARD_WIDTH) -> None:
        self.root = Path(root)
        self.path = self.root / SHARDS_DIRNAME
        meta = self._read_meta()
        if meta is not None:
            shard_width = int(meta.get("shard_width", shard_width))
        if shard_width < 1:
            raise ValueError("shard_width must be >= 1")
        self.shard_width = shard_width
        self._shards: Dict[str, _Shard] = {}
        self._entries: Dict[str, Dict[str, object]] = {}
        #: (protocol, scenario) -> {job_hash: entry}, for filtered queries
        self._buckets: Dict[Tuple[object, object], Dict[str, Dict]] = {}
        self._aggregates: Dict[str, Dict[str, float]] = {}
        self._loaded = False
        #: store.json generation at load time; compaction bumps it so
        #: other handles know their byte offsets are void
        self._generation = 0

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _read_meta(self) -> Optional[Dict[str, object]]:
        meta_path = self.root / STORE_META_FILENAME
        try:
            payload = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _ensure_layout(self) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / STORE_META_FILENAME
        if not meta_path.exists():
            meta_path.write_text(json.dumps(
                {"format": STORE_FORMAT, "schema": INDEX_SCHEMA,
                 "shard_width": self.shard_width}, sort_keys=True) + "\n",
                encoding="utf-8")

    def _prefix_of(self, job_hash: str) -> str:
        prefix = str(job_hash)[:self.shard_width].lower()
        # keep shard names filesystem-safe whatever the hash alphabet is
        cleaned = "".join(c if c.isalnum() else "_" for c in prefix)
        return cleaned or "_"

    def _shard(self, prefix: str) -> _Shard:
        shard = self._shards.get(prefix)
        if shard is None:
            shard = self._shards[prefix] = _Shard(prefix, self.path / prefix)
        return shard

    # ------------------------------------------------------------------
    # loading: index lines first, records-file tail recovery second
    # ------------------------------------------------------------------
    def load(self, refresh: bool = False) -> None:
        """Build (or rebuild) the in-memory index, then migrate a legacy
        flat ``records.jsonl`` at the root if there is one."""
        if self._loaded and not refresh:
            return
        self._shards = {}
        self._entries = {}
        self._buckets = {}
        self._aggregates = {}
        meta = self._read_meta()
        self._generation = int(meta.get("generation", 0)) if meta else 0
        if self.path.is_dir():
            for directory in sorted(self.path.iterdir()):
                if directory.is_dir():
                    self._load_shard(self._shard(directory.name))
        self._loaded = True
        flat = self.root / FLAT_RECORDS_FILENAME
        if flat.exists():
            self._migrate_flat(flat)

    def _load_shard(self, shard: _Shard,
                    heal: bool = True) -> List[Dict[str, object]]:
        """Absorb the shard's unread index lines, then the record lines
        they do not cover; returns the entries that took effect.

        With *heal* the recovered lines are also appended to the index.
        A polling refresh passes False: a live writer may sit between its
        record and index appends, so the refresher adopts the record in
        memory only and the writer's own index line re-reads as a no-op.
        """
        fresh = self._consume_index(shard)
        if fresh is None:
            return self._rescan_shard(shard)
        return fresh + self._adopt_tail(shard, heal)

    def _consume_index(self, shard: _Shard) \
            -> Optional[List[Dict[str, object]]]:
        """Absorb the index lines past ``shard.index_size``.

        Returns the entries that took effect, or ``None`` when an interior
        line is undecodable (a torn append that a later append closed, or
        one glued onto): only the records file can say what it described.
        A partial final line is left unconsumed — a writer may still be
        mid-append, and a killed one's record is recovered by
        :meth:`_adopt_tail`.
        """
        try:
            size = shard.index_path.stat().st_size
        except OSError:
            return []
        if size <= shard.index_size:
            return []
        with open(shard.index_path, "rb") as handle:
            handle.seek(shard.index_size)
            raw = handle.read(size - shard.index_size)
        fresh: List[Dict[str, object]] = []
        consumed = shard.index_size
        chunks = raw.split(b"\n")
        for position, chunk in enumerate(chunks):
            is_last = position == len(chunks) - 1
            if chunk.strip():
                entry = decode_index_line(chunk)
                if entry is None:
                    if is_last:
                        break  # partial tail: retried on the next read
                    return None
                if self._absorb(entry):
                    self._cover(shard, entry)
                    fresh.append(entry)
            if not is_last:
                consumed += len(chunk) + 1
        shard.index_size = consumed
        return fresh

    def _scan_records(self, shard: _Shard,
                      start: int) -> List[Dict[str, object]]:
        """Index entries for the complete record lines of the shard's
        records file from byte *start* on (a partial tail is skipped)."""
        try:
            size = shard.records_path.stat().st_size
        except OSError:
            return []
        if size <= start:
            return []
        with open(shard.records_path, "rb") as handle:
            handle.seek(start)
            raw = handle.read(size - start)
        offset = start
        chunks = raw.split(b"\n")
        entries: List[Dict[str, object]] = []
        for position, chunk in enumerate(chunks):
            is_last = position == len(chunks) - 1
            if chunk.strip():
                try:
                    record = json.loads(chunk.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    if is_last:
                        break  # partial tail: a writer died (or is) mid-append
                    warnings.warn(
                        f"skipping corrupt record in {shard.records_path}",
                        stacklevel=2)
                else:
                    if isinstance(record, dict) and record.get("job_hash"):
                        entry = record_entry(record)
                        entry["offset"] = offset
                        entry["length"] = len(chunk)
                        entries.append(entry)
            offset += len(chunk) + 1
        return entries

    def _adopt_tail(self, shard: _Shard,
                    heal: bool) -> List[Dict[str, object]]:
        """Absorb the record lines past the index's coverage, appending
        their index lines first when *heal* is set (self-heal)."""
        recovered = self._scan_records(shard, shard.covered)
        if not recovered:
            return []
        if heal:
            self._append_index(shard, recovered)
        return self._adopt(shard, recovered)

    def _rescan_shard(self, shard: _Shard) -> List[Dict[str, object]]:
        """Rebuild the shard's index from its records file (authoritative)
        and return the entries that are new or moved."""
        known: Dict[str, Dict[str, object]] = {}
        for job_hash in [h for h in self._entries
                         if self._prefix_of(h) == shard.prefix]:
            entry = known[job_hash] = self._entries.pop(job_hash)
            fold_entry(self._aggregates, entry, -1)
            bucket = self._buckets.get(
                (entry.get("protocol"), entry.get("scenario")))
            if bucket is not None:
                bucket.pop(job_hash, None)
        shard.covered = shard.index_size = 0
        entries = self._scan_records(shard, 0)
        if shard.directory.is_dir():
            data = b"".join(map(encode_index_line, entries))
            rebuilt = shard.index_path.with_suffix(".jsonl.tmp")
            rebuilt.write_bytes(data)
            os.replace(rebuilt, shard.index_path)
            shard.index_size = len(data)
        taken = self._adopt(shard, entries)
        return [entry for entry in taken
                if known.get(str(entry["job_hash"]), {}).get("offset")
                != entry["offset"]]

    def _adopt(self, shard: _Shard, entries: List[Dict[str, object]]) \
            -> List[Dict[str, object]]:
        """Absorb index *entries* this handle wrote or scanned; return
        those that took effect.  ``index_size`` is left alone: other
        writers' lines may sit between it and ours, and the next refresh
        must read them (ours then re-read as no-ops)."""
        taken = []
        for entry in entries:
            if self._absorb(entry):
                self._cover(shard, entry)
                taken.append(entry)
        return taken

    @staticmethod
    def _cover(shard: _Shard, entry: Dict[str, object]) -> None:
        shard.covered = max(shard.covered,
                            int(entry["offset"]) + int(entry["length"]) + 1)

    def _migrate_flat(self, flat: Path) -> None:
        """Move a legacy flat root's records into the shards.

        The rename to ``records.jsonl.migrated`` is the commit: a crash
        before it re-runs the migration on the next load, and a migrator
        that loses the rename race to another treats the root as done.
        The flat bytes are never deleted.
        """
        count = _fold_flat(self, flat)
        if count is None:
            return
        target = self.root / MIGRATED_FILENAME
        suffix = 1
        while target.exists():  # never overwrite an earlier migration
            target = self.root / f"{MIGRATED_FILENAME}.{suffix}"
            suffix += 1
        try:
            os.replace(flat, target)
        except FileNotFoundError:
            return
        warnings.warn(f"migrated {count} record(s) of the flat store at "
                      f"{self.root} into shards; the flat file is kept as "
                      f"{target.name}", stacklevel=3)

    def _absorb(self, entry: Dict[str, object]) -> bool:
        """Fold one index entry into the in-memory maps (last write per
        hash wins, ordered by record offset so concurrent writers whose
        index lines landed out of order still resolve consistently).
        Returns False for stale entries that lost to an existing one."""
        job_hash = str(entry["job_hash"])
        previous = self._entries.get(job_hash)
        if previous is not None and \
                int(previous.get("offset", -1)) >= int(entry.get("offset", 0)):
            return False
        self._entries[job_hash] = entry
        if previous is not None:
            fold_entry(self._aggregates, previous, -1)
            old_key = (previous.get("protocol"), previous.get("scenario"))
            bucket = self._buckets.get(old_key)
            if bucket is not None:
                bucket.pop(job_hash, None)
        fold_entry(self._aggregates, entry)
        key = (entry.get("protocol"), entry.get("scenario"))
        self._buckets.setdefault(key, {})[job_hash] = entry
        return True

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, job_hash: str) -> Optional[Dict[str, object]]:
        self.load()
        entry = self._entries.get(job_hash)
        if entry is None:
            return None
        record = self._read_body(entry)
        if record is not None and record.get("job_hash") == job_hash:
            return record
        # a stale or damaged index entry: rebuild this shard from its
        # records file (authoritative) and retry once
        self._rescan_shard(self._shard(self._prefix_of(job_hash)))
        entry = self._entries.get(job_hash)
        return None if entry is None else self._read_body(entry)

    def _read_body(self, entry: Dict[str, object]) -> \
            Optional[Dict[str, object]]:
        shard = self._shard(self._prefix_of(str(entry["job_hash"])))
        try:
            with open(shard.records_path, "rb") as handle:
                handle.seek(int(entry["offset"]))
                raw = handle.read(int(entry["length"]))
            return json.loads(raw.decode("utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def hashes(self) -> List[str]:
        self.load()
        return list(self._entries)

    def records(self) -> Iterator[Dict[str, object]]:
        self.load()
        for job_hash in sorted(self._entries):
            record = self.get(job_hash)
            if record is not None:
                yield record

    def entries(self) -> List[Dict[str, object]]:
        self.load()
        return list(self._entries.values())

    def entry_for(self, job_hash: str) -> Optional[Dict[str, object]]:
        self.load()
        return self._entries.get(job_hash)

    def __contains__(self, job_hash: str) -> bool:
        self.load()
        return job_hash in self._entries

    def __len__(self) -> int:
        self.load()
        return len(self._entries)

    # ------------------------------------------------------------------
    # incremental refresh: only index bytes appended since the last poll
    # ------------------------------------------------------------------
    def refresh_entries(self) -> List[Dict[str, object]]:
        """Entries appended since the last load/refresh; the first call
        loads the store and returns everything.

        This is the incremental read behind ``exp watch`` and the svc
        API: only index bytes past each shard's last consumed line are
        parsed.  A partial final index line (a writer caught mid-append)
        is left for the next poll; a damaged interior line rebuilds its
        shard's index from the records file; a shrunken index or a bumped
        compaction generation triggers a full reload.  Record lines past
        a fully read index (a writer between its two appends, or killed
        there) are adopted in memory, without an index append.
        """
        if not self._loaded:
            self.load()
            return list(self._entries.values())
        meta = self._read_meta()
        if meta and int(meta.get("generation", 0)) != self._generation:
            # the store was compacted by another handle: every byte
            # offset this handle consumed is void, start over
            self.load(refresh=True)
            return list(self._entries.values())
        fresh: List[Dict[str, object]] = []
        known = set(self._shards)
        if self.path.is_dir():
            for directory in sorted(self.path.iterdir()):
                if directory.is_dir() and directory.name not in known:
                    fresh.extend(self._load_shard(
                        self._shard(directory.name), heal=False))
        for prefix in sorted(known):
            shard = self._shards[prefix]
            try:
                size = shard.index_path.stat().st_size
            except OSError:
                continue
            if size < shard.index_size:
                # the shard was rewritten (compaction by another process):
                # fall back to a full reload of everything
                self.load(refresh=True)
                return list(self._entries.values())
            appended = self._consume_index(shard)
            if appended is None:
                appended = self._rescan_shard(shard)
            elif shard.index_size >= size:
                # no index line is half-written, so none is in flight
                appended += self._adopt_tail(shard, heal=False)
            fresh.extend(appended)
        return fresh

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, record: Dict[str, object]) -> None:
        self.put_many([record])

    def put_many(self, records) -> None:
        """Append *records* (batched per shard, one index append each).

        The batch API exists for migration and synthetic-store generation:
        file handles are opened once per touched shard, not once per
        record, while each record line is still written in a single
        unbuffered ``O_APPEND`` call.
        """
        records = list(records)
        self.load()
        self._ensure_layout()
        by_shard: Dict[str, List[Dict[str, object]]] = {}
        for record in records:
            job_hash = record.get("job_hash")
            if not job_hash:
                raise ValueError("a RunRecord needs a job_hash")
            by_shard.setdefault(self._prefix_of(str(job_hash)),
                                []).append(record)
        for prefix, batch in by_shard.items():
            shard = self._shard(prefix)
            shard.directory.mkdir(parents=True, exist_ok=True)
            # live probe of the final byte before the batch: if another
            # writer died mid-line, close that line first so records never
            # glue together (load() skips the resulting blank line);
            # within the batch our own appends always end with a newline
            pad_first = self._last_byte_is_not_newline(shard.records_path)
            new_entries: List[Dict[str, object]] = []
            with open(shard.records_path, "ab", buffering=0) as handle:
                for record in batch:
                    line = json.dumps(record, sort_keys=True,
                                      separators=(",", ":")).encode("utf-8")
                    data = line + b"\n"
                    if pad_first:
                        data = b"\n" + data
                        pad_first = False
                    handle.write(data)
                    end = handle.tell()
                    # O_APPEND is atomic per write, so tell() after our
                    # write names exactly where our line landed even with
                    # concurrent writers on the same shard
                    entry = record_entry(record)
                    entry["offset"] = end - len(line) - 1
                    entry["length"] = len(line)
                    new_entries.append(entry)
            self._append_index(shard, new_entries)
            self._adopt(shard, new_entries)

    def _append_index(self, shard: _Shard,
                      entries: List[Dict[str, object]]) -> None:
        """One append of the index lines for *entries*, closing a line a
        killed writer left open first (as record appends do)."""
        data = b"".join(map(encode_index_line, entries))
        if self._last_byte_is_not_newline(shard.index_path):
            data = b"\n" + data
        with open(shard.index_path, "ab", buffering=0) as handle:
            handle.write(data)

    @staticmethod
    def _last_byte_is_not_newline(path: Path) -> bool:
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    # ------------------------------------------------------------------
    # queries and aggregates
    # ------------------------------------------------------------------
    def query_entries(self, scenario: Optional[str] = None,
                      protocol: Optional[str] = None,
                      seed: Optional[int] = None,
                      status: Optional[str] = None,
                      experiment: Optional[str] = None,
                      limit: Optional[int] = None) -> List[Dict[str, object]]:
        self.load()
        filters = {"seed": seed, "status": status, "experiment": experiment}
        if protocol is not None and scenario is not None:
            candidates = list(self._buckets.get((protocol, scenario),
                                                {}).values())
        elif protocol is not None or scenario is not None:
            candidates = []
            for (bucket_protocol, bucket_scenario), bucket in \
                    self._buckets.items():
                if protocol is not None and bucket_protocol != protocol:
                    continue
                if scenario is not None and bucket_scenario != scenario:
                    continue
                candidates.extend(bucket.values())
        else:
            candidates = list(self._entries.values())
        matches = [entry for entry in candidates
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

        Filters apply to index entries, so no non-matching record body is
        ever read.
        """
        selected = self.query_entries(scenario=scenario, protocol=protocol,
                                      seed=seed, status=status,
                                      experiment=experiment, limit=limit)
        records = (self.get(entry["job_hash"]) for entry in selected)
        return [record for record in records if record is not None]

    def leaderboard(self) -> List[Dict[str, object]]:
        """Per-protocol standings pooled over every decodable record,
        ranked by success rate, then mean delay, then protocol name —
        served from the incrementally maintained aggregates, never a
        record rescan."""
        self.load()
        return rank_pools(self._aggregates)

    def summary(self) -> Dict[str, object]:
        """Store-level counters (records, shards, bytes, classification)."""
        self.load()
        ok = sum(1 for entry in self._entries.values()
                 if entry.get("decodable"))
        failed = sum(1 for entry in self._entries.values()
                     if entry.get("failed"))
        total_bytes = 0
        for shard in self._shards.values():
            try:
                total_bytes += shard.records_path.stat().st_size
            except OSError:
                pass
        return {"records": len(self._entries), "ok": ok, "failed": failed,
                "other": len(self._entries) - ok - failed,
                "shards": len(self._shards), "records_bytes": total_bytes,
                "shard_width": self.shard_width}

    def flush(self) -> None:
        """A no-op: every put is durable when it returns (callers flush at
        batch boundaries without knowing that)."""

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Rewrite every shard keeping only each hash's winning record.

        Superseded lines — earlier duplicates, including failed records
        later retried successfully — are dropped; surviving lines are
        copied *byte for byte* in their original relative order, so every
        query result (keyed by job hash, last write wins) is identical
        before and after.  Each shard is rewritten atomically
        (tmp + ``os.replace``), records first, then its rebuilt index.
        """
        self.load(refresh=True)
        dropped = self._count_superseded()
        kept = 0
        bytes_before = bytes_after = 0
        by_prefix: Dict[str, List[Dict[str, object]]] = {}
        for entry in self._entries.values():
            by_prefix.setdefault(self._prefix_of(str(entry["job_hash"])),
                                 []).append(entry)
        for prefix, shard in sorted(self._shards.items()):
            winners = by_prefix.get(prefix, [])
            winners.sort(key=lambda entry: int(entry["offset"]))
            try:
                bytes_before += shard.records_path.stat().st_size
            except OSError:
                continue
            lines: List[bytes] = []
            with open(shard.records_path, "rb") as handle:
                for entry in winners:
                    handle.seek(int(entry["offset"]))
                    lines.append(handle.read(int(entry["length"])))
            records_tmp = shard.records_path.with_suffix(".jsonl.tmp")
            index_tmp = shard.index_path.with_suffix(".jsonl.tmp")
            offset = 0
            with open(records_tmp, "wb") as records_handle, \
                    open(index_tmp, "wb") as index_handle:
                for entry, line in zip(winners, lines):
                    records_handle.write(line + b"\n")
                    rewritten = dict(entry)
                    rewritten["offset"] = offset
                    rewritten["length"] = len(line)
                    index_handle.write(encode_index_line(rewritten))
                    offset += len(line) + 1
            os.replace(records_tmp, shard.records_path)
            os.replace(index_tmp, shard.index_path)
            bytes_after += offset
            kept += len(winners)
        self._bump_generation()
        self.load(refresh=True)
        return {"records_kept": kept, "records_dropped": dropped,
                "bytes_before": bytes_before, "bytes_after": bytes_after}

    def _bump_generation(self) -> None:
        meta = self._read_meta() or {
            "format": STORE_FORMAT, "schema": INDEX_SCHEMA,
            "shard_width": self.shard_width}
        meta["generation"] = int(meta.get("generation", 0)) + 1
        (self.root / STORE_META_FILENAME).write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")

    def _count_superseded(self) -> int:
        # after load, self._entries holds winners only; count losers by
        # re-reading index files (cheap: index lines, no record bodies)
        losers = 0
        for shard in self._shards.values():
            seen: Dict[str, int] = {}
            try:
                raw = shard.index_path.read_bytes()
            except OSError:
                continue
            for chunk in raw.split(b"\n"):
                if chunk.strip():
                    entry = decode_index_line(chunk)
                    if entry is not None:
                        seen[str(entry["job_hash"])] = \
                            seen.get(str(entry["job_hash"]), 0) + 1
            losers += sum(count - 1 for count in seen.values())
        return losers


# ----------------------------------------------------------------------
# opening, and migrating legacy flat stores
# ----------------------------------------------------------------------
def open_store(root: Union[str, Path]) -> ShardedResultStore:
    """The store at *root* (which need not exist yet).  A legacy flat
    root migrates in place when the handle first loads."""
    return ShardedResultStore(root)


def create_store(root: Union[str, Path],
                 shard_width: int = DEFAULT_SHARD_WIDTH) -> ShardedResultStore:
    """Open the store at *root*, writing its layout now if it is new
    (an existing store keeps its shard width)."""
    store = ShardedResultStore(root, shard_width=shard_width)
    store._ensure_layout()
    return store


def _read_flat_records(path: Path) -> Optional[Dict[str, Dict[str, object]]]:
    """The records of a legacy flat ``records.jsonl``, last write per hash
    winning, or ``None`` when the file is gone.

    Tolerant the way the flat store's loader was: a torn final line (a kill
    mid-append) is ignored, and a corrupt interior line or one without a
    ``job_hash`` is skipped with a warning — dropping one line only means
    its job re-runs.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    lines = raw.split(b"\n")
    final = max((number for number, line in enumerate(lines, start=1)
                 if line.strip()), default=0)
    records: Dict[str, Dict[str, object]] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            if number == final:
                warnings.warn(f"ignoring truncated final record at "
                              f"{path}:{number}", stacklevel=3)
            else:
                warnings.warn(f"skipping corrupt record at {path}:{number}",
                              stacklevel=3)
            continue
        if not isinstance(record, dict) or not record.get("job_hash"):
            warnings.warn(f"skipping record without job_hash at "
                          f"{path}:{number}", stacklevel=3)
            continue
        records[str(record["job_hash"])] = record
    return records


def _fold_flat(store: ShardedResultStore, path: Path) -> Optional[int]:
    """Append the flat file's records whose hashes *store* does not hold
    yet — so a migration resumed after a crash never lets a flat record
    supersede one written to the shards since — and return how many
    records the file holds (``None`` when it is gone)."""
    records = _read_flat_records(path)
    if records is None:
        return None
    store.load()
    store.put_many([record for job_hash, record in records.items()
                    if job_hash not in store])
    return len(records)


def migrate_store(source: Union[str, Path], destination: Union[str, Path],
                  shard_width: int = DEFAULT_SHARD_WIDTH) -> Dict[str, object]:
    """Copy the flat store at *source* into the store at *destination*.

    The same migration a legacy root gets in place on first load, except
    that *source* is left untouched.  Records land byte-identically (both
    layouts store canonical compact JSON, one record per line).  Returns a
    summary dict.
    """
    source = Path(source)
    destination = Path(destination)
    flat = source / FLAT_RECORDS_FILENAME
    if not flat.is_file():
        raise ValueError(f"{source} holds no flat {FLAT_RECORDS_FILENAME} "
                         f"(already a sharded store?)")
    if destination.exists() and any(destination.iterdir()) and \
            not (destination / STORE_META_FILENAME).exists():
        raise ValueError(f"migration destination {destination} exists and "
                         f"is not a result store")
    store = create_store(destination, shard_width=shard_width)
    migrated = _fold_flat(store, flat)
    return {"migrated": migrated, "source": str(source),
            "destination": str(destination),
            "shards": len(store._shards), "shard_width": store.shard_width}
