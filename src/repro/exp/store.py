"""Result-store entries and the leaderboard fold.

Every simulated job is persisted as a RunRecord keyed by its content hash
in the result store, :class:`repro.svc.store.ShardedResultStore`
(``--store DIR`` everywhere; :func:`repro.svc.store.open_store` opens a
root).  Resumability falls out of content addressing: re-planning a spec
yields the same job hashes, so completed jobs are served from the store
and only the delta — new seeds, new protocols, new sweep values — is
executed.

This module holds what the store and its readers share without depending
on the store: the *entry* — a lightweight per-record summary
(:func:`record_entry`) carrying everything status tracking, filtered
queries and leaderboard aggregation need without decoding the full
outcome stream — and the leaderboard fold over entries
(:func:`aggregate_leaderboard`, :func:`fold_entry`, :func:`rank_pools`).
"""

from __future__ import annotations

import math
from typing import Dict, List

__all__ = ["record_entry", "aggregate_leaderboard", "DEFAULT_STORE_ROOT"]

#: Default store location, relative to the invoking process's cwd.
DEFAULT_STORE_ROOT = "results"

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
    ranked by success rate, then mean delay, then protocol name.

    It sorts on the exact rate and mean delay and rounds only the emitted
    columns, so two pools that differ beyond the printed precision never
    tie."""
    ranked = []
    for protocol, pool in pools.items():
        if pool["jobs"] <= 0:
            continue
        messages = int(pool["messages"])
        delivered = int(pool["delivered"])
        mean_delay = pool["delay_sum"] / delivered if delivered else None
        ranked.append((mean_delay, {
            "protocol": protocol,
            "jobs": int(pool["jobs"]),
            "messages": messages,
            "delivered": delivered,
            "success_rate": (round(delivered / messages, 6)
                             if messages else 0.0),
            "mean_delay_s": (None if mean_delay is None
                             else round(mean_delay, 6)),
            "copies_per_delivery": (round(pool["copies"] / delivered, 6)
                                    if delivered else None),
        }))
    # rank on the exact rate, as integers over a common denominator: the
    # rounded column ties 333333/1000000 with 1/3 and would let the lower
    # rate win on delay
    common = math.lcm(*(row["messages"] for _, row in ranked
                        if row["messages"]))

    def rank_key(item):
        mean_delay, row = item
        rate = (row["delivered"] * (common // row["messages"])
                if row["messages"] else 0)
        return (-rate, float("inf") if mean_delay is None else mean_delay,
                row["protocol"])

    ranked.sort(key=rank_key)
    return [{"rank": position + 1, **row}
            for position, (_, row) in enumerate(ranked)]
