"""repro.svc — the experiment service layer.

Turns :mod:`repro.exp`'s batch machinery (content-hashed jobs, resumable
store, fault-tolerant executor) into a long-running service::

    submitters ──HTTP──▶ api ──▶ daemon ──▶ exp worker pool
                          │         │
                          ▼         ▼
                       client   sharded result store

* :mod:`repro.svc.store` — :class:`ShardedResultStore`, the one result
  store: JSONL records fanned out by job-hash prefix with per-shard
  offset indexes and incrementally maintained leaderboard aggregates,
  plus in-place migration of legacy flat roots and shard compaction;
* :mod:`repro.svc.daemon` — :class:`ExperimentDaemon`: an asyncio job
  scheduler with content-hash dedupe across submissions, priorities,
  cancellation, graceful SIGTERM drain and crash recovery by replaying
  the store;
* :mod:`repro.svc.api` — the stdlib-only HTTP query/submission API;
* :mod:`repro.svc.client` — :class:`ServiceClient`, the matching
  ``http.client`` wrapper used by ``exp run --remote``;
* :mod:`repro.svc.cli` — ``python -m repro svc
  serve|submit|status|query|leaderboard|cancel|migrate|compact``.

Attributes load lazily (PEP 562), mirroring :mod:`repro.exp`.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "ShardedResultStore": ".store",
    "open_store": ".store",
    "create_store": ".store",
    "migrate_store": ".store",
    "encode_index_line": ".store",
    "decode_index_line": ".store",
    "INDEX_SCHEMA": ".store",
    "DEFAULT_SHARD_WIDTH": ".store",
    "ExperimentDaemon": ".daemon",
    "Submission": ".daemon",
    "serve": ".api",
    "ServiceClient": ".client",
    "ServiceError": ".client",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .api import serve
    from .client import ServiceClient, ServiceError
    from .daemon import ExperimentDaemon, Submission
    from .store import (
        DEFAULT_SHARD_WIDTH,
        INDEX_SCHEMA,
        ShardedResultStore,
        create_store,
        decode_index_line,
        encode_index_line,
        migrate_store,
        open_store,
    )


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") \
            from None
    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
