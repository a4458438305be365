"""The protocol name → factory registry.

Scenarios, the CLI and the tournament select protocols *by name*; instances
are created fresh per run, so parallel runners ship the name to worker
processes instead of pickling prepared oracle or learned state (the same
contract :mod:`repro.forwarding.algorithms` established for the paper's
six).  The paper's six are registered by class under their display names
next to the zoo, so every engine-facing call site can use this registry as
the single lookup.

Lookup is forgiving about capitalisation and separators (``prophet``,
``binary-spray-and-wait`` and ``Binary Spray-and-Wait`` all resolve), which
keeps shell quoting out of the tournament command line.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..forwarding.algorithms import _ALGORITHM_CLASSES
from .base import RoutingProtocol
from .protocols import (
    BinarySprayAndWaitProtocol,
    DirectDeliveryProtocol,
    FirstContactProtocol,
    HypergossipProtocol,
    ProphetProtocol,
    SourceSprayAndWaitProtocol,
)

__all__ = [
    "PAPER_PROTOCOL_NAMES",
    "NEW_PROTOCOL_NAMES",
    "register_protocol",
    "protocol_by_name",
    "protocol_names",
    "protocol_catalogue",
]

_FACTORIES: Dict[str, Callable[[], RoutingProtocol]] = {}


def _slug(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_SLUGS: Dict[str, str] = {}


def register_protocol(name: str, factory: Callable[[], RoutingProtocol],
                      overwrite: bool = False) -> None:
    """Register *factory* under *name* (plugins and tests use this too).

    A name whose slug collides with a differently-named existing protocol
    is rejected even with ``overwrite=True`` — it would silently reroute
    the existing protocol's slug-based lookups.
    """
    slug = _slug(name)
    existing = _SLUGS.get(slug)
    if existing is not None and existing != name:
        raise ValueError(f"protocol name {name!r} collides with {existing!r} "
                         f"(both normalise to {slug!r})")
    if not overwrite and name in _FACTORIES:
        raise ValueError(f"protocol {name!r} is already registered")
    _FACTORIES[name] = factory
    _SLUGS[slug] = name


def protocol_by_name(name: str) -> RoutingProtocol:
    """A fresh instance of the named protocol (case/separator tolerant)."""
    canonical = name if name in _FACTORIES else _SLUGS.get(_slug(name))
    if canonical is None:
        known = ", ".join(_FACTORIES)
        raise KeyError(f"unknown protocol {name!r}; known: {known}")
    return _FACTORIES[canonical]()


def protocol_names() -> List[str]:
    """All registered protocol names: the paper six first, then the zoo."""
    return list(_FACTORIES)


def protocol_catalogue() -> List[Dict[str, object]]:
    """One descriptive row per protocol (the ``routing list`` table)."""
    rows = []
    for name in protocol_names():
        protocol = protocol_by_name(name)
        rows.append({
            "protocol": name,
            "origin": "paper" if name in PAPER_PROTOCOL_NAMES else "zoo",
            "stateful": "yes" if protocol.stateful else "no",
            "replication": protocol.replication,
            "knowledge": protocol.knowledge,
            "oracle": "yes" if protocol.uses_future_knowledge else "no",
            "vector": "fast-path" if protocol.vector_fastpath else "hooks",
        })
    return rows


# ----------------------------------------------------------------------
# the catalogue: paper six + the stateful zoo
# ----------------------------------------------------------------------
for _protocol_cls in (
    *_ALGORITHM_CLASSES.values(),
    DirectDeliveryProtocol,
    FirstContactProtocol,
    BinarySprayAndWaitProtocol,
    SourceSprayAndWaitProtocol,
    ProphetProtocol,
    HypergossipProtocol,
):
    register_protocol(_protocol_cls.name, _protocol_cls)

#: The six paper algorithms, in the paper's comparison order.
PAPER_PROTOCOL_NAMES = tuple(_ALGORITHM_CLASSES)

#: The stateful zoo added on top of the paper.
NEW_PROTOCOL_NAMES = tuple(n for n in _FACTORIES if n not in _ALGORITHM_CLASSES)
