"""Stateful routing protocols and the cross-scenario tournament harness.

This package generalises the paper's stateless per-contact forwarding test
into a full protocol lifecycle (:mod:`repro.routing.base`), which the six
paper algorithms (:mod:`repro.forwarding.algorithms`) implement directly,
adds a zoo of stateful protocols from the DTN literature
(:mod:`repro.routing.protocols`), selects protocols by name through a
registry (:mod:`repro.routing.registry`) and ranks everything across the
scenario catalogue (:mod:`repro.routing.tournament`, imported lazily —
``from repro.routing import tournament`` — because it builds on
:mod:`repro.sim`, which itself consumes this package's API).

Command line::

    python -m repro routing list
    python -m repro routing run <scenario> --protocols PRoPHET,Epidemic
    python -m repro routing tournament --scenarios paper-ideal,rwp-courtyard \\
        --protocols all --seed 7
"""

from .base import RoutingProtocol
from .protocols import (
    BinarySprayAndWaitProtocol,
    DirectDeliveryProtocol,
    FirstContactProtocol,
    HypergossipProtocol,
    ProphetProtocol,
    SourceSprayAndWaitProtocol,
)
from .registry import (
    NEW_PROTOCOL_NAMES,
    PAPER_PROTOCOL_NAMES,
    protocol_by_name,
    protocol_catalogue,
    protocol_names,
    register_protocol,
)

__all__ = [
    "RoutingProtocol",
    "BinarySprayAndWaitProtocol",
    "DirectDeliveryProtocol",
    "FirstContactProtocol",
    "HypergossipProtocol",
    "ProphetProtocol",
    "SourceSprayAndWaitProtocol",
    "NEW_PROTOCOL_NAMES",
    "PAPER_PROTOCOL_NAMES",
    "protocol_by_name",
    "protocol_catalogue",
    "protocol_names",
    "register_protocol",
]
