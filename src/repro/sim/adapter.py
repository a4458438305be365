"""A name kept for the ``perfbench`` span instrumentation.

The DES and vector engines call the :class:`~repro.routing.RoutingProtocol`
hooks directly and count forwarding decisions and approvals in two int
fields of their own (``ResourceStats.forwarding_decisions`` and
``forwarding_approvals``).  No engine uses :class:`AlgorithmAdapter`; it
stays importable because the ``perfbench`` span instrumentation imports it
by name (and wraps no method of it).  A protocol's verdicts are asked
through the protocol itself: ``should_forward`` is defined only on
:class:`~repro.routing.RoutingProtocol`.
"""

from __future__ import annotations

from ..routing.base import RoutingProtocol

__all__ = ["AlgorithmAdapter"]


class AlgorithmAdapter:
    """Holds one protocol; used by no engine."""

    __slots__ = ("protocol",)

    def __init__(self, protocol: RoutingProtocol) -> None:
        self.protocol = protocol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AlgorithmAdapter {self.protocol.name!r}>"
