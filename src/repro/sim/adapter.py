"""A counting wrapper around one protocol's ``should_forward``.

The DES and vector engines call the :class:`~repro.routing.RoutingProtocol`
hooks directly and count forwarding decisions and approvals in two int
fields of their own (``ResourceStats.forwarding_decisions`` and
``forwarding_approvals``).  No engine uses :class:`AlgorithmAdapter`; it
stays importable because the ``perfbench`` span instrumentation imports it
by name.
"""

from __future__ import annotations

from ..contacts import NodeId
from ..forwarding.history import OnlineContactHistory
from ..forwarding.messages import Message
from ..routing.base import RoutingProtocol

__all__ = ["AlgorithmAdapter"]


class AlgorithmAdapter:
    """Counts the forwarding decisions and approvals of one run."""

    __slots__ = ("protocol", "decisions", "approvals")

    def __init__(self, protocol: RoutingProtocol) -> None:
        self.protocol = protocol
        self.decisions = 0
        self.approvals = 0

    def should_forward(
        self,
        carrier: NodeId,
        peer: NodeId,
        message: Message,
        now: float,
        history: OnlineContactHistory,
    ) -> bool:
        self.decisions += 1
        verdict = self.protocol.should_forward(carrier, peer, message,
                                               now, history)
        if verdict:
            self.approvals += 1
        return verdict

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AlgorithmAdapter {self.protocol.name!r}>"
