"""Per-run forwarding-decision accounting for the DES and vector engines.

Both engines call the :class:`~repro.routing.RoutingProtocol` lifecycle
hooks directly.  The one thing they add on top is a count of forwarding
decisions and approvals, which the resource-constrained result reports: each
run routes its scalar ``should_forward`` calls through a fresh
:class:`AlgorithmAdapter`, and the vector engine charges its batched
verdicts to the same counters.
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
