"""The paper's forwarding simulation (Section 6.1 of the paper).

:class:`ForwardingSimulator` replays a contact trace in time order and lets
a forwarding algorithm decide, at every contact, whether the encountered
node should receive a copy of each message the carrier holds.  The
modelling assumptions follow the paper exactly:

* nodes have **infinite buffers** and keep every copy until the end of the
  simulation;
* exchanges are **bidirectional** and instantaneous;
* **minimal progress**: a node holding a message always delivers it when it
  meets the destination, whatever the algorithm says;
* messages can relay across several nodes "at the same instant" when the
  receiving node is itself in contact with further nodes (the zero-weight
  chaining of the space-time graph).

Only the *first* delivery of each message is recorded (later copies arriving
at the destination do not change success rate or delay).  By default message
propagation stops once the message is delivered, which does not affect any
reported metric but keeps large epidemic simulations fast; pass
``stop_on_delivery=False`` to keep flooding after delivery.

These are the unconstrained semantics of the vector kernel
(:class:`repro.sim.vector.VectorSimulator`) that runs every experiment job,
so the simulator runs on it.  The trace-driven replay the study used to run
on is a test oracle now, ``tests/oracles/trace_engine.py``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..contacts import ContactTrace
from .algorithms import RoutingProtocol
from .messages import Message

__all__ = ["DeliveryOutcome", "SimulationResult", "ForwardingSimulator", "simulate",
           "check_endpoints", "delivery_outcomes"]


@dataclass(frozen=True)
class DeliveryOutcome:
    """Outcome of a single message under one algorithm."""

    message: Message
    delivered: bool
    delivery_time: Optional[float]
    hop_count: Optional[int]

    @property
    def delay(self) -> Optional[float]:
        """Delivery delay in seconds, or None if not delivered."""
        if not self.delivered or self.delivery_time is None:
            return None
        return self.delivery_time - self.message.creation_time


def check_endpoints(trace: ContactTrace, messages: Sequence[Message]) -> None:
    """Raise ``ValueError`` for a message whose source or destination is not
    a node of *trace*."""
    for message in messages:
        for role, node in (("source", message.source),
                           ("destination", message.destination)):
            if node not in trace.nodes:
                raise ValueError(f"message {message.id}: unknown {role} {node}")


def delivery_outcomes(
    messages: Sequence[Message], delivered: Dict[int, Tuple[float, int]],
) -> List[DeliveryOutcome]:
    """Each message's outcome, given ``{message id: (time, hops)}`` of the
    first deliveries."""
    return [DeliveryOutcome(message, True, *delivered[message.id])
            if message.id in delivered
            else DeliveryOutcome(message, False, None, None)
            for message in messages]


@dataclass
class SimulationResult:
    """All outcomes of one simulation run.

    ``copies_sent`` counts every successful transfer of a message copy
    between two nodes, delivery hops included (one message creation is not a
    copy).  It is ``None`` on results that predate the counter or that were
    merged from runs without it.
    """

    algorithm: str
    trace_name: str
    outcomes: List[DeliveryOutcome] = field(default_factory=list)
    copies_sent: Optional[int] = None
    # (number of outcomes indexed, id -> outcome); see outcome_for
    _outcome_index: Optional[Tuple[int, Dict[int, DeliveryOutcome]]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_messages(self) -> int:
        return len(self.outcomes)

    @property
    def num_delivered(self) -> int:
        return sum(1 for o in self.outcomes if o.delivered)

    def success_rate(self) -> float:
        """Fraction of messages delivered (the paper's S_A)."""
        if not self.outcomes:
            return 0.0
        return self.num_delivered / len(self.outcomes)

    def delays(self) -> List[float]:
        """Delays of the delivered messages."""
        return [o.delay for o in self.outcomes if o.delivered and o.delay is not None]

    def average_delay(self) -> Optional[float]:
        """Mean delivery delay over delivered messages (the paper's D_A)."""
        delays = self.delays()
        if not delays:
            return None
        return sum(delays) / len(delays)

    def summary(self) -> Dict[str, object]:
        """Headline metrics as one flat dict (for tables, examples, the CLI).

        Keys: ``algorithm``, ``trace``, ``num_messages``, ``num_delivered``,
        ``success_rate``, ``mean_delay_s``, ``median_delay_s``,
        ``copies_sent`` and ``copies_per_delivery``; delay and copy entries
        are ``None`` when nothing was delivered / no counter is available.
        """
        delays = self.delays()
        delivered = self.num_delivered
        mean_delay = self.average_delay()
        median_delay = statistics.median(delays) if delays else None
        copies = self.copies_sent
        return {
            "algorithm": self.algorithm,
            "trace": self.trace_name,
            "num_messages": self.num_messages,
            "num_delivered": delivered,
            "success_rate": self.success_rate(),
            "mean_delay_s": mean_delay,
            "median_delay_s": median_delay,
            "copies_sent": copies,
            "copies_per_delivery": (copies / delivered
                                    if copies is not None and delivered else None),
        }

    def outcome_for(self, message_id: int) -> Optional[DeliveryOutcome]:
        """The outcome of one message, by id (O(1) after the first call).

        The id → outcome index is built lazily and rebuilt whenever the
        length of :attr:`outcomes` has changed since it was built; should
        ids ever collide, the first occurrence wins, matching a front-to-back
        scan.  (Replacing an outcome in place without changing the list
        length is not detected — treat a populated result as read-only.)
        """
        cached = self._outcome_index
        if cached is None or cached[0] != len(self.outcomes):
            index: Dict[int, DeliveryOutcome] = {}
            for outcome in self.outcomes:
                index.setdefault(outcome.message.id, outcome)
            self._outcome_index = cached = (len(self.outcomes), index)
        return cached[1].get(message_id)


class ForwardingSimulator:
    """Replay a trace under one forwarding algorithm, on the vector kernel.

    *algorithm* is a :class:`~repro.routing.RoutingProtocol` (one of the
    paper's six or a stateful zoo protocol): ``prepare`` is called once per
    run with the full trace, then the lifecycle hooks fire in event order.
    *copy_semantics* is ``"copy"`` (the paper's: the carrier keeps its
    copy) or ``"handoff"`` (single-copy forwarding, for cost-oriented
    extension experiments).  *stop_on_delivery* stops propagating a
    delivered message, which changes neither success rate nor delay.
    *tracer* (any object with ``emit(event, time, **fields)``; see
    :mod:`repro.obs.tracing`) and *telemetry* (an
    :class:`repro.obs.EngineTelemetry`, which reports engine ``"vector"``)
    go to the kernel; ``None`` disables them.
    """

    def __init__(
        self,
        trace: ContactTrace,
        algorithm: RoutingProtocol,
        copy_semantics: str = "copy",
        stop_on_delivery: bool = True,
        tracer=None,
        telemetry=None,
    ) -> None:
        if copy_semantics not in ("copy", "handoff"):
            raise ValueError("copy_semantics must be 'copy' or 'handoff'")
        self._trace = trace
        self._protocol = algorithm
        self._copy_semantics = copy_semantics
        self._stop_on_delivery = stop_on_delivery
        self._tracer = tracer
        self._telemetry = telemetry

    def run(self, messages: Sequence[Message]) -> SimulationResult:
        """Simulate the delivery of *messages* and return the outcomes."""
        # local import: repro.sim builds on this package
        from ..sim.vector import VectorSimulator

        # the paper's model never expires a message, but the kernel
        # honours a message's own ttl: it replays ttl-free copies
        replayed = [message if message.ttl is None else replace(message, ttl=None)
                    for message in messages]
        result = VectorSimulator(
            self._trace, self._protocol, copy_semantics=self._copy_semantics,
            stop_on_delivery=self._stop_on_delivery, tracer=self._tracer,
            telemetry=self._telemetry).run(replayed)
        outcomes = [outcome if outcome.message is message
                    else replace(outcome, message=message)
                    for outcome, message in zip(result.outcomes, messages)]
        return SimulationResult(algorithm=result.algorithm,
                                trace_name=result.trace_name,
                                outcomes=outcomes,
                                copies_sent=result.copies_sent)


def simulate(
    trace: ContactTrace,
    algorithm: RoutingProtocol,
    messages: Sequence[Message],
    copy_semantics: str = "copy",
    stop_on_delivery: bool = True,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`ForwardingSimulator`."""
    simulator = ForwardingSimulator(trace, algorithm, copy_semantics=copy_semantics,
                                    stop_on_delivery=stop_on_delivery)
    return simulator.run(messages)
