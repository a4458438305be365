"""The routing-protocol lifecycle.

:class:`RoutingProtocol` is the one forwarding API: the paper's six
heuristics (:mod:`repro.forwarding.algorithms`) and the stateful zoo
(:mod:`repro.routing.protocols`) all subclass it.  The paper's six reduce
to a stateless per-contact verdict.  The modern DTN
protocols this package adds — spray-and-wait replication budgets, PRoPHET's
learned delivery predictabilities, probabilistic flooding — need *per-node
persistent state* that evolves with the contact process.  A
:class:`RoutingProtocol` therefore sees the full lifecycle of a run:

``prepare(trace)``
    called once at the start of every run; resets all per-run state and
    precomputes oracle state for future-knowledge protocols.
``on_message_created(message, now)``
    a message entered the network at its source (spray protocols allocate
    their copy budget here).
``on_contact_start(a, b, now, history)`` / ``on_contact_end(a, b, now, history)``
    a contact opened/closed (PRoPHET updates predictabilities here).
``vector_approvals(carrier, peer, messages, now, history)``
    the replication-aware forward decision, one verdict per message, and
    the one verdict method a protocol defines.  It receives the
    *messages*, so protocols can consult each destination and per-message
    state (remaining copies, token ownership).  ``should_forward`` judges
    one message as a one-message batch; it is defined once, on the base
    class, and a subclass that defines it is refused (``TypeError``).
``on_forwarded(message, carrier, peer, now)``
    a copy actually moved (this is where copy budgets are *spent* — a
    decision alone costs nothing, so a transfer rejected by a full buffer
    in the constrained engine does not burn budget).
``on_delivered(message, now)``
    the message reached its destination (first delivery only).

Both engines — the vector kernel :class:`repro.sim.VectorSimulator` and
the resource-constrained :class:`repro.sim.DesSimulator` — invoke the
hooks at the same points in the same event order, so a deterministic
protocol produces identical delivery streams in both (enforced by
``tests/test_routing_equivalence.py``).  Delivery to the destination itself
remains the engines' *minimal progress* rule and is never a protocol
decision; it does not spend replication budget.

The class itself lives in :mod:`repro.forwarding.algorithms`, next to the
paper's six, because the routing registry imports those six: defining it
here would make ``repro.routing`` and ``repro.forwarding`` import each
other.  The ``vector_approvals`` docstring states the batch contract.
The vector engine calls ``on_contact_start``/``on_contact_end`` only
when the protocol's class overrides them (of the catalogue, PRoPHET
alone does; the read-only ``vector_fastpath`` is true for every other
protocol).  A protocol whose verdicts or hooks read the contact history
sets ``reads_history``: the vector engine records the history only then
and passes it as their ``history`` argument, ``None`` otherwise.
"""

from ..forwarding.algorithms import RoutingProtocol

__all__ = ["RoutingProtocol"]
