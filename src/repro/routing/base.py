"""The routing-protocol lifecycle.

:class:`RoutingProtocol` is the one forwarding API: the paper's six
heuristics (:mod:`repro.forwarding.algorithms`) and the stateful zoo
(:mod:`repro.routing.protocols`) all subclass it.  The paper's six reduce
to a stateless per-contact ``should_forward`` test.  The modern DTN
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
``should_forward(carrier, peer, message, now, history)``
    the replication-aware forward decision.  It receives the *message*, so
    protocols can consult its destination and per-message state (remaining
    copies, token ownership).
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
other.  ``vector_fastpath`` and ``vector_approvals`` opt a protocol into
the vector engine's batched fast path, which calls no per-contact hook;
the ``vector_approvals`` docstring states the batch contract.  A batched
protocol whose verdicts read the contact history also sets
``reads_history``: the engine then records the history on that path and
passes it as ``vector_approvals``' fifth argument (``None`` otherwise).
All six paper algorithms are batched; of the zoo, PRoPHET alone needs
the hooks.
"""

from ..forwarding.algorithms import RoutingProtocol

__all__ = ["RoutingProtocol"]
