"""Unit tests for the protocol zoo, the registry and the paper's six
under the protocol API."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.trace_engine import TraceEngine

from repro.contacts import Contact, ContactTrace
from repro.forwarding import ForwardingSimulator, Message, OnlineContactHistory
from repro.forwarding.algorithms import algorithm_by_name, algorithm_names
from repro.routing import (
    NEW_PROTOCOL_NAMES,
    PAPER_PROTOCOL_NAMES,
    BinarySprayAndWaitProtocol,
    DirectDeliveryProtocol,
    FirstContactProtocol,
    HypergossipProtocol,
    ProphetProtocol,
    RoutingProtocol,
    SourceSprayAndWaitProtocol,
    protocol_by_name,
    protocol_catalogue,
    protocol_names,
    register_protocol,
)
from repro.sim import DesSimulator, VectorSimulator


# ----------------------------------------------------------------------
# a tiny line topology: 0-1 at t=10, 1-2 at t=20, 2-3 at t=30, 0-3 at t=40
# ----------------------------------------------------------------------
def _line_trace():
    contacts = [
        Contact(10.0, 12.0, 0, 1),
        Contact(20.0, 22.0, 1, 2),
        Contact(30.0, 32.0, 2, 3),
        Contact(40.0, 42.0, 0, 3),
    ]
    return ContactTrace(contacts, nodes=range(4), duration=60.0, name="line")


def _run(protocol, messages, trace=None):
    return ForwardingSimulator(trace or _line_trace(), protocol).run(messages)


class TestRegistry:
    def test_all_twelve_registered(self):
        names = protocol_names()
        assert len(names) >= 12
        assert len(PAPER_PROTOCOL_NAMES) == 6
        assert len(NEW_PROTOCOL_NAMES) >= 6
        assert set(algorithm_names()) <= set(names)

    def test_fresh_instances(self):
        first = protocol_by_name("PRoPHET")
        second = protocol_by_name("PRoPHET")
        assert first is not second

    def test_slug_tolerant_lookup(self):
        assert protocol_by_name("prophet").name == "PRoPHET"
        assert protocol_by_name("binary-spray-and-wait").name == \
            "Binary Spray-and-Wait"
        assert protocol_by_name("DIRECT delivery").name == "Direct Delivery"

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            protocol_by_name("Telepathy")

    def test_reregistration_requires_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol("Epidemic", DirectDeliveryProtocol)

    def test_slug_collision_rejected(self):
        # would silently hijack protocol_by_name("prophet")
        with pytest.raises(ValueError, match="collides"):
            register_protocol("Pro Phet", DirectDeliveryProtocol)
        assert protocol_by_name("prophet").name == "PRoPHET"

    def test_catalogue_rows(self):
        rows = protocol_catalogue()
        assert len(rows) == len(protocol_names())
        by_name = {row["protocol"]: row for row in rows}
        assert by_name["Epidemic"]["origin"] == "paper"
        assert by_name["PRoPHET"]["origin"] == "zoo"
        assert by_name["Binary Spray-and-Wait"]["replication"] == "L copies"


class TestCatalogue:
    def test_catalogue_literal(self):
        """Every cell of ``python -m repro routing list``."""
        columns = ("protocol", "origin", "stateful", "replication",
                   "knowledge", "oracle", "vector")
        expected = [
            ("Epidemic", "paper", "no", "flooding", "none", "no",
             "fast-path"),
            ("FRESH", "paper", "no", "utility", "history", "no",
             "fast-path"),
            ("Greedy", "paper", "no", "utility", "history", "no",
             "fast-path"),
            ("Greedy Total", "paper", "no", "utility", "oracle", "yes",
             "fast-path"),
            ("Greedy Online", "paper", "no", "utility", "history", "no",
             "fast-path"),
            ("Dynamic Programming", "paper", "no", "utility", "oracle", "yes",
             "fast-path"),
            ("Direct Delivery", "zoo", "no", "single-copy", "none", "no",
             "fast-path"),
            ("First Contact", "zoo", "yes", "single-copy", "none", "no",
             "fast-path"),
            ("Binary Spray-and-Wait", "zoo", "yes", "L copies", "none", "no",
             "fast-path"),
            ("Source Spray-and-Wait", "zoo", "yes", "L copies", "none", "no",
             "fast-path"),
            ("PRoPHET", "zoo", "yes", "utility", "learned", "no", "hooks"),
            ("Hypergossip", "zoo", "no", "probabilistic", "none", "no",
             "fast-path"),
        ]
        assert protocol_catalogue() == [dict(zip(columns, row))
                                        for row in expected]


# ----------------------------------------------------------------------
# an 8-node mesh on which the six paper algorithms all behave differently
# ----------------------------------------------------------------------
_MESH_CONTACTS = [
    (10.0, 20.0, 0, 3), (20.0, 20.0, 6, 1), (25.0, 25.0, 0, 3),
    (25.0, 35.0, 2, 6), (35.0, 37.0, 0, 1), (40.0, 40.0, 7, 1),
    (60.0, 60.0, 2, 4), (60.0, 62.0, 3, 1), (65.0, 65.0, 0, 1),
    (75.0, 75.0, 1, 4), (75.0, 77.0, 7, 6), (80.0, 80.0, 2, 0),
    (80.0, 80.0, 2, 1), (80.0, 82.0, 5, 4), (85.0, 85.0, 3, 7),
    (85.0, 95.0, 2, 7), (95.0, 97.0, 4, 2), (100.0, 100.0, 2, 7),
    (100.0, 102.0, 1, 2), (105.0, 105.0, 0, 4), (110.0, 120.0, 4, 5),
    (115.0, 117.0, 1, 4), (115.0, 117.0, 4, 0), (120.0, 130.0, 6, 2),
    (125.0, 125.0, 5, 6), (145.0, 145.0, 0, 6), (145.0, 147.0, 3, 6),
    (150.0, 152.0, 5, 1), (190.0, 200.0, 5, 2), (195.0, 197.0, 5, 4),
]
_MESH_MESSAGES = [(0, 0, 7, 0.0), (1, 3, 5, 20.0), (2, 6, 1, 40.0),
                  (3, 2, 4, 60.0), (4, 5, 0, 90.0), (5, 1, 6, 120.0)]

#: copies sent, (delivery time, hops) per message and the DES engine's
#: (decisions, approvals), as recorded from the paper algorithms' earlier
#: destination-only implementation.
_MESH_STREAMS = {
    "Epidemic": (25, ((40.0, 2), (80.0, 4), (100.0, 3), (95.0, 1),
                      (115.0, 2), (None, None)), (20, 20)),
    "FRESH": (13, ((100.0, 3), (None, None), (100.0, 3), (95.0, 1),
                   (115.0, 2), (None, None)), (24, 9)),
    "Greedy": (9, ((100.0, 3), (None, None), (None, None), (95.0, 1),
                   (115.0, 2), (None, None)), (24, 6)),
    "Greedy Total": (12, ((40.0, 2), (110.0, 3), (None, None), (95.0, 1),
                          (115.0, 2), (None, None)), (24, 8)),
    "Greedy Online": (12, ((None, None), (150.0, 2), (None, None),
                           (95.0, 1), (115.0, 2), (None, None)), (34, 9)),
    "Dynamic Programming": (17, ((40.0, 2), (80.0, 4), (150.0, 2),
                                 (95.0, 1), (115.0, 2), (None, None)),
                            (17, 12)),
}


class TestPaperAlgorithms:
    @pytest.mark.parametrize("name", algorithm_names())
    def test_pinned_stream(self, name):
        """Reading ``message.destination`` changes no decision."""
        trace = ContactTrace([Contact(*c) for c in _MESH_CONTACTS],
                             nodes=range(8), duration=240.0, name="mesh")
        messages = [Message(id=i, source=s, destination=d, creation_time=t)
                    for i, s, d, t in _MESH_MESSAGES]
        copies, outcomes, counters = _MESH_STREAMS[name]
        runs = [TraceEngine(trace, algorithm_by_name(name)),
                DesSimulator(trace, algorithm_by_name(name)),
                VectorSimulator(trace, algorithm_by_name(name))]
        for simulator in runs:
            result = simulator.run(messages)
            assert result.copies_sent == copies, simulator
            assert tuple((o.delivery_time, o.hop_count)
                         for o in result.outcomes) == outcomes, simulator
            stats = getattr(result, "stats", None)
            if stats is not None:
                assert (stats.forwarding_decisions,
                        stats.forwarding_approvals) == counters, simulator


# ----------------------------------------------------------------------
# vector_approvals == per-message should_forward, in any reachable state
# ----------------------------------------------------------------------
_BATCH_PROTOCOLS = {
    name: (lambda name=name: protocol_by_name(name))
    for name in protocol_names()
    if protocol_by_name(name).vector_approvals is not None
}
_BATCH_PROTOCOLS.update({
    "Binary Spray-and-Wait L=2": lambda: BinarySprayAndWaitProtocol(copies=2),
    "Source Spray-and-Wait L=3": lambda: SourceSprayAndWaitProtocol(copies=3),
    "Hypergossip p=0.3": lambda: HypergossipProtocol(p=0.3, seed=5),
})

_BATCH_NODES = st.integers(min_value=0, max_value=3)
_BATCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(0, 1)),
        st.tuples(st.just("forward"), st.integers(0, 1), _BATCH_NODES,
                  _BATCH_NODES),
        st.tuples(st.just("contact"), _BATCH_NODES,
                  _BATCH_NODES).filter(lambda op: op[1] != op[2]),
    ),
    max_size=40,
)


class TestVectorApprovalsContract:
    @pytest.mark.parametrize("label", sorted(_BATCH_PROTOCOLS))
    @settings(max_examples=60, deadline=None)
    @given(ops=_BATCH_OPS)
    def test_batch_equals_scalar(self, label, ops):
        """After any sequence of creations, forwards and contacts, the
        batch verdicts for every (carrier, peer) pair equal the
        per-message verdicts.  The batch sees the history only if the
        protocol declares that it reads it, as in the vector engine."""
        protocol = _BATCH_PROTOCOLS[label]()
        assert protocol.vector_fastpath
        protocol.prepare(_line_trace())
        history = OnlineContactHistory()
        batch_history = history if protocol.reads_history else None
        messages = [Message(id=i, source=i, destination=3 - i,
                            creation_time=0.0) for i in range(2)]
        pairs = [(c, p) for c in range(4) for p in range(4) if c != p]
        # forwards start at nodes that hold the message, as in a run, so
        # budgets get spent down and tokens move along
        holders = [[m.source] for m in messages]

        def check(now):
            for carrier, peer in pairs:
                expected = [protocol.should_forward(carrier, peer, m, now,
                                                    history)
                            for m in messages]
                assert protocol.vector_approvals(carrier, peer, messages,
                                                 now, batch_history) == expected

        check(0.0)
        for step, op in enumerate(ops, start=1):
            now = float(step)
            if op[0] == "create":
                protocol.on_message_created(messages[op[1]], now)
            elif op[0] == "contact":
                history.record(op[1], op[2], now)
            else:
                _, index, choice, peer = op
                carrier = holders[index][choice % len(holders[index])]
                protocol.on_forwarded(messages[index], carrier, peer, now)
                if peer not in holders[index]:
                    holders[index].append(peer)
            check(now)

    def test_batched_protocols_keep_the_no_op_contact_hooks(self):
        """The batched path calls no per-contact hook, so every protocol
        on it (all six paper algorithms among them) must keep the base
        class's no-ops."""
        for label, make in _BATCH_PROTOCOLS.items():
            cls = type(make())
            for hook in ("on_contact_start", "on_contact_end"):
                assert (getattr(cls, hook)
                        is getattr(RoutingProtocol, hook)), (label, hook)


class TestDirectDelivery:
    def test_only_direct_contacts_deliver(self):
        messages = [Message(id=0, source=0, destination=3, creation_time=0.0),
                    Message(id=1, source=0, destination=1, creation_time=0.0)]
        result = _run(DirectDeliveryProtocol(), messages)
        by_id = {o.message.id: o for o in result.outcomes}
        # 0 meets 3 at t=40; 0 meets 1 at t=10
        assert by_id[0].delivered and by_id[0].delivery_time == 40.0
        assert by_id[0].hop_count == 1
        assert by_id[1].delivered and by_id[1].delivery_time == 10.0
        # exactly one copy per delivery, zero relaying
        assert result.copies_sent == 2


class TestFirstContact:
    def test_token_walks_the_line(self):
        messages = [Message(id=0, source=0, destination=3, creation_time=0.0)]
        result = _run(FirstContactProtocol(), messages)
        outcome = result.outcomes[0]
        # token: 0 -> 1 (t=10) -> 2 (t=20) -> 3 (t=30, delivery)
        assert outcome.delivered
        assert outcome.delivery_time == 30.0
        assert outcome.hop_count == 3
        assert result.copies_sent == 3

    def test_stale_carriers_refuse(self):
        protocol = FirstContactProtocol()
        trace = _line_trace()
        _run(protocol, [Message(id=0, source=0, destination=3,
                                creation_time=0.0)], trace)
        history = OnlineContactHistory()
        message = Message(id=0, source=0, destination=3, creation_time=0.0)
        # after the run the token sits at the destination, nobody forwards
        assert not protocol.should_forward(0, 2, message, 50.0, history)
        assert not protocol.should_forward(1, 0, message, 50.0, history)


class TestSprayAndWait:
    def test_binary_split(self):
        protocol = BinarySprayAndWaitProtocol(copies=8)
        protocol.prepare(_line_trace())
        message = Message(id=0, source=0, destination=3, creation_time=0.0)
        protocol.on_message_created(message, 0.0)
        assert protocol.copies_held(0, 0) == 8
        protocol.on_forwarded(message, 0, 1, 10.0)
        assert protocol.copies_held(0, 0) == 4
        assert protocol.copies_held(0, 1) == 4
        protocol.on_forwarded(message, 1, 2, 20.0)
        assert protocol.copies_held(0, 1) == 2
        assert protocol.copies_held(0, 2) == 2
        assert protocol.total_copies(0) == 8

    def test_wait_phase_blocks_forwarding(self):
        protocol = BinarySprayAndWaitProtocol(copies=2)
        protocol.prepare(_line_trace())
        message = Message(id=0, source=0, destination=3, creation_time=0.0)
        protocol.on_message_created(message, 0.0)
        history = OnlineContactHistory()
        assert protocol.should_forward(0, 1, message, 10.0, history)
        protocol.on_forwarded(message, 0, 1, 10.0)
        # both holders are now down to one copy: wait phase
        assert not protocol.should_forward(0, 2, message, 20.0, history)
        assert not protocol.should_forward(1, 2, message, 20.0, history)

    def test_source_spray_only_source_sprays(self):
        protocol = SourceSprayAndWaitProtocol(copies=3)
        protocol.prepare(_line_trace())
        message = Message(id=0, source=0, destination=3, creation_time=0.0)
        protocol.on_message_created(message, 0.0)
        history = OnlineContactHistory()
        assert protocol.should_forward(0, 1, message, 10.0, history)
        protocol.on_forwarded(message, 0, 1, 10.0)
        # the relay never sprays, the source still can (one copy left to give)
        assert not protocol.should_forward(1, 2, message, 20.0, history)
        assert protocol.should_forward(0, 2, message, 20.0, history)
        protocol.on_forwarded(message, 0, 2, 20.0)
        assert not protocol.should_forward(0, 3, message, 30.0, history)
        assert protocol.total_copies(0) == 3

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            BinarySprayAndWaitProtocol(copies=0)

    def test_prepare_resets_budgets(self):
        protocol = BinarySprayAndWaitProtocol(copies=4)
        messages = [Message(id=0, source=0, destination=3, creation_time=0.0)]
        first = _run(protocol, messages)
        second = _run(protocol, messages)
        assert first.copies_sent == second.copies_sent
        assert [o.delivery_time for o in first.outcomes] == \
            [o.delivery_time for o in second.outcomes]


class TestProphet:
    def test_encounter_raises_predictability(self):
        protocol = ProphetProtocol()
        protocol.prepare(_line_trace())
        history = OnlineContactHistory()
        assert protocol.predictability(0, 1) == 0.0
        protocol.on_contact_start(0, 1, 10.0, history)
        assert protocol.predictability(0, 1) == pytest.approx(0.75)
        protocol.on_contact_start(0, 1, 10.0, history)
        assert protocol.predictability(0, 1) == pytest.approx(0.9375)

    def test_aging_decays(self):
        protocol = ProphetProtocol(gamma=0.5, aging_interval=10.0)
        protocol.prepare(_line_trace())
        history = OnlineContactHistory()
        protocol.on_contact_start(0, 1, 0.0, history)
        p_now = protocol.predictability(0, 1, now=0.0)
        p_later = protocol.predictability(0, 1, now=20.0)
        assert p_later == pytest.approx(p_now * 0.25)

    def test_transitivity(self):
        protocol = ProphetProtocol()
        protocol.prepare(_line_trace())
        history = OnlineContactHistory()
        protocol.on_contact_start(1, 2, 10.0, history)   # 1 knows 2
        protocol.on_contact_start(0, 1, 10.0, history)   # 0 learns 2 via 1
        assert protocol.predictability(0, 2) == pytest.approx(
            0.75 * 0.75 * 0.25)

    def test_forwards_up_the_gradient(self):
        protocol = ProphetProtocol()
        protocol.prepare(_line_trace())
        history = OnlineContactHistory()
        protocol.on_contact_start(1, 3, 10.0, history)
        message = Message(id=0, source=0, destination=3, creation_time=0.0)
        assert protocol.should_forward(0, 1, message, 20.0, history)
        assert not protocol.should_forward(1, 0, message, 20.0, history)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProphetProtocol(p_encounter=0.0)
        with pytest.raises(ValueError):
            ProphetProtocol(gamma=1.5)
        with pytest.raises(ValueError):
            ProphetProtocol(aging_interval=0.0)


class TestHypergossip:
    def test_p_one_is_epidemic(self):
        trace = _line_trace()
        messages = [Message(id=0, source=0, destination=3, creation_time=0.0)]
        gossip = _run(HypergossipProtocol(p=1.0), messages, trace)
        epidemic = _run(algorithm_by_name("Epidemic"), messages, trace)
        assert gossip.copies_sent == epidemic.copies_sent
        assert gossip.outcomes[0].delivery_time == \
            epidemic.outcomes[0].delivery_time

    def test_p_zero_is_direct_delivery(self):
        messages = [Message(id=0, source=0, destination=3, creation_time=0.0)]
        gossip = _run(HypergossipProtocol(p=0.0), messages)
        direct = _run(DirectDeliveryProtocol(), messages)
        assert gossip.copies_sent == direct.copies_sent
        assert gossip.outcomes[0].delivery_time == \
            direct.outcomes[0].delivery_time

    def test_coin_is_deterministic(self):
        protocol = HypergossipProtocol(p=0.5, seed=3)
        message = Message(id=7, source=0, destination=3, creation_time=0.0)
        history = OnlineContactHistory()
        first = protocol.should_forward(1, 2, message, 10.0, history)
        for _ in range(5):
            assert protocol.should_forward(1, 2, message, 10.0, history) == first

    def test_seed_changes_coins(self):
        coins_a = [HypergossipProtocol(p=0.5, seed=0)._coin(m, 1, 2)
                   for m in range(64)]
        coins_b = [HypergossipProtocol(p=0.5, seed=1)._coin(m, 1, 2)
                   for m in range(64)]
        assert coins_a != coins_b
        assert all(0.0 <= c < 1.0 for c in coins_a + coins_b)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            HypergossipProtocol(p=1.5)


class TestEngineHooks:
    def test_lifecycle_hooks_fire_in_order(self):
        events = []

        class Recorder(RoutingProtocol):
            name = "Recorder"

            def prepare(self, trace):
                events.append(("prepare", trace.name))

            def on_message_created(self, message, now):
                events.append(("created", message.id, now))

            def on_contact_start(self, a, b, now, history):
                events.append(("start", a, b, now))

            def on_contact_end(self, a, b, now, history):
                events.append(("end", a, b, now))

            def on_forwarded(self, message, carrier, peer, now):
                events.append(("forwarded", message.id, carrier, peer, now))

            def on_delivered(self, message, now):
                events.append(("delivered", message.id, now))

            def should_forward(self, carrier, peer, message, now, history):
                return True

        messages = [Message(id=0, source=0, destination=2, creation_time=0.0)]
        _run(Recorder(), messages)
        assert events[0] == ("prepare", "line")
        assert ("created", 0, 0.0) in events
        assert ("start", 0, 1, 10.0) in events
        assert ("end", 0, 1, 12.0) in events
        assert ("forwarded", 0, 0, 1, 10.0) in events
        assert ("delivered", 0, 20.0) in events
        # creation precedes the first contact of its flood
        assert events.index(("created", 0, 0.0)) < \
            events.index(("start", 0, 1, 10.0))
