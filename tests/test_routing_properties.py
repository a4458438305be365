"""Property-based tests (hypothesis) for the stateful protocol invariants.

Two invariants from the ISSUE:

* binary (and source) spray-and-wait never exceed their L-copy budget,
  whatever the contact sequence does;
* PRoPHET delivery predictabilities stay in ``[0, 1]`` under arbitrary
  contact sequences, including adversarial timing (simultaneous and
  out-of-order-looking event times).

A differential oracle pins PRoPHET's dense predictability matrix to a
straightforward per-node dict implementation: every ``P(x, y)`` must be
*equal* (not approximately equal) after any contact and read sequence,
and a full vector-engine run must produce the same delivery stream.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contacts import Contact, ContactTrace
from repro.forwarding import (
    ForwardingSimulator,
    Message,
    OnlineContactHistory,
    PoissonMessageWorkload,
)
from repro.routing import (
    BinarySprayAndWaitProtocol,
    ProphetProtocol,
    RoutingProtocol,
    SourceSprayAndWaitProtocol,
)
from repro.scenario.traces import GridRandomWaypointTraceSpec
from repro.sim import VectorSimulator

node_ids = st.integers(min_value=0, max_value=9)


@st.composite
def contact_strategy(draw, max_time: float = 500.0):
    a = draw(node_ids)
    b = draw(node_ids)
    if a == b:
        b = (a + 1) % 10
    start = draw(st.floats(min_value=0.0, max_value=max_time, allow_nan=False))
    length = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    return Contact(start, start + length, a, b)


@st.composite
def trace_strategy(draw, min_contacts: int = 1, max_contacts: int = 40):
    contacts = draw(st.lists(contact_strategy(), min_size=min_contacts,
                             max_size=max_contacts))
    max_end = max(c.end for c in contacts)
    return ContactTrace(contacts, nodes=range(10), duration=max_end + 50.0)


@st.composite
def messages_strategy(draw, max_messages: int = 6, max_time: float = 400.0):
    count = draw(st.integers(min_value=1, max_value=max_messages))
    messages = []
    for index in range(count):
        source = draw(node_ids)
        destination = draw(node_ids)
        if source == destination:
            destination = (source + 1) % 10
        creation = draw(st.floats(min_value=0.0, max_value=max_time,
                                  allow_nan=False))
        messages.append(Message(id=index, source=source,
                                destination=destination,
                                creation_time=creation))
    return messages


class TestSprayBudgetInvariant:
    @settings(max_examples=60, deadline=None)
    @given(trace=trace_strategy(), messages=messages_strategy(),
           budget=st.integers(min_value=1, max_value=16))
    def test_binary_spray_never_exceeds_budget(self, trace, messages, budget):
        protocol = BinarySprayAndWaitProtocol(copies=budget)
        result = ForwardingSimulator(trace, protocol).run(messages)
        for message in messages:
            holders = protocol._copies.get(message.id, {})
            # the logical budget is conserved, every holder owns >= 1 copy,
            # so at most L nodes ever carry (delivery rides on top for free)
            assert sum(holders.values()) == budget
            assert all(count >= 1 for count in holders.values())
            assert len(holders) <= budget
        # relaying transfers (delivery excluded) are bounded by the spray
        # fan-out: at most L - 1 sprays per message
        delivered = sum(1 for o in result.outcomes if o.delivered)
        assert result.copies_sent <= len(messages) * (budget - 1) + delivered

    @settings(max_examples=40, deadline=None)
    @given(trace=trace_strategy(), messages=messages_strategy(),
           budget=st.integers(min_value=1, max_value=16))
    def test_source_spray_never_exceeds_budget(self, trace, messages, budget):
        protocol = SourceSprayAndWaitProtocol(copies=budget)
        ForwardingSimulator(trace, protocol).run(messages)
        for message in messages:
            holders = protocol._copies.get(message.id, {})
            assert sum(holders.values()) == budget
            assert len(holders) <= budget


def _assert_unit_interval(protocol: ProphetProtocol) -> None:
    """Every entry of the predictability matrix, learned or not, is in
    [0, 1] (covers all pairs, not only the learned ones)."""
    matrix = protocol._p
    assert ((matrix >= 0.0) & (matrix <= 1.0)).all(), matrix


class TestProphetBounds:
    @settings(max_examples=80, deadline=None)
    @given(events=st.lists(
        st.tuples(node_ids, node_ids,
                  st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
        min_size=1, max_size=60))
    def test_predictabilities_stay_in_unit_interval(self, events):
        """Arbitrary (including non-monotone) contact sequences keep every
        P(a, b) in [0, 1]."""
        protocol = ProphetProtocol()
        history = OnlineContactHistory()
        for a, b, now in events:
            if a == b:
                b = (a + 1) % 10
            protocol.on_contact_start(a, b, now, history)
            _assert_unit_interval(protocol)

    @settings(max_examples=40, deadline=None)
    @given(trace=trace_strategy(), messages=messages_strategy())
    def test_bounds_hold_through_full_simulation(self, trace, messages):
        protocol = ProphetProtocol()
        ForwardingSimulator(trace, protocol).run(messages)
        _assert_unit_interval(protocol)


# ----------------------------------------------------------------------
# differential oracle: the dense matrix vs per-node dict tables
# ----------------------------------------------------------------------
class DictProphetOracle(RoutingProtocol):
    """PRoPHET on per-node ``{other: P}`` dict tables, the straightforward
    implementation the dense matrix must reproduce bit for bit."""

    name = "PRoPHET"

    def __init__(self, p_encounter=0.75, beta=0.25, gamma=0.98,
                 aging_interval=60.0):
        self.p_encounter = p_encounter
        self.beta = beta
        self.gamma = gamma
        self.aging_interval = aging_interval
        self.prepare(None)

    def prepare(self, trace):
        self.tables = {}
        self.last_update = {}

    def _age(self, node, now):
        table = self.tables.setdefault(node, {})
        last = self.last_update.get(node)
        if last is not None and now > last:
            factor = self.gamma ** ((now - last) / self.aging_interval)
            for other in table:
                table[other] *= factor
        self.last_update[node] = max(now, last if last is not None else now)
        return table

    def predictability(self, node, other, now=None):
        if node == other:
            return 1.0
        if now is not None:
            return self._age(node, now).get(other, 0.0)
        return self.tables.get(node, {}).get(other, 0.0)

    def on_contact_start(self, a, b, now, history):
        table_a = self._age(a, now)
        table_b = self._age(b, now)
        table_a[b] = table_a.get(b, 0.0) + (1.0 - table_a.get(b, 0.0)) * self.p_encounter
        table_b[a] = table_b.get(a, 0.0) + (1.0 - table_b.get(a, 0.0)) * self.p_encounter
        for mine, theirs, self_node, other_node in (
                (table_a, table_b, a, b), (table_b, table_a, b, a)):
            via = mine[other_node]
            for c, p_theirs in list(theirs.items()):
                if c == self_node or c == other_node:
                    continue
                lifted = via * p_theirs * self.beta
                if lifted > mine.get(c, 0.0):
                    mine[c] = lifted

    def vector_approvals(self, carrier, peer, messages, now, history):
        return [self.predictability(peer, m.destination, now)
                > self.predictability(carrier, m.destination, now)
                for m in messages]


_ORACLE_NODES = range(12)


def _assert_same_predictabilities(protocol, oracle, nodes=_ORACLE_NODES):
    """Exact equality of every P(x, y) read without aging, and of the
    stored matrix itself: each interned row holds the node's dict table
    (the diagonal and unlearned entries zero), and unused rows are zero."""
    for x in nodes:
        for y in nodes:
            assert (protocol.predictability(x, y)
                    == oracle.predictability(x, y)), (x, y)
    expected = np.zeros_like(protocol._p)
    for x, row in protocol._index.items():
        for y, column in protocol._index.items():
            expected[row, column] = oracle.tables.get(x, {}).get(y, 0.0)
    assert np.array_equal(protocol._p, expected)
    assert len(protocol._index) <= len(protocol._last)
    for x, row in protocol._index.items():
        last = oracle.last_update.get(x)
        assert (math.isnan(protocol._last[row]) if last is None
                else protocol._last[row] == last), x


#: (kind, a, b, now): a contact, an aged read (now given) or a plain read
_times = st.one_of(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.sampled_from([0.0, 30.0, 60.0, 60.0 + 1e-9]))
_oracle_ops = st.lists(
    st.tuples(st.sampled_from(["contact", "contact", "read", "peek"]),
              st.integers(min_value=0, max_value=11),
              st.integers(min_value=0, max_value=11),
              _times),
    min_size=1, max_size=80)
_oracle_params = st.fixed_dictionaries({
    "p_encounter": st.one_of(st.just(1.0), st.just(0.75),
                             st.floats(min_value=1e-3, max_value=1.0)),
    "beta": st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                      st.floats(min_value=0.0, max_value=1.0)),
    "gamma": st.one_of(st.sampled_from([1.0, 0.98, 0.5]),
                       st.floats(min_value=1e-3, max_value=1.0)),
    "aging_interval": st.sampled_from([60.0, 1.0, 1e3]),
})


class TestProphetMatrixOracle:
    @settings(max_examples=300, deadline=None)
    @given(params=_oracle_params, ops=_oracle_ops,
           prepared=st.one_of(st.none(), st.integers(min_value=1, max_value=12)))
    def test_matrix_equals_dict_tables(self, params, ops, prepared):
        """Arbitrary (non-monotone) contact and read sequences give equal
        predictabilities, with the trace's nodes prepared (a prefix of the
        node ids, so later ids grow the matrix) or never prepared."""
        protocol = ProphetProtocol(**params)
        oracle = DictProphetOracle(**params)
        if prepared is not None:
            trace = ContactTrace([], nodes=range(prepared), duration=1.0)
            protocol.prepare(trace)
            oracle.prepare(trace)
        history = OnlineContactHistory()
        for kind, a, b, now in ops:
            if kind == "contact":
                if a == b:
                    b = (a + 1) % 12
                protocol.on_contact_start(a, b, now, history)
                oracle.on_contact_start(a, b, now, history)
            elif kind == "read":
                assert (protocol.predictability(a, b, now)
                        == oracle.predictability(a, b, now)), (a, b, now)
            else:
                assert protocol.predictability(a, b) == oracle.predictability(a, b)
            _assert_same_predictabilities(protocol, oracle)

    def test_matrix_grows_by_doubling(self):
        protocol = ProphetProtocol()
        history = OnlineContactHistory()
        for node in range(1, 8):
            protocol.on_contact_start(0, node, float(node), history)
        assert protocol._p.shape == (8, 8) and len(protocol._last) == 8
        protocol.on_contact_start(0, 8, 8.0, history)
        assert protocol._p.shape == (16, 16) and len(protocol._last) == 16
        assert protocol.predictability(0, 8) == 0.75
        assert protocol.predictability(8, 0) == 0.75
        assert math.isnan(protocol._last[15])

    def test_vector_run_matches_dict_oracle(self):
        """A seeded 200-node city through the vector engine:
        the same delivery stream, copy count and resource stats, and the
        same final predictabilities."""
        trace = GridRandomWaypointTraceSpec(
            num_nodes=200, duration=300.0, width=500.0, height=500.0,
            radio_range=20.0).build(seed=3)
        messages = PoissonMessageWorkload(rate=0.1).generate(trace, seed=5)
        protocol = ProphetProtocol()
        oracle = DictProphetOracle()
        result = VectorSimulator(trace, protocol).run(messages)
        expected = VectorSimulator(trace, oracle).run(messages)
        assert len(trace) > 500 and messages
        assert result.num_delivered > 0
        assert [(o.message, o.delivered, o.delivery_time, o.hop_count)
                for o in result.outcomes] == [
            (o.message, o.delivered, o.delivery_time, o.hop_count)
            for o in expected.outcomes]
        assert result.copies_sent == expected.copies_sent
        assert result.stats.as_dict() == expected.stats.as_dict()
        _assert_same_predictabilities(protocol, oracle, sorted(trace.nodes))
