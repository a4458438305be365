"""Unit tests for the forwarding algorithms (repro.forwarding.algorithms)."""

from __future__ import annotations

import pytest

from repro.contacts import Contact, ContactTrace
from repro.forwarding import (
    DynamicProgrammingForwarding,
    EpidemicForwarding,
    FreshForwarding,
    GreedyForwarding,
    GreedyOnlineForwarding,
    GreedyTotalForwarding,
    Message,
    OnlineContactHistory,
    default_algorithms,
)

DEST = 9


def _to(destination):
    return Message(id=0, source=0, destination=destination, creation_time=0.0)


def _history(records):
    history = OnlineContactHistory()
    for a, b, t in records:
        history.record(a, b, t)
    return history


class TestDefaultAlgorithms:
    def test_six_algorithms_with_paper_names(self):
        names = [a.name for a in default_algorithms()]
        assert names == ["Epidemic", "FRESH", "Greedy", "Greedy Total",
                         "Greedy Online", "Dynamic Programming"]

    def test_fresh_instances_each_call(self):
        first = default_algorithms()
        second = default_algorithms()
        assert all(a is not b for a, b in zip(first, second))

    def test_future_knowledge_flags(self):
        by_name = {a.name: a for a in default_algorithms()}
        assert by_name["Greedy Total"].uses_future_knowledge
        assert by_name["Dynamic Programming"].uses_future_knowledge
        assert not by_name["Epidemic"].uses_future_knowledge
        assert not by_name["FRESH"].uses_future_knowledge
        assert not by_name["Greedy"].uses_future_knowledge
        assert not by_name["Greedy Online"].uses_future_knowledge


class TestEpidemic:
    def test_always_forwards(self):
        algorithm = EpidemicForwarding()
        history = _history([])
        assert algorithm.should_forward(0, 1, _to(DEST), 10.0, history)
        assert algorithm.should_forward(1, 0, _to(DEST), 10.0, history)


class TestFresh:
    def test_forwards_to_more_recent_encounter(self):
        history = _history([(1, DEST, 100.0), (2, DEST, 200.0)])
        algorithm = FreshForwarding()
        assert algorithm.should_forward(1, 2, _to(DEST), 300.0, history)
        assert not algorithm.should_forward(2, 1, _to(DEST), 300.0, history)

    def test_never_met_destination_never_receives(self):
        history = _history([(1, DEST, 100.0)])
        algorithm = FreshForwarding()
        assert not algorithm.should_forward(1, 3, _to(DEST), 300.0, history)

    def test_never_met_carrier_forwards_to_anyone_who_has(self):
        history = _history([(2, DEST, 50.0)])
        algorithm = FreshForwarding()
        assert algorithm.should_forward(4, 2, _to(DEST), 300.0, history)

    def test_tie_does_not_forward(self):
        history = _history([])
        algorithm = FreshForwarding()
        assert not algorithm.should_forward(1, 2, _to(DEST), 300.0, history)


class TestGreedy:
    def test_forwards_to_more_frequent_encounter(self):
        history = _history([(1, DEST, 10.0), (2, DEST, 20.0), (2, DEST, 30.0)])
        algorithm = GreedyForwarding()
        assert algorithm.should_forward(1, 2, _to(DEST), 50.0, history)
        assert not algorithm.should_forward(2, 1, _to(DEST), 50.0, history)

    def test_equal_counts_do_not_forward(self):
        history = _history([(1, DEST, 10.0), (2, DEST, 20.0)])
        algorithm = GreedyForwarding()
        assert not algorithm.should_forward(1, 2, _to(DEST), 50.0, history)

    def test_destination_awareness(self):
        # Node 2 is very social but never met the destination; Greedy ignores it.
        history = _history([(2, 3, 1.0), (2, 4, 2.0), (2, 5, 3.0), (1, DEST, 4.0)])
        algorithm = GreedyForwarding()
        assert not algorithm.should_forward(1, 2, _to(DEST), 10.0, history)


class TestGreedyOnline:
    def test_forwards_to_more_social_node(self):
        history = _history([(2, 3, 1.0), (2, 4, 2.0), (1, 5, 3.0)])
        algorithm = GreedyOnlineForwarding()
        assert algorithm.should_forward(1, 2, _to(DEST), 10.0, history)
        assert not algorithm.should_forward(2, 1, _to(DEST), 10.0, history)

    def test_destination_unaware(self):
        history = _history([(1, DEST, 1.0), (1, DEST, 2.0), (2, 3, 3.0),
                            (2, 4, 4.0), (2, 5, 5.0)])
        algorithm = GreedyOnlineForwarding()
        # 2 has more total contacts even though 1 knows the destination better.
        assert algorithm.should_forward(1, 2, _to(DEST), 10.0, history)


class TestGreedyTotal:
    def test_requires_prepare(self):
        algorithm = GreedyTotalForwarding()
        with pytest.raises(RuntimeError):
            algorithm.should_forward(0, 1, _to(DEST), 0.0, _history([]))

    def test_uses_whole_trace_counts(self, star_trace):
        algorithm = GreedyTotalForwarding()
        algorithm.prepare(star_trace)
        empty_history = _history([])
        # The hub (0) has the most contacts over the full trace, so spokes
        # forward to it even before any contact has been observed online.
        assert algorithm.should_forward(1, 0, _to(5), 0.0, empty_history)
        assert not algorithm.should_forward(0, 1, _to(5), 0.0, empty_history)


class TestDynamicProgramming:
    def test_requires_prepare(self):
        algorithm = DynamicProgrammingForwarding()
        with pytest.raises(RuntimeError):
            algorithm.should_forward(0, 1, _to(DEST), 0.0, _history([]))

    def test_forwards_downhill_in_expected_delay(self, star_trace):
        algorithm = DynamicProgrammingForwarding()
        algorithm.prepare(star_trace)
        history = _history([])
        # Spoke 1 sending to spoke 2 should hand the message to the hub.
        assert algorithm.should_forward(1, 0, _to(2), 0.0, history)
        assert not algorithm.should_forward(0, 1, _to(2), 0.0, history)

    def test_does_not_forward_to_unreachable_peer(self):
        trace = ContactTrace(
            [Contact(0.0, 10.0, 0, 1), Contact(20.0, 30.0, 0, 2)],
            nodes=range(4), duration=100.0,
        )
        algorithm = DynamicProgrammingForwarding()
        algorithm.prepare(trace)
        history = _history([])
        # Node 3 never meets anyone: its expected delay to any destination is
        # infinite, so it never looks like a better relay.
        assert not algorithm.should_forward(0, 3, _to(2), 0.0, history)

    def test_table_property_exposed(self, star_trace):
        algorithm = DynamicProgrammingForwarding()
        algorithm.prepare(star_trace)
        assert algorithm.table.distance(1, 2) > 0.0
