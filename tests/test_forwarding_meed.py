"""Unit tests for the MEED expected-delay metric (repro.forwarding.meed)."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import MeedTable, pairwise_expected_delays


class TestPairwiseExpectedDelays:
    def test_single_periodic_pair(self):
        # One instantaneous contact halfway through a 100 s window: the two
        # wrap-around gaps are 50+50=100?  Actually a single contact leaves a
        # single wrap gap of length ~100, so the expected wait is ~50.
        trace = ContactTrace([Contact(50.0, 50.0, 0, 1)], duration=100.0)
        delays = pairwise_expected_delays(trace)
        assert delays[(0, 1)] == pytest.approx(100.0 ** 2 / (2 * 100.0))

    def test_frequent_pair_has_lower_delay(self):
        sparse = ContactTrace([Contact(500.0, 500.0, 0, 1)], duration=1000.0)
        dense = ContactTrace(
            [Contact(float(t), float(t), 0, 1) for t in range(0, 1000, 100)],
            duration=1000.0,
        )
        assert (pairwise_expected_delays(dense)[(0, 1)]
                < pairwise_expected_delays(sparse)[(0, 1)])

    def test_always_in_contact_pair_has_zero_delay(self):
        trace = ContactTrace([Contact(0.0, 1000.0, 0, 1)], duration=1000.0)
        assert pairwise_expected_delays(trace)[(0, 1)] == pytest.approx(0.0)

    def test_overlapping_contacts_merged(self):
        trace = ContactTrace(
            [Contact(0.0, 600.0, 0, 1), Contact(500.0, 1000.0, 0, 1)],
            duration=1000.0,
        )
        assert pairwise_expected_delays(trace)[(0, 1)] == pytest.approx(0.0)

    def test_pairs_that_never_meet_absent(self, tiny_trace):
        delays = pairwise_expected_delays(tiny_trace)
        assert (0, 3) not in delays

    def test_empty_trace(self):
        assert pairwise_expected_delays(ContactTrace([], duration=10.0)) == {}


class TestMeedTable:
    def test_direct_distance_matches_pairwise_delay(self, tiny_trace):
        table = MeedTable.from_trace(tiny_trace)
        delays = pairwise_expected_delays(tiny_trace)
        assert table.distance(0, 1) <= delays[(0, 1)] + 1e-9

    def test_distance_to_self_is_zero(self, tiny_trace):
        table = MeedTable.from_trace(tiny_trace)
        assert table.distance(2, 2) == 0.0

    def test_multi_hop_distance_uses_relays(self, tiny_trace):
        table = MeedTable.from_trace(tiny_trace)
        # 0 and 2 never meet directly but both meet 1.
        assert math.isfinite(table.distance(0, 2))
        assert table.distance(0, 2) <= table.distance(0, 1) + table.distance(1, 2) + 1e-9

    def test_disconnected_nodes_are_unreachable(self):
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(3), duration=100.0)
        table = MeedTable.from_trace(trace)
        assert not table.reachable(0, 2)
        assert table.distance(0, 2) == math.inf

    def test_triangle_inequality_through_best_relay(self, star_trace):
        table = MeedTable.from_trace(star_trace)
        # All spoke-to-spoke traffic must route through the hub.
        assert table.distance(1, 2) == pytest.approx(
            table.distance(1, 0) + table.distance(0, 2), rel=1e-9)

    def test_expected_delay_path(self, star_trace):
        table = MeedTable.from_trace(star_trace)
        path = table.expected_delay_path(star_trace, 1, 2)
        assert path == [1, 0, 2]

    def test_expected_delay_path_none_when_disconnected(self):
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(3), duration=100.0)
        table = MeedTable.from_trace(trace)
        assert table.expected_delay_path(trace, 0, 2) is None

    def test_symmetry(self, small_conference_trace):
        table = MeedTable.from_trace(small_conference_trace)
        nodes = sorted(small_conference_trace.nodes)
        for a, b in [(nodes[0], nodes[3]), (nodes[1], nodes[-1])]:
            assert table.distance(a, b) == pytest.approx(table.distance(b, a))


# ----------------------------------------------------------------------
# Differential check against networkx, used here as a test-only oracle
# ----------------------------------------------------------------------
def _oracle_graph(trace: ContactTrace) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(trace.nodes)
    for (a, b), delay in pairwise_expected_delays(trace).items():
        graph.add_edge(a, b, weight=delay)
    return graph


# Start times mix a coarse grid (so same-pair contacts overlap and
# equal-cost routes tie) with arbitrary floats; lengths include zero
# (instantaneous contacts).
_starts = st.one_of(st.integers(0, 20).map(lambda k: 25.0 * k),
                    st.floats(0.0, 500.0, allow_nan=False))
_lengths = st.one_of(st.just(0.0), st.integers(1, 4).map(lambda k: 25.0 * k),
                     st.floats(0.0, 100.0, allow_nan=False))


@st.composite
def meed_traces(draw):
    """Traces of up to 10 nodes split into two groups that never meet
    (disconnected components), plus nodes without contacts (isolated);
    the contact list may be empty."""
    num_nodes = draw(st.integers(1, 10))
    split = draw(st.integers(1, num_nodes))
    groups = [g for g in (range(split), range(split, num_nodes)) if len(g) >= 2]
    contacts = []
    if groups:
        for _ in range(draw(st.integers(0, 30))):
            group = draw(st.sampled_from(groups))
            a, b = draw(st.lists(st.sampled_from(group), min_size=2, max_size=2,
                                 unique=True))
            start = draw(_starts)
            contacts.append(Contact(start, start + draw(_lengths), a, b))
    max_end = max((c.end for c in contacts), default=0.0)
    slack = draw(st.one_of(st.just(0.0), st.floats(0.0, 200.0, allow_nan=False)))
    return ContactTrace(contacts, nodes=range(num_nodes), duration=max_end + slack)


def _assert_matches_oracle(trace: ContactTrace) -> None:
    table = MeedTable.from_trace(trace)
    graph = _oracle_graph(trace)
    expected = {source: dict(lengths) for source, lengths
                in nx.all_pairs_dijkstra_path_length(graph, weight="weight")}
    assert table.distances == expected
    for source in trace.nodes:
        for destination in trace.nodes:
            path = table.expected_delay_path(trace, source, destination)
            try:
                length = nx.dijkstra_path_length(graph, source, destination,
                                                 weight="weight")
            except nx.NetworkXNoPath:
                assert path is None
                continue
            # Equal-cost ties may pick a different walk; its delay may not differ.
            assert path is not None
            assert path[0] == source and path[-1] == destination
            assert len(set(path)) == len(path)
            assert sum(graph[u][v]["weight"] for u, v in zip(path, path[1:])) == length


class TestMeedMatchesNetworkx:
    @given(trace=meed_traces())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_traces(self, trace):
        _assert_matches_oracle(trace)

    def test_empty_trace(self):
        _assert_matches_oracle(ContactTrace([], nodes=range(3), duration=10.0))

    @pytest.mark.parametrize("key", PAPER_DATASET_KEYS)
    def test_paper_stand_ins(self, key):
        _assert_matches_oracle(load_dataset(key, scale=0.15))
