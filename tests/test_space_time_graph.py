"""Unit tests for the space-time graph (repro.core.space_time_graph)."""

from __future__ import annotations

from typing import Optional

import networkx as nx
import pytest

from repro.analysis.figures import figure2_space_time_graph_example
from repro.contacts import Contact, ContactTrace
from repro.core import DEFAULT_DELTA, SpaceTimeGraph


def to_networkx(graph: SpaceTimeGraph, start_step: int = 0,
                end_step: Optional[int] = None) -> nx.DiGraph:
    """Materialise the explicit space-time digraph (a test-only oracle).

    Vertices are ``(node, T)`` pairs where ``T`` is the paper's vertex time
    for the step.  Contact edges (both directions) carry ``weight=0``;
    waiting edges carry ``weight=1``.
    """
    end = graph.num_steps if end_step is None else min(end_step, graph.num_steps)
    if not 0 <= start_step < end:
        raise ValueError(f"invalid step range [{start_step}, {end})")
    exported = nx.DiGraph()
    nodes = sorted(graph.nodes)
    for step in range(start_step, end):
        t = graph.time_of_step(step)
        for node in nodes:
            exported.add_node((node, t))
        for a, peers in graph.adjacency(step).items():
            for b in peers:
                exported.add_edge((a, t), (b, t), weight=0)
        if step + 1 < end:
            t_next = graph.time_of_step(step + 1)
            for node in nodes:
                exported.add_edge((node, t), (node, t_next), weight=1)
    return exported



@pytest.fixture
def graph(tiny_trace) -> SpaceTimeGraph:
    return SpaceTimeGraph(tiny_trace, delta=10.0)


class TestConstruction:
    def test_default_delta_matches_paper(self):
        assert DEFAULT_DELTA == 10.0

    def test_num_steps_covers_duration(self, tiny_trace):
        graph = SpaceTimeGraph(tiny_trace, delta=10.0)
        assert graph.num_steps == 20  # 200 s / 10 s

    def test_partial_final_step(self):
        trace = ContactTrace([Contact(0.0, 5.0, 0, 1)], duration=25.0)
        graph = SpaceTimeGraph(trace, delta=10.0)
        assert graph.num_steps == 3

    def test_rejects_non_positive_delta(self, tiny_trace):
        with pytest.raises(ValueError):
            SpaceTimeGraph(tiny_trace, delta=0.0)

    def test_nodes_match_trace(self, graph, tiny_trace):
        assert graph.nodes == tiny_trace.nodes


class TestStepMapping:
    def test_step_of_time(self, graph):
        assert graph.step_of_time(0.0) == 0
        assert graph.step_of_time(9.99) == 0
        assert graph.step_of_time(10.0) == 1
        assert graph.step_of_time(199.0) == 19

    def test_step_of_time_clamps_to_last_step(self, graph):
        assert graph.step_of_time(1e9) == graph.num_steps - 1

    def test_step_of_time_rejects_negative(self, graph):
        with pytest.raises(ValueError):
            graph.step_of_time(-1.0)

    def test_time_of_step_is_step_end(self, graph):
        assert graph.time_of_step(0) == 10.0
        assert graph.time_of_step(5) == 60.0

    def test_time_of_step_bounds(self, graph):
        with pytest.raises(IndexError):
            graph.time_of_step(-1)
        with pytest.raises(IndexError):
            graph.time_of_step(graph.num_steps)


class TestAdjacency:
    def test_contact_spans_all_overlapping_steps(self, graph):
        # Contact 0-1 spans [0, 20): steps 0 and 1.
        assert graph.in_contact(0, 1, 0)
        assert graph.in_contact(0, 1, 1)
        assert not graph.in_contact(0, 1, 2)

    def test_contact_end_boundary_excluded(self):
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], duration=30.0)
        graph = SpaceTimeGraph(trace, delta=10.0)
        assert graph.in_contact(0, 1, 0)
        assert not graph.in_contact(0, 1, 1)

    def test_zero_duration_contact_in_single_step(self):
        trace = ContactTrace([Contact(15.0, 15.0, 0, 1)], duration=30.0)
        graph = SpaceTimeGraph(trace, delta=10.0)
        assert graph.in_contact(0, 1, 1)
        assert not graph.in_contact(0, 1, 0)

    def test_neighbors_symmetric(self, graph):
        assert 1 in graph.neighbors(0, 0)
        assert 0 in graph.neighbors(1, 0)

    def test_neighbors_empty_when_idle(self, graph):
        assert graph.neighbors(4, 0) == frozenset()

    def test_degree(self, dense_burst_trace):
        graph = SpaceTimeGraph(dense_burst_trace, delta=10.0)
        step = graph.step_of_time(105.0)
        assert graph.degree(0, step) == 3

    def test_active_nodes(self, graph):
        assert graph.active_nodes(0) == frozenset({0, 1})
        assert graph.active_nodes(3) == frozenset({1, 2})

    def test_adjacency_bounds_check(self, graph):
        with pytest.raises(IndexError):
            graph.adjacency(999)


class TestReachability:
    def test_reachable_within_step_component(self, dense_burst_trace):
        graph = SpaceTimeGraph(dense_burst_trace, delta=10.0)
        step = graph.step_of_time(105.0)
        assert graph.reachable_within_step(0, step) == frozenset({1, 2, 3})

    def test_reachable_within_step_isolated_node(self, graph):
        assert graph.reachable_within_step(4, 0) == frozenset()

    def test_reachable_chains_through_intermediate(self):
        # 0-1 and 1-2 in the same step: 2 is reachable from 0 via 1.
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1), Contact(0.0, 10.0, 1, 2)],
                             duration=20.0)
        graph = SpaceTimeGraph(trace, delta=10.0)
        assert graph.reachable_within_step(0, 0) == frozenset({1, 2})

    def test_components(self, dense_burst_trace):
        graph = SpaceTimeGraph(dense_burst_trace, delta=10.0)
        step = graph.step_of_time(105.0)
        components = graph.components(step)
        assert len(components) == 1
        assert components[0] == frozenset({0, 1, 2, 3})

    def test_components_empty_step(self, graph):
        assert graph.components(2) == []

    def test_first_contact_step(self, graph):
        assert graph.first_contact_step(0, 1) == 0
        assert graph.first_contact_step(2, 3) == 6
        assert graph.first_contact_step(0, 1, start_step=3) is None

    def test_contact_steps(self, graph):
        assert graph.contact_steps(4) == [9, 10, 12, 13]

    def test_total_contact_edges(self, graph):
        # Each 20 s contact spans two 10 s steps: 5 contacts -> 10 step-edges.
        assert graph.total_contact_edges() == 10


class TestNetworkxExport:
    def test_vertex_count(self, graph, tiny_trace):
        exported = to_networkx(graph, 0, 3)
        assert exported.number_of_nodes() == tiny_trace.num_nodes * 3

    def test_contact_edges_have_zero_weight(self, graph):
        exported = to_networkx(graph, 0, 2)
        weight = exported[(0, 10.0)][(1, 10.0)]["weight"]
        assert weight == 0

    def test_waiting_edges_have_unit_weight(self, graph):
        exported = to_networkx(graph, 0, 2)
        weight = exported[(0, 10.0)][(0, 20.0)]["weight"]
        assert weight == 1

    def test_contact_edges_bidirectional(self, graph):
        exported = to_networkx(graph, 0, 1)
        assert exported.has_edge((0, 10.0), (1, 10.0))
        assert exported.has_edge((1, 10.0), (0, 10.0))

    def test_paper_example_structure(self):
        """The Figure 2 example: 1-2 in contact at step 0, all pairs at step 1."""
        trace = ContactTrace(
            [Contact(0.0, 10.0, 1, 2),
             Contact(10.0, 20.0, 1, 2),
             Contact(10.0, 20.0, 2, 3),
             Contact(10.0, 20.0, 1, 3)],
            nodes=[1, 2, 3], duration=20.0,
        )
        graph = to_networkx(SpaceTimeGraph(trace, delta=10.0))
        zero_weight = [(u, v) for u, v, w in graph.edges(data="weight") if w == 0]
        # step 0: 1<->2 (2 directed edges); step 1: three pairs (6 directed edges)
        assert len(zero_weight) == 8
        unit_weight = [(u, v) for u, v, w in graph.edges(data="weight") if w == 1]
        assert len(unit_weight) == 3  # one waiting edge per node

    def test_invalid_step_range(self, graph):
        with pytest.raises(ValueError):
            to_networkx(graph, 5, 5)

    def test_shortest_path_in_exported_graph_matches_hops(self):
        """Dijkstra over the exported graph counts waiting steps as weight."""
        trace = ContactTrace(
            [Contact(0.0, 10.0, 0, 1), Contact(20.0, 30.0, 1, 2)],
            nodes=[0, 1, 2], duration=30.0,
        )
        stg = SpaceTimeGraph(trace, delta=10.0)
        exported = to_networkx(stg)
        length = nx.dijkstra_path_length(exported, (0, 10.0), (2, 30.0), weight="weight")
        # Two waiting steps (10->20->30) for node 1 before handing to 2... the
        # shortest route is contact to 1 at T=10 (0), wait to T=30 (2), contact
        # to 2 at T=30 (0) => total weight 2.
        assert length == 2


class TestFigure2Example:
    def test_matches_networkx_export(self):
        """Same four-contact trace as the figure builder."""
        trace = ContactTrace(
            [Contact(0.0, 10.0, 1, 2),
             Contact(10.0, 20.0, 1, 2),
             Contact(10.0, 20.0, 2, 3),
             Contact(10.0, 20.0, 1, 3)],
            nodes=[1, 2, 3], duration=20.0,
        )
        exported = to_networkx(SpaceTimeGraph(trace, delta=10.0))
        weighted = list(exported.edges(data="weight"))
        assert figure2_space_time_graph_example() == {
            "vertices": sorted(exported.nodes()),
            "contact_edges": sorted((u, v) for u, v, w in weighted if w == 0),
            "waiting_edges": sorted((u, v) for u, v, w in weighted if w == 1),
        }

    def test_pinned_literal(self):
        assert figure2_space_time_graph_example() == {
            "vertices": [(1, 10.0), (1, 20.0), (2, 10.0), (2, 20.0),
                         (3, 10.0), (3, 20.0)],
            "contact_edges": [
                ((1, 10.0), (2, 10.0)), ((1, 20.0), (2, 20.0)),
                ((1, 20.0), (3, 20.0)), ((2, 10.0), (1, 10.0)),
                ((2, 20.0), (1, 20.0)), ((2, 20.0), (3, 20.0)),
                ((3, 20.0), (1, 20.0)), ((3, 20.0), (2, 20.0)),
            ],
            "waiting_edges": [
                ((1, 10.0), (1, 20.0)), ((2, 10.0), (2, 20.0)),
                ((3, 10.0), (3, 20.0)),
            ],
        }
