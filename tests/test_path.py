"""Unit tests for paths and validity predicates (repro.core.path)."""

from __future__ import annotations

import pytest

from repro.contacts import Contact, ContactTrace
from repro.core import (
    Path,
    PathEnumerator,
    SpaceTimeGraph,
    is_loop_free,
    is_time_feasible,
    is_valid_path,
    respects_first_preference,
    respects_minimal_progress,
)


@pytest.fixture
def chain_graph() -> SpaceTimeGraph:
    """0-1 at step 0, 1-2 at step 3, 2-3 at step 6, plus 1-3 at step 4."""
    trace = ContactTrace(
        [Contact(0.0, 10.0, 0, 1),
         Contact(30.0, 40.0, 1, 2),
         Contact(40.0, 50.0, 1, 3),
         Contact(60.0, 70.0, 2, 3)],
        nodes=range(4), duration=80.0,
    )
    return SpaceTimeGraph(trace, delta=10.0)


class TestPathBasics:
    def test_single(self):
        path = Path.single(3, 12.0)
        assert path.source == 3
        assert path.last_node == 3
        assert path.hop_count == 0
        assert path.duration == 0.0

    def test_extended_is_new_object(self):
        base = Path.single(0, 0.0)
        longer = base.extended(1, 10.0)
        assert base.hop_count == 0
        assert longer.hop_count == 1
        assert longer.nodes == (0, 1)

    def test_properties(self):
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 30.0)))
        assert path.nodes == (0, 1, 2)
        assert path.times == (0.0, 10.0, 30.0)
        assert path.start_time == 0.0
        assert path.end_time == 30.0
        assert path.duration == 30.0
        assert path.hop_count == 2
        assert len(path) == 3

    def test_intermediate_nodes(self):
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 20.0), (3, 30.0)))
        assert path.intermediate_nodes() == (1, 2)
        assert Path.single(0, 0.0).intermediate_nodes() == ()

    def test_delivers_to_and_visits(self):
        path = Path(hops=((0, 0.0), (5, 10.0)))
        assert path.delivers_to(5)
        assert not path.delivers_to(0)
        assert path.visits(0) and path.visits(5) and not path.visits(7)

    def test_node_set(self):
        assert Path(hops=((0, 0.0), (2, 5.0))).node_set() == frozenset({0, 2})

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            Path(hops=())

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Path(hops=((0, 10.0), (1, 5.0)))

    def test_iteration_yields_hops(self):
        path = Path(hops=((0, 0.0), (1, 10.0)))
        assert list(path) == [(0, 0.0), (1, 10.0)]


class TestLoopFree:
    def test_simple_path_is_loop_free(self):
        assert is_loop_free(Path(hops=((0, 0.0), (1, 1.0), (2, 2.0))))

    def test_repeated_node_is_loop(self):
        assert not is_loop_free(Path(hops=((0, 0.0), (1, 1.0), (0, 2.0))))


class TestMinimalProgress:
    def test_destination_only_at_end(self):
        path = Path(hops=((0, 0.0), (1, 1.0), (9, 2.0)))
        assert respects_minimal_progress(path, 9)

    def test_destination_absent_is_fine(self):
        path = Path(hops=((0, 0.0), (1, 1.0)))
        assert respects_minimal_progress(path, 9)

    def test_destination_in_middle_violates(self):
        path = Path(hops=((0, 0.0), (9, 1.0), (2, 2.0)))
        assert not respects_minimal_progress(path, 9)


class TestTimeFeasibility:
    def test_feasible_chain(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 40.0), (3, 70.0)))
        assert is_time_feasible(path, chain_graph)

    def test_infeasible_when_no_contact(self, chain_graph):
        # 0 and 2 never meet.
        path = Path(hops=((0, 0.0), (2, 40.0)))
        assert not is_time_feasible(path, chain_graph)

    def test_infeasible_when_contact_at_other_time(self, chain_graph):
        # 1-2 meet during step 3 only (T=40), not at T=20.
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 20.0)))
        assert not is_time_feasible(path, chain_graph)

    def test_hop_beyond_trace_window_infeasible(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 500.0)))
        assert not is_time_feasible(path, chain_graph)

    def test_trivial_path_always_feasible(self, chain_graph):
        assert is_time_feasible(Path.single(0, 3.0), chain_graph)


class TestFirstPreference:
    def test_direct_delivery_respects(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 10.0), (3, 50.0)))
        assert respects_first_preference(path, chain_graph, 3)

    def test_violation_when_holder_met_destination_earlier(self, chain_graph):
        # Node 1 receives at T=10 and meets 3 during step 4 (T=50); a path
        # that routes 1 -> 2 -> 3 delivering at T=70 is not first preference.
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 40.0), (3, 70.0)))
        assert not respects_first_preference(path, chain_graph, 3)

    def test_non_delivering_path_is_unconstrained(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 40.0)))
        assert respects_first_preference(path, chain_graph, 3)

    def test_contact_before_message_creation_does_not_count(self):
        # Source meets destination before the message exists; delivering via a
        # relay later must still be first preference.
        trace = ContactTrace(
            [Contact(0.0, 10.0, 0, 2),      # before creation
             Contact(30.0, 40.0, 0, 1),
             Contact(60.0, 70.0, 1, 2)],
            nodes=range(3), duration=80.0,
        )
        graph = SpaceTimeGraph(trace, delta=10.0)
        path = Path(hops=((0, 25.0), (1, 40.0), (2, 70.0)))
        assert respects_first_preference(path, graph, 2)

    def test_creation_at_a_multiple_of_delta_starts_that_step(self):
        # Created at 150 s (a multiple of Δ = 10) during a contact with the
        # destination: the creation lies in step 15, so the holder's step-14
        # contact predates the message and the direct hand-off is valid.
        trace = ContactTrace([Contact(145.0, 165.0, 3, 4)], nodes=range(10),
                             duration=215.0)
        graph = SpaceTimeGraph(trace, delta=10.0)
        path = Path(hops=((4, 150.0), (3, 160.0)))
        assert respects_first_preference(path, graph, 3)
        assert is_valid_path(path, graph, 3)
        for engine in ("fast", "reference"):
            result = PathEnumerator(graph, k=30, engine=engine).enumerate(
                4, 3, 150.0, max_total_deliveries=30)
            assert [d.path for d in result.deliveries] == [path]


class TestCombinedValidity:
    def test_valid_path(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 10.0), (3, 50.0)))
        assert is_valid_path(path, chain_graph, 3)

    def test_invalid_due_to_loop(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 10.0), (0, 10.0)))
        assert not is_valid_path(path, chain_graph, 3)

    def test_invalid_due_to_first_preference(self, chain_graph):
        path = Path(hops=((0, 0.0), (1, 10.0), (2, 40.0), (3, 70.0)))
        assert not is_valid_path(path, chain_graph, 3)

    def test_invalid_due_to_infeasible_hop(self, chain_graph):
        path = Path(hops=((0, 0.0), (3, 10.0)))
        assert not is_valid_path(path, chain_graph, 3)
