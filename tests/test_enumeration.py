"""Unit tests for k-shortest valid path enumeration (repro.core.enumeration)."""

from __future__ import annotations

import pickle

import pytest
from oracles.path_oracle import epidemic_infection_times, first_delivery_time

from repro.contacts import Contact, ContactTrace
from repro.core import (
    Delivery,
    Path,
    PathEnumerator,
    SpaceTimeGraph,
    enumerate_paths,
    is_valid_path,
)


@pytest.fixture
def chain_trace() -> ContactTrace:
    """0-1 at [0,10), 1-2 at [30,40), 2-3 at [60,70)."""
    return ContactTrace(
        [Contact(0.0, 10.0, 0, 1),
         Contact(30.0, 40.0, 1, 2),
         Contact(60.0, 70.0, 2, 3)],
        nodes=range(4), duration=100.0,
    )


@pytest.fixture
def diamond_trace() -> ContactTrace:
    """Two disjoint relays from 0 to 3, arriving at different times.

    0-1 at [0,10), 0-2 at [0,10); 1-3 at [30,40); 2-3 at [60,70).
    """
    return ContactTrace(
        [Contact(0.0, 10.0, 0, 1),
         Contact(0.0, 10.0, 0, 2),
         Contact(30.0, 40.0, 1, 3),
         Contact(60.0, 70.0, 2, 3)],
        nodes=range(4), duration=100.0,
    )


class TestBasicEnumeration:
    def test_single_chain_path(self, chain_trace):
        result = enumerate_paths(chain_trace, 0, 3, 0.0, k=10)
        assert result.delivered
        assert result.num_deliveries == 1
        path = result.deliveries[0].path
        assert path.nodes == (0, 1, 2, 3)
        assert result.deliveries[0].time == pytest.approx(70.0)
        assert result.optimal_duration == pytest.approx(70.0)

    def test_no_path_when_created_too_late(self, chain_trace):
        result = enumerate_paths(chain_trace, 0, 3, 50.0, k=10)
        assert not result.delivered
        assert result.optimal_duration is None

    def test_direct_contact_delivery(self, chain_trace):
        result = enumerate_paths(chain_trace, 0, 1, 0.0, k=10)
        assert result.delivered
        assert result.deliveries[0].time == pytest.approx(10.0)
        assert result.deliveries[0].path.nodes == (0, 1)

    def test_diamond_yields_two_paths_in_time_order(self, diamond_trace):
        result = enumerate_paths(diamond_trace, 0, 3, 0.0, k=10)
        assert result.num_deliveries == 2
        first, second = result.deliveries
        assert first.time == pytest.approx(40.0)
        assert first.path.nodes == (0, 1, 3)
        assert second.time == pytest.approx(70.0)
        assert second.path.nodes == (0, 2, 3)

    def test_unreachable_destination(self):
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(3), duration=50.0)
        result = enumerate_paths(trace, 0, 2, 0.0, k=5)
        assert not result.delivered

    def test_message_created_mid_window(self, diamond_trace):
        # Created after the 0-1/0-2 contacts have passed: no route remains
        # except none (0 never meets 3).
        result = enumerate_paths(diamond_trace, 0, 3, 15.0, k=10)
        assert not result.delivered

    def test_creation_time_during_active_contact(self):
        # Message created while the source is already in contact with the
        # destination: delivered within that step.
        trace = ContactTrace([Contact(0.0, 50.0, 0, 1)], nodes=range(2), duration=60.0)
        result = enumerate_paths(trace, 0, 1, 25.0, k=5)
        assert result.delivered
        assert result.deliveries[0].time == pytest.approx(30.0)

    def test_accepts_prebuilt_graph(self, chain_trace):
        graph = SpaceTimeGraph(chain_trace, delta=10.0)
        result = enumerate_paths(graph, 0, 3, 0.0, k=10)
        assert result.delivered

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            enumerate_paths([1, 2, 3], 0, 1, 0.0)


class TestValidation:
    def test_rejects_unknown_source(self, chain_trace):
        with pytest.raises(ValueError):
            enumerate_paths(chain_trace, 99, 3, 0.0)

    def test_rejects_unknown_destination(self, chain_trace):
        with pytest.raises(ValueError):
            enumerate_paths(chain_trace, 0, 99, 0.0)

    def test_rejects_equal_endpoints(self, chain_trace):
        with pytest.raises(ValueError):
            enumerate_paths(chain_trace, 1, 1, 0.0)

    def test_rejects_creation_time_outside_window(self, chain_trace):
        with pytest.raises(ValueError):
            enumerate_paths(chain_trace, 0, 3, 1e6)

    def test_rejects_non_positive_k(self, chain_trace):
        graph = SpaceTimeGraph(chain_trace)
        with pytest.raises(ValueError):
            PathEnumerator(graph, k=0)


class TestValidityOfEnumeratedPaths:
    def test_all_paths_valid_on_synthetic_trace(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=50)
        nodes = sorted(small_conference_trace.nodes)
        result = enumerator.enumerate(nodes[0], nodes[-1], 0.0,
                                      max_total_deliveries=50)
        assert result.delivered
        for delivery in result.deliveries:
            assert is_valid_path(delivery.path, graph, nodes[-1])

    def test_paths_start_at_source_and_end_at_destination(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=30)
        nodes = sorted(small_conference_trace.nodes)
        source, destination = nodes[1], nodes[-2]
        result = enumerator.enumerate(source, destination, 100.0,
                                      max_total_deliveries=30)
        for delivery in result.deliveries:
            assert delivery.path.source == source
            assert delivery.path.last_node == destination

    def test_deliveries_sorted_by_time(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=40)
        nodes = sorted(small_conference_trace.nodes)
        result = enumerator.enumerate(nodes[2], nodes[-1], 0.0,
                                      max_total_deliveries=40)
        times = result.arrival_times()
        assert times == sorted(times)

    def test_paths_are_distinct(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=40)
        nodes = sorted(small_conference_trace.nodes)
        result = enumerator.enumerate(nodes[0], nodes[5], 0.0,
                                      max_total_deliveries=40)
        signatures = [(d.path.nodes, d.path.times) for d in result.deliveries]
        assert len(signatures) == len(set(signatures))


class TestStopRules:
    def test_max_total_deliveries_cap(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=200)
        nodes = sorted(small_conference_trace.nodes)
        result = enumerator.enumerate(nodes[0], nodes[1], 0.0,
                                      max_total_deliveries=20)
        assert result.num_deliveries >= 20 or not result.stopped_early

    def test_paper_stop_rule_small_k(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=5)
        nodes = sorted(small_conference_trace.nodes)
        result = enumerator.enumerate(nodes[0], nodes[1], 0.0)
        # With a tiny k the per-step stop rule fires long before the window
        # ends on a dense trace.
        assert result.steps_processed <= graph.num_steps

    def test_max_steps_horizon(self, chain_trace):
        graph = SpaceTimeGraph(chain_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=10)
        result = enumerator.enumerate(0, 3, 0.0, max_steps=3)
        assert result.steps_processed == 3
        assert not result.delivered


class TestResultHelpers:
    def test_time_of_nth_path(self, diamond_trace):
        result = enumerate_paths(diamond_trace, 0, 3, 0.0, k=10)
        assert result.time_of_nth_path(1) == pytest.approx(40.0)
        assert result.time_of_nth_path(2) == pytest.approx(70.0)
        assert result.time_of_nth_path(3) is None
        with pytest.raises(ValueError):
            result.time_of_nth_path(0)

    def test_arrival_durations_relative_to_creation(self, diamond_trace):
        result = enumerate_paths(diamond_trace, 0, 3, 5.0, k=10)
        assert result.arrival_durations()[0] == pytest.approx(35.0)

    def test_paths_helper(self, diamond_trace):
        result = enumerate_paths(diamond_trace, 0, 3, 0.0, k=10)
        assert len(result.paths()) == result.num_deliveries


class TestDeliveryValue:
    """A fast-engine delivery builds its path on first read, and otherwise
    behaves as the frozen ``Delivery(path, time, step)`` value."""

    def _both(self, trace):
        graph = SpaceTimeGraph(trace, delta=10.0)
        return [PathEnumerator(graph, k=10, engine=engine)
                .enumerate(0, 3, 0.0).deliveries
                for engine in ("fast", "reference")]

    def test_equal_hash_and_repr_across_engines(self, diamond_trace):
        fast, reference = self._both(diamond_trace)
        assert fast == reference
        assert [hash(d) for d in fast] == [hash(d) for d in reference]
        assert [repr(d) for d in fast] == [repr(d) for d in reference]

    def test_reads_before_the_path_is_built(self, diamond_trace):
        fast, _ = self._both(diamond_trace)
        assert [(d.time, d.step, d.hop_count) for d in fast] == [
            (40.0, 3, 2), (70.0, 6, 2)]
        assert [d.path.nodes for d in fast] == [(0, 1, 3), (0, 2, 3)]
        assert fast[0].path is fast[0].path
        assert fast[0].duration == pytest.approx(40.0)

    def test_constructed_value(self):
        path = Path(hops=((0, 0.0), (1, 10.0)))
        delivery = Delivery(path=path, time=10.0, step=0)
        assert (delivery.path, delivery.time, delivery.step,
                delivery.hop_count) == (path, 10.0, 0, 1)
        assert delivery == Delivery(path, 10.0, 0)
        assert delivery != Delivery(path, 10.0, 1)
        assert repr(delivery) == f"Delivery(path={path!r}, time=10.0, step=0)"
        with pytest.raises(AttributeError):
            delivery.time = 5.0

    def test_pickles_before_and_after_the_path_is_built(self, diamond_trace):
        fast, _ = self._both(diamond_trace)
        unbuilt = pickle.loads(pickle.dumps(fast))
        assert [d.hop_count for d in unbuilt] == [2, 2]
        assert unbuilt == fast
        assert pickle.loads(pickle.dumps(fast)) == fast


class TestEpidemicClosure:
    def test_infection_times_chain(self, chain_trace):
        graph = SpaceTimeGraph(chain_trace, delta=10.0)
        times = epidemic_infection_times(graph, 0, 0.0)
        assert times[0] == 0.0
        assert times[1] == pytest.approx(10.0)
        assert times[2] == pytest.approx(40.0)
        assert times[3] == pytest.approx(70.0)

    def test_unreached_nodes_absent(self):
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(3), duration=50.0)
        graph = SpaceTimeGraph(trace, delta=10.0)
        times = epidemic_infection_times(graph, 0, 0.0)
        assert 2 not in times

    def test_first_delivery_time_matches_enumeration(self, small_conference_trace):
        graph = SpaceTimeGraph(small_conference_trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=20)
        nodes = sorted(small_conference_trace.nodes)
        for source, destination, t1 in [(nodes[0], nodes[-1], 0.0),
                                        (nodes[3], nodes[7], 300.0),
                                        (nodes[-1], nodes[0], 900.0)]:
            fast = first_delivery_time(graph, source, destination, t1)
            full = enumerator.enumerate(source, destination, t1,
                                        max_total_deliveries=1)
            if fast is None:
                assert not full.delivered
            else:
                assert full.delivered
                assert full.deliveries[0].time == pytest.approx(fast)

    def test_first_delivery_rejects_unknown_destination(self, chain_trace):
        graph = SpaceTimeGraph(chain_trace, delta=10.0)
        with pytest.raises(ValueError):
            first_delivery_time(graph, 0, 99, 0.0)

    def test_epidemic_rejects_unknown_source(self, chain_trace):
        graph = SpaceTimeGraph(chain_trace, delta=10.0)
        with pytest.raises(ValueError):
            epidemic_infection_times(graph, 99, 0.0)

    def test_within_step_relay(self, dense_burst_trace):
        graph = SpaceTimeGraph(dense_burst_trace, delta=10.0)
        times = epidemic_infection_times(graph, 0, 0.0)
        # All nodes reached in the single burst step.
        burst_time = times[1]
        assert times[2] == burst_time and times[3] == burst_time


class TestFirstPreferenceInEnumeration:
    def test_no_delivery_after_holder_met_destination(self):
        """Once node 1 meets the destination, its copy must not generate a
        later delivery through node 2."""
        trace = ContactTrace(
            [Contact(0.0, 10.0, 0, 1),     # source hands to 1
             Contact(30.0, 40.0, 1, 3),    # 1 meets destination: delivers here
             Contact(50.0, 60.0, 1, 2),    # 1 meets 2 afterwards
             Contact(70.0, 80.0, 2, 3)],   # 2 meets destination later
            nodes=range(4), duration=100.0,
        )
        result = enumerate_paths(trace, 0, 3, 0.0, k=50)
        assert result.num_deliveries == 1
        assert result.deliveries[0].path.nodes == (0, 1, 3)

    def test_source_delivery_stops_source_copies(self):
        """After the source itself meets the destination, later relays of the
        source's copy would violate first preference and are not counted."""
        trace = ContactTrace(
            [Contact(10.0, 20.0, 0, 3),    # source meets destination
             Contact(30.0, 40.0, 0, 1),
             Contact(50.0, 60.0, 1, 3)],
            nodes=range(4), duration=100.0,
        )
        result = enumerate_paths(trace, 0, 3, 0.0, k=50)
        assert result.num_deliveries == 1
        assert result.deliveries[0].path.nodes == (0, 3)

    def test_descendant_copies_are_purged_when_holder_meets_destination(self):
        """A copy that passed through node 1 cannot deliver after node 1 has
        met the destination: the paper's first-preference rule says node 1
        would already have delivered, so the longer path is not counted."""
        trace = ContactTrace(
            [Contact(0.0, 10.0, 0, 1),     # source hands to 1
             Contact(20.0, 30.0, 1, 2),    # 1 hands to 2 (before meeting dest)
             Contact(40.0, 50.0, 1, 3),    # 1 delivers: paths through 1 die
             Contact(60.0, 70.0, 2, 3)],   # 2 meets dest later: not counted
            nodes=range(4), duration=100.0,
        )
        result = enumerate_paths(trace, 0, 3, 0.0, k=50)
        assert result.num_deliveries == 1
        assert result.deliveries[0].path.nodes == (0, 1, 3)

    def test_disjoint_relays_both_deliver(self):
        """Copies travelling over node-disjoint relays are independent valid
        paths and are both counted."""
        trace = ContactTrace(
            [Contact(0.0, 10.0, 0, 1),
             Contact(0.0, 10.0, 0, 2),
             Contact(40.0, 50.0, 1, 3),
             Contact(60.0, 70.0, 2, 3)],
            nodes=range(4), duration=100.0,
        )
        result = enumerate_paths(trace, 0, 3, 0.0, k=50)
        assert result.num_deliveries == 2
        node_sequences = {d.path.nodes for d in result.deliveries}
        assert node_sequences == {(0, 1, 3), (0, 2, 3)}
