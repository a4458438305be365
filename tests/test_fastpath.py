"""Tests for the fast-core substrate: interner, bitmasks, and step tables."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_properties import trace_strategy

from repro.contacts import Contact, ContactTrace
from repro.core import NodeInterner, SpaceTimeGraph, StepTables


class TestNodeInterner:
    def test_dense_sorted_indices(self):
        interner = NodeInterner([30, 10, 20, 10])
        assert interner.nodes == (10, 20, 30)
        assert [interner.index_of(n) for n in (10, 20, 30)] == [0, 1, 2]
        assert [interner.node_at(i) for i in range(3)] == [10, 20, 30]
        assert len(interner) == 3
        assert 20 in interner
        assert 99 not in interner

    def test_unknown_node_raises(self):
        interner = NodeInterner([1, 2])
        with pytest.raises(KeyError):
            interner.index_of(3)

    def test_bit_of_matches_index(self):
        interner = NodeInterner(range(8))
        for node in range(8):
            assert interner.bit_of(node) == 1 << interner.index_of(node)

    def test_mask_of_empty(self):
        interner = NodeInterner(range(4))
        assert interner.mask_of([]) == 0
        assert interner.nodes_of(0) == frozenset()

    def test_nodes_of_rejects_negative_mask(self):
        interner = NodeInterner(range(4))
        with pytest.raises(ValueError):
            interner.nodes_of(-1)

    @given(st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_mask_round_trip(self, population, data):
        """mask_of and nodes_of are inverse bijections on any subset."""
        interner = NodeInterner(population)
        subset = data.draw(st.sets(st.sampled_from(sorted(population))))
        mask = interner.mask_of(subset)
        assert interner.nodes_of(mask) == frozenset(subset)
        # one bit per member, membership via single AND
        assert bin(mask).count("1") == len(subset)
        for node in population:
            assert bool(mask & interner.bit_of(node)) == (node in subset)

    @given(st.sets(st.integers(min_value=-1000, max_value=1000), min_size=1,
                   max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_index_round_trip(self, population):
        interner = NodeInterner(population)
        assert len(interner) == len(population)
        for node in population:
            assert interner.node_at(interner.index_of(node)) == node
        assert list(interner) == sorted(population)


class TestStepTables:
    @pytest.fixture
    def graph(self) -> SpaceTimeGraph:
        contacts = [
            Contact(0.0, 25.0, 0, 1),   # steps 0-2; stale at steps 1, 2
            Contact(30.0, 40.0, 1, 2),  # step 3
            Contact(40.0, 50.0, 1, 2),  # step 4, back-to-back: stale edge
        ]
        trace = ContactTrace(contacts, nodes=range(4), duration=60.0, name="t")
        return SpaceTimeGraph(trace, delta=10.0)

    def test_tables_cached(self, graph):
        assert graph.step_tables() is graph.step_tables()
        assert graph.interner is graph.step_tables().interner

    def test_neighbor_masks_match_adjacency(self, graph):
        tables = graph.step_tables()
        interner = tables.interner
        for step in range(graph.num_steps):
            adjacency = graph.adjacency(step)
            masks = tables.neighbor_masks[step]
            assert set(masks) == {interner.index_of(n) for n in adjacency}
            for node, peers in adjacency.items():
                mask = masks[interner.index_of(node)]
                assert interner.nodes_of(mask) == frozenset(peers)

    def test_neighbor_lists_preserve_set_order(self, graph):
        tables = graph.step_tables()
        interner = tables.interner
        for step in range(graph.num_steps):
            adjacency = graph.adjacency(step)
            for node, peers in adjacency.items():
                entries = tables.neighbor_lists[step][interner.index_of(node)]
                assert [interner.node_at(i) for i in entries] == list(peers)

    def test_fresh_lists(self, graph):
        tables = graph.step_tables()
        interner = tables.interner
        idx0, idx1 = interner.index_of(0), interner.index_of(1)
        idx2 = interner.index_of(2)
        # step 0: edge 0-1 appears -> fresh at both ends
        assert tables.fresh_lists[0] == {idx0: [idx1], idx1: [idx0]}
        assert tables.fresh_masks[0] == interner.mask_of([0, 1])
        # steps 1-2: the same contact is ongoing -> stale
        assert tables.fresh_lists[1] == {} and tables.fresh_masks[1] == 0
        assert tables.fresh_lists[2] == {} and tables.fresh_masks[2] == 0
        # step 3: edge 1-2 appears -> fresh
        assert tables.fresh_lists[3] == {idx1: [idx2], idx2: [idx1]}
        assert tables.fresh_masks[3] == interner.mask_of([1, 2])
        # step 4: contact 30-40 ends exactly when 40-50 begins, so the edge
        # is continuously active across the step boundary -> stale
        assert idx2 in tables.neighbor_lists[4][idx1]
        assert tables.fresh_lists[4] == {} and tables.fresh_masks[4] == 0

    def test_next_fresh_skip_index(self, graph):
        tables = graph.step_tables()
        interner = tables.interner
        idx2 = interner.index_of(2)
        # node 2 is active at steps 3 and 4, but its edge is fresh at 3 only
        assert tables.first_fresh_step(idx2, 0) == 3
        assert tables.first_fresh_step(idx2, 3) == 3
        assert tables.first_fresh_step(idx2, 4) == graph.num_steps
        assert tables.first_fresh_step(idx2, 99) == graph.num_steps
        idx1 = interner.index_of(1)  # fresh at steps 0 and 3
        assert tables.first_fresh_step(idx1, 0) == 0
        assert tables.first_fresh_step(idx1, 1) == 3
        idx3 = interner.index_of(3)  # never active
        assert tables.first_fresh_step(idx3, 0) == graph.num_steps
        for column in tables.next_fresh:
            assert len(column) == graph.num_steps + 1
            assert column[graph.num_steps] == graph.num_steps

    def test_dest_mask_helper(self, graph):
        tables = graph.step_tables()
        interner = tables.interner
        idx1 = interner.index_of(1)
        assert tables.dest_mask(idx1, 0) == interner.mask_of([0])
        assert tables.dest_mask(idx1, 3) == interner.mask_of([2])
        assert tables.dest_mask(interner.index_of(3), 0) == 0


class TestFreshEdgeIndexBruteForce:
    """The fresh-edge index against a direct scan of the adjacency sets."""

    @given(trace=trace_strategy(max_contacts=25),
           delta=st.sampled_from([5.0, 10.0, 30.0]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fresh_index_matches_adjacency_scan(self, trace, delta):
        graph = SpaceTimeGraph(trace, delta=delta)
        tables = graph.step_tables()
        interner = tables.interner
        num_steps = graph.num_steps
        fresh_steps = {node: [] for node in interner.nodes}
        for step in range(num_steps):
            adjacency = graph.adjacency(step)
            expected_lists = {}
            expected_mask = 0
            for node, peers in adjacency.items():
                # a fresh edge was not active at the previous step
                fresh = [interner.index_of(peer) for peer in peers
                         if not (step > 0 and graph.in_contact(node, peer, step - 1))]
                if fresh:
                    expected_lists[interner.index_of(node)] = fresh
                    expected_mask |= interner.bit_of(node)
                    fresh_steps[node].append(step)
            assert tables.fresh_lists[step] == expected_lists, step
            assert tables.fresh_masks[step] == expected_mask, step
        for node, steps in fresh_steps.items():
            idx = interner.index_of(node)
            for step in range(num_steps + 1):
                expected = next((s for s in steps if s >= step), num_steps)
                assert tables.first_fresh_step(idx, step) == expected
                assert tables.next_fresh[idx][step] == expected
            # a node's first active step is always one of its fresh steps
            active = [s for s in range(num_steps) if node in graph.adjacency(s)]
            if active:
                assert steps[0] == active[0]


class TestHalfOpenStepBoundaries:
    """The satellite fix: exact half-open arithmetic for contact ends."""

    @staticmethod
    def _graph(contacts, duration=60.0, delta=10.0):
        trace = ContactTrace(contacts, nodes=range(3), duration=duration, name="b")
        return SpaceTimeGraph(trace, delta=delta)

    def test_contact_ending_exactly_on_step_edge(self):
        # [0, 20) is active during steps 0 and 1, NOT step 2: the end
        # instant itself is exclusive.
        graph = self._graph([Contact(0.0, 20.0, 0, 1)])
        assert graph.in_contact(0, 1, 0)
        assert graph.in_contact(0, 1, 1)
        assert not graph.in_contact(0, 1, 2)

    def test_contact_barely_crossing_step_edge(self):
        # The seed's 1e-9 epsilon truncated contacts that extended past a
        # boundary by less than the epsilon; exact arithmetic keeps them.
        end = 20.0 + 1e-10
        graph = self._graph([Contact(0.0, end, 0, 1)])
        assert graph.in_contact(0, 1, 2)

    def test_contact_ending_just_before_step_edge(self):
        graph = self._graph([Contact(0.0, 20.0 - 1e-10, 0, 1)])
        assert graph.in_contact(0, 1, 1)
        assert not graph.in_contact(0, 1, 2)

    def test_contact_within_single_step(self):
        graph = self._graph([Contact(12.0, 18.0, 0, 1)])
        assert not graph.in_contact(0, 1, 0)
        assert graph.in_contact(0, 1, 1)
        assert not graph.in_contact(0, 1, 2)

    def test_zero_duration_contact_still_creates_edge(self):
        graph = self._graph([Contact(30.0, 30.0, 0, 1)])
        assert graph.in_contact(0, 1, 3)
        assert graph.total_contact_edges() == 1

    def test_non_integral_delta_boundary(self):
        # end exactly on a boundary of a non-integral delta
        graph = self._graph([Contact(0.0, 5.0, 0, 1)], duration=10.0, delta=2.5)
        # [0, 5) covers steps 0 and 1 ([0,2.5), [2.5,5)) but not step 2
        assert graph.in_contact(0, 1, 0)
        assert graph.in_contact(0, 1, 1)
        assert not graph.in_contact(0, 1, 2)
