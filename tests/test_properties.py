"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles.path_oracle import first_delivery_time

from repro.analysis import empirical_cdf, exponential_growth_rate
from repro.contacts import Contact, ContactTrace
from repro.core import (
    Path,
    PathEnumerator,
    SpaceTimeGraph,
    analyze_message,
    classify_nodes,
    is_valid_path,
)
from repro.forwarding import EpidemicForwarding, Message, OnlineContactHistory, simulate
from repro.model import InitialPathDistribution, mean_paths, second_moment, variance

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=9)


@st.composite
def contact_strategy(draw, max_time: float = 500.0):
    a = draw(node_ids)
    b = draw(node_ids.filter(lambda x: True))
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


# ----------------------------------------------------------------------
# Contact / ContactTrace invariants
# ----------------------------------------------------------------------
class TestContactProperties:
    @given(a=node_ids, b=node_ids, start=st.floats(0, 1e5, allow_nan=False),
           length=st.floats(0, 1e4, allow_nan=False))
    def test_pair_always_canonical(self, a, b, start, length):
        if a == b:
            return
        contact = Contact(start, start + length, a, b)
        assert contact.a <= contact.b
        assert contact.peer(contact.a) == contact.b
        assert contact.duration >= 0

    @given(trace=trace_strategy())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_contact_counts_consistent_with_length(self, trace):
        counts = trace.contact_counts()
        assert sum(counts.values()) == 2 * len(trace)
        assert set(counts) == set(trace.nodes)

    @given(trace=trace_strategy())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_window_never_increases_contacts(self, trace):
        half = trace.window(0.0, trace.duration / 2)
        assert len(half) <= len(trace)
        assert half.duration == pytest.approx(trace.duration / 2)

    @given(trace=trace_strategy(), t0=st.floats(0, 200, allow_nan=False),
           width=st.floats(1, 200, allow_nan=False))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_window_contacts_lie_inside_window(self, trace, t0, width):
        t1 = min(t0 + width, trace.duration)
        if t0 >= t1:
            return
        sub = trace.window(t0, t1)
        for contact in sub:
            assert -1e-9 <= contact.start <= sub.duration + 1e-9
            assert contact.end <= sub.duration + 1e-9


# ----------------------------------------------------------------------
# Space-time graph and enumeration invariants
# ----------------------------------------------------------------------
@st.composite
def enumeration_case_strategy(draw):
    """A trace plus a source, a distinct destination and a creation time
    in the first half of the trace."""
    trace = draw(trace_strategy(min_contacts=3))
    nodes = sorted(trace.nodes)
    source = draw(st.sampled_from(nodes))
    destination = draw(st.sampled_from([n for n in nodes if n != source]))
    t1 = draw(st.floats(min_value=0.0, max_value=trace.duration / 2,
                        allow_nan=False))
    return trace, source, destination, t1


class TestEnumerationProperties:
    @given(case=enumeration_case_strategy())
    # a creation at an exact multiple of Δ inside a contact with the
    # destination: the direct hand-off is first preference
    @example(case=(ContactTrace([Contact(145.0, 165.0, 3, 4)],
                                nodes=range(10), duration=215.0),
                   4, 3, 150.0))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_enumerated_path_is_valid(self, case):
        trace, source, destination, t1 = case
        graph = SpaceTimeGraph(trace, delta=10.0)
        enumerator = PathEnumerator(graph, k=30)
        result = enumerator.enumerate(source, destination, t1,
                                      max_total_deliveries=30)
        times = result.arrival_times()
        assert times == sorted(times)
        for delivery in result.deliveries:
            path = delivery.path
            assert path.source == source
            assert path.last_node == destination
            assert path.start_time == pytest.approx(t1)
            assert is_valid_path(path, graph, destination)

    @given(case=enumeration_case_strategy(), k=st.sampled_from([1, 3, 30]))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fast_deliveries_keep_their_hop_counts(self, case, k):
        """The fast engine's stored hop counts equal its paths' and the
        reference engine's (Figures 14–15 read them, no digest does)."""
        trace, source, destination, t1 = case
        graph = SpaceTimeGraph(trace, delta=10.0)
        fast = PathEnumerator(graph, k=k)
        reference = PathEnumerator(graph, k=k, engine="reference")
        records = [analyze_message(enumerator, source, destination, t1,
                                   n_explosion=k)
                   for enumerator in (fast, reference)]
        assert records[0].hop_counts == records[1].hop_counts
        result = fast.enumerate(source, destination, t1)
        assert [d.hop_count for d in result.deliveries] == [
            d.path.hop_count for d in result.deliveries]

    @given(trace=trace_strategy(min_contacts=3), data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_enumeration_optimum_lower_bounds_simulation(self, trace, data):
        """A delivery achieved by the event-driven epidemic simulator
        certifies a real space-time path, so the Δ-pooled enumeration must
        also deliver, no later than the simulated time plus one bin."""
        graph = SpaceTimeGraph(trace, delta=10.0)
        nodes = sorted(trace.nodes)
        source = data.draw(st.sampled_from(nodes))
        destination = data.draw(st.sampled_from([n for n in nodes if n != source]))
        message = Message(id=0, source=source, destination=destination,
                          creation_time=0.0)
        outcome = simulate(trace, EpidemicForwarding(), [message]).outcomes[0]
        optimal = first_delivery_time(graph, source, destination, 0.0)
        if outcome.delivered:
            assert optimal is not None
            assert optimal <= outcome.delivery_time + graph.delta + 1e-9


# ----------------------------------------------------------------------
# Classification invariants
# ----------------------------------------------------------------------
class TestClassificationProperties:
    @given(rates=st.dictionaries(node_ids, st.floats(0, 10, allow_nan=False),
                                 min_size=2, max_size=10))
    def test_every_node_classified(self, rates):
        classification = classify_nodes(rates)
        assert set(classification.classes) == set(rates)
        from repro.core import NodeClass

        for node, rate in rates.items():
            expected = NodeClass.IN if rate > classification.threshold else NodeClass.OUT
            assert classification.classes[node] is expected

    @given(rates=st.dictionaries(node_ids, st.floats(0, 10, allow_nan=False),
                                 min_size=4, max_size=10))
    def test_out_group_is_at_least_half(self, rates):
        """With a median threshold, at least half the nodes are 'out'
        (values equal to the median are classified 'out')."""
        classification = classify_nodes(rates)
        from repro.core import NodeClass

        num_out = len(classification.nodes_in_class(NodeClass.OUT))
        assert num_out >= len(rates) / 2


# ----------------------------------------------------------------------
# Analytic model invariants
# ----------------------------------------------------------------------
class TestModelProperties:
    @given(lam=st.floats(0.001, 0.1, allow_nan=False),
           t=st.floats(0.0, 200.0, allow_nan=False),
           num_nodes=st.integers(2, 500))
    def test_moment_inequalities(self, lam, t, num_nodes):
        initial = InitialPathDistribution.single_source(num_nodes)
        mean = mean_paths(t, lam, initial)
        second = second_moment(t, lam, initial)
        var = variance(t, lam, initial)
        assert mean >= 0
        assert second + 1e-9 >= mean ** 2
        assert var == pytest.approx(second - mean ** 2, rel=1e-6, abs=1e-9)

    @given(lam=st.floats(0.001, 0.05, allow_nan=False),
           t1=st.floats(0.0, 100.0, allow_nan=False),
           dt=st.floats(0.0, 100.0, allow_nan=False),
           num_nodes=st.integers(2, 100))
    def test_mean_is_monotone_in_time(self, lam, t1, dt, num_nodes):
        initial = InitialPathDistribution.single_source(num_nodes)
        assert mean_paths(t1 + dt, lam, initial) >= mean_paths(t1, lam, initial) - 1e-12


# ----------------------------------------------------------------------
# History and statistics invariants
# ----------------------------------------------------------------------
class TestHistoryProperties:
    @given(records=st.lists(st.tuples(node_ids, node_ids,
                                      st.floats(0, 1000, allow_nan=False)),
                            max_size=50))
    def test_totals_equal_twice_number_of_records(self, records):
        history = OnlineContactHistory()
        valid = 0
        for a, b, t in records:
            if a == b:
                continue
            history.record(a, b, t)
            valid += 1
        assert history.num_recorded == valid
        assert sum(history.snapshot_totals().values()) == 2 * valid

    @given(samples=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                            max_size=100))
    def test_empirical_cdf_invariants(self, samples):
        x, cdf = empirical_cdf(samples)
        assert x.size == len(samples)
        assert cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(x) >= 0)
        assert np.all(np.diff(cdf) >= 0)

    @given(rate=st.floats(-0.05, 0.05, allow_nan=False),
           scale=st.floats(0.1, 10.0, allow_nan=False))
    def test_growth_rate_recovery(self, rate, scale):
        times = np.linspace(0, 100, 30)
        counts = scale * np.exp(rate * times)
        estimate = exponential_growth_rate(times, counts)
        assert estimate == pytest.approx(rate, abs=1e-6)
