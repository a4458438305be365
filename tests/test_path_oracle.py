"""Both enumerators against the exhaustive path oracle
(``tests/oracles/path_oracle.py``), which lists every valid path from the
Section 4.1 rules alone.

With ``k`` unbounded, the oracle's paths must be exactly the paths each
enumerator emits (completeness as well as soundness).  At ``k = n`` the
k-shortest cap must still leave ``T_n``, the n-th arrival time the
path-explosion analysis reads, exact: the paper's ``k >= 2000`` relies on
it.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.path_oracle import first_delivery_time, valid_paths

from repro.contacts import Contact, ContactTrace
from repro.core import PathEnumerator, SpaceTimeGraph
from repro.core.enumeration import ENUMERATORS

DELTA = 10.0
#: larger than any per-node path count or per-step delivery count here
UNBOUNDED_K = 10 ** 9

# times biased to multiples of Δ, where step-boundary rules bite
_times = st.one_of(st.integers(0, 30).map(lambda i: i * DELTA),
                   st.floats(0.0, 300.0, allow_nan=False))
_lengths = st.one_of(st.integers(0, 6).map(lambda i: i * DELTA),
                     st.floats(0.0, 60.0, allow_nan=False))


@st.composite
def _cases(draw):
    """``(num_nodes, contacts, source, destination, creation_time)`` with
    each contact a ``(start, length, a, b)`` tuple."""
    num_nodes = draw(st.integers(3, 8))
    node = st.integers(0, num_nodes - 1)
    contacts = draw(st.lists(
        st.tuples(_times, _lengths, node, node).filter(
            lambda contact: contact[2] != contact[3]),
        min_size=3, max_size=40))
    source = draw(node)
    destination = draw(node.filter(lambda d: d != source))
    return num_nodes, tuple(contacts), source, destination, draw(_times)


def _graph(num_nodes, contacts, creation_time):
    trace = ContactTrace(
        [Contact(start, start + length, a, b)
         for start, length, a, b in contacts],
        nodes=range(num_nodes),
        duration=max([start + length for start, length, _, _ in contacts]
                     + [creation_time]) + DELTA)
    return SpaceTimeGraph(trace, delta=DELTA)


#: created at an exact multiple of Δ, as a contact chain opens: the source
#: hands off in its creation step, and 1 relays on within that step
_CREATED_ON_A_STEP_EDGE = (
    3, ((20.0, 10.0, 0, 1), (20.0, 10.0, 1, 2), (40.0, 0.0, 0, 2)),
    0, 2, 20.0)
#: created inside the long contact 0-1: the source passes over it in its
#: creation step only, never again while it stays open; 1 and 2 relay
#: within that step, and 1 meeting 3 purges the path held at 2
_STALE_EDGE = (
    4, ((0.0, 100.0, 0, 1), (70.0, 5.0, 1, 3), (30.0, 50.0, 1, 2),
        (90.0, 0.0, 2, 3)),
    0, 3, 55.0)
#: 1 meets the destination before 2 does: the path through 1 held at 2
#: is purged, while 1's own copy is delivered
_PURGE = (
    4, ((10.0, 0.0, 0, 1), (20.0, 0.0, 1, 2), (30.0, 0.0, 1, 3),
        (40.0, 0.0, 2, 3)),
    0, 3, 0.0)
#: two full layers between source and destination: many paths, with
#: within-step chaining, reach the destination in one step, so the
#: k-shortest cap and the k-deliveries stop rule both fire
_LAYERED = (
    8, ((10.0, 0.0, 0, 1), (10.0, 0.0, 0, 2), (10.0, 0.0, 0, 3))
    + tuple((20.0, 0.0, a, b) for a in (1, 2, 3) for b in (4, 5, 6))
    + ((30.0, 0.0, 4, 7), (30.0, 0.0, 5, 7), (30.0, 0.0, 6, 7)),
    0, 7, 0.0)


class TestPathOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_cases())
    @example(case=_CREATED_ON_A_STEP_EDGE)
    @example(case=_STALE_EDGE)
    @example(case=_PURGE)
    @example(case=_LAYERED)
    def test_enumerators_emit_exactly_the_valid_paths(self, case):
        num_nodes, contacts, source, destination, creation_time = case
        graph = _graph(num_nodes, contacts, creation_time)
        expected = valid_paths(graph, source, destination, creation_time)
        for engine in ENUMERATORS:
            result = PathEnumerator(graph, k=UNBOUNDED_K, engine=engine) \
                .enumerate(source, destination, creation_time)
            assert sorted(tuple(d.path.hops) for d in result.deliveries) \
                == expected, engine
            assert [d.time for d in result.deliveries] == \
                [d.path.hops[-1][1] for d in result.deliveries], engine

    @settings(max_examples=150, deadline=None)
    @given(case=_cases(), n=st.sampled_from([1, 2, 3, 5, 8]))
    @example(case=_LAYERED, n=5)
    @example(case=_LAYERED, n=8)
    @example(case=_STALE_EDGE, n=2)
    @example(case=_PURGE, n=2)
    def test_nth_arrival_is_exact_at_k_equal_n(self, case, n):
        num_nodes, contacts, source, destination, creation_time = case
        graph = _graph(num_nodes, contacts, creation_time)
        times = sorted(hops[-1][1] for hops in valid_paths(
            graph, source, destination, creation_time))
        assert first_delivery_time(graph, source, destination,
                                   creation_time) == (times[0] if times
                                                      else None)
        expected = times[n - 1] if len(times) >= n else None
        for engine in ENUMERATORS:
            result = PathEnumerator(graph, k=n, engine=engine).enumerate(
                source, destination, creation_time, max_total_deliveries=n)
            assert result.time_of_nth_path(n) == expected, engine
