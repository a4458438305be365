"""Delivery-stream equivalence: fast engine vs the reference enumerator.

The fast engine (interned ids, bitmask path sets, prebuilt step indexes,
lazy path reconstruction) must reproduce the reference engine's delivery
stream *exactly* — same paths, same arrival times, same order (including
ties), same ``stopped_early`` flag — on every dataset.  This suite checks
that on all four paper dataset stand-ins, on adversarial small traces and on
generated traces, and also pins the batch/parallel entry points to the
serial stream.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_properties import contact_strategy, trace_strategy

from repro.analysis import run_path_explosion_study
from repro.contacts import Contact, ContactTrace
from repro.core import (
    PathEnumerator,
    SpaceTimeGraph,
    analyze_message,
    enumerate_batch,
    random_messages,
)
from repro.datasets import PAPER_DATASET_KEYS, load_dataset

#: Scaled-down populations keep the suite fast while preserving the regime
#: where stores saturate and the k-cap replacement logic is exercised.
_SCALE = 0.2
_K = 60
_NUM_MESSAGES = 6


def _assert_streams_equal(fast, reference, context=""):
    assert fast.source == reference.source, context
    assert fast.destination == reference.destination, context
    assert fast.creation_time == reference.creation_time, context
    assert fast.stopped_early == reference.stopped_early, context
    assert fast.steps_processed == reference.steps_processed, context
    assert fast.num_deliveries == reference.num_deliveries, context
    for position, (a, b) in enumerate(zip(fast.deliveries, reference.deliveries)):
        where = f"{context} delivery {position}"
        assert a.time == b.time, where
        assert a.step == b.step, where
        assert a.path == b.path, where


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_paper_dataset_stream_equivalence(dataset_key):
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=_K, engine="fast")
    reference = PathEnumerator(graph, k=_K, engine="reference")
    for message in random_messages(trace, _NUM_MESSAGES, seed=99):
        source, destination, creation_time = message
        fast_result = fast.enumerate(source, destination, creation_time,
                                     max_total_deliveries=_K)
        ref_result = reference.enumerate(source, destination, creation_time,
                                         max_total_deliveries=_K)
        _assert_streams_equal(fast_result, ref_result,
                              context=f"{dataset_key} {message}")


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_paper_dataset_hop_counts(dataset_key):
    """Fast deliveries carry their hop counts without building a path:
    each equals its path's, and the explosion records' hop counts (the
    input of Figures 14–15) equal the reference engine's."""
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=_K, engine="fast")
    reference = PathEnumerator(graph, k=_K, engine="reference")
    for source, destination, creation_time in random_messages(
            trace, _NUM_MESSAGES, seed=7):
        context = f"{dataset_key} {source}->{destination}@{creation_time}"
        records = [analyze_message(enumerator, source, destination,
                                   creation_time, n_explosion=_K)
                   for enumerator in (fast, reference)]
        assert records[0].hop_counts == records[1].hop_counts, context
        result = fast.enumerate(source, destination, creation_time,
                                max_total_deliveries=_K)
        assert [d.hop_count for d in result.deliveries] == [
            d.path.hop_count for d in result.deliveries], context


def test_equivalence_without_delivery_cap():
    """Uncapped enumeration exercises the k-per-step stop rule in both."""
    trace = load_dataset("infocom06-9-12", scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=25, engine="fast")
    reference = PathEnumerator(graph, k=25, engine="reference")
    for message in random_messages(trace, 4, seed=17):
        source, destination, creation_time = message
        _assert_streams_equal(
            fast.enumerate(source, destination, creation_time),
            reference.enumerate(source, destination, creation_time),
            context=f"uncapped {message}",
        )


def test_equivalence_with_max_steps_horizon():
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=_K, engine="fast")
    reference = PathEnumerator(graph, k=_K, engine="reference")
    source, destination, creation_time = random_messages(trace, 1, seed=3)[0]
    for horizon in (1, 7, 40):
        _assert_streams_equal(
            fast.enumerate(source, destination, creation_time, max_steps=horizon),
            reference.enumerate(source, destination, creation_time,
                                max_steps=horizon),
            context=f"horizon={horizon}",
        )


def test_equivalence_undeliverable_message():
    """A destination with no contacts: both engines exhaust the window."""
    contacts = [Contact(0.0, 20.0, 0, 1), Contact(40.0, 60.0, 1, 2)]
    trace = ContactTrace(contacts, nodes=range(4), duration=100.0, name="iso")
    graph = SpaceTimeGraph(trace, delta=10.0)
    for engine in ("fast", "reference"):
        result = PathEnumerator(graph, k=10, engine=engine).enumerate(0, 3, 0.0)
        assert not result.delivered
        assert not result.stopped_early
        assert result.steps_processed == graph.num_steps


def test_equivalence_tiny_tie_heavy_trace():
    """Many same-step same-hop deliveries: tie order must match too."""
    contacts = [
        Contact(0.0, 30.0, 0, 1),
        Contact(0.0, 30.0, 0, 2),
        Contact(0.0, 30.0, 0, 3),
        Contact(10.0, 30.0, 1, 4),
        Contact(10.0, 30.0, 2, 4),
        Contact(10.0, 30.0, 3, 4),
        Contact(12.0, 30.0, 1, 2),
        Contact(14.0, 30.0, 2, 3),
    ]
    trace = ContactTrace(contacts, nodes=range(5), duration=60.0, name="ties")
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=50, engine="fast")
    reference = PathEnumerator(graph, k=50, engine="reference")
    _assert_streams_equal(fast.enumerate(0, 4, 0.0), reference.enumerate(0, 4, 0.0),
                          context="tie-heavy")


def test_seed_stream_preserved_across_store_reinsertion():
    """Pruning the store must not change processing order vs the seed.

    Node A (20) delivers at step 1, its store entry is pruned, and it
    re-receives at step 4.  In the seed implementation the store key kept
    its original dict position (first-insertion order); both engines must
    reproduce that, otherwise the k-cap keeps different equal-hop paths.
    The expected streams below were captured from the seed commit.
    """
    contacts = [
        Contact(0.0, 5.0, 10, 20),    # S-A
        Contact(10.0, 15.0, 20, 99),  # A-D: A delivers, store entry pruned
        Contact(20.0, 25.0, 10, 30),  # S-B
        Contact(30.0, 35.0, 10, 40),  # S-X
        Contact(40.0, 45.0, 10, 20),  # S-A again: A re-receives
        Contact(50.0, 55.0, 20, 50),  # A-C
        Contact(50.0, 55.0, 30, 50),  # B-C
        Contact(50.0, 55.0, 40, 50),  # X-C
        Contact(60.0, 65.0, 50, 99),  # C-D
    ]
    trace = ContactTrace(contacts, nodes=[10, 20, 30, 40, 50, 99],
                         duration=80.0, name="reinsertion")
    graph = SpaceTimeGraph(trace, delta=10.0)
    expected_by_k = {
        1: [(10, 20, 99)],
        2: [(10, 20, 99), (10, 20, 50, 99), (10, 30, 50, 99)],
        3: [(10, 20, 99), (10, 20, 50, 99), (10, 30, 50, 99),
            (10, 40, 50, 99)],
    }
    for k, expected in expected_by_k.items():
        for engine in ("fast", "reference"):
            result = PathEnumerator(graph, k=k, engine=engine).enumerate(10, 99, 0.0)
            assert [d.path.nodes for d in result.deliveries] == expected, \
                f"engine={engine} k={k}"


def test_batch_matches_single_message_calls():
    trace = load_dataset("infocom06-3-6", scale=_SCALE, contact_scale=_SCALE)
    graph = SpaceTimeGraph(trace, delta=10.0)
    messages = random_messages(trace, 5, seed=23)
    enumerator = PathEnumerator(graph, k=_K)
    batch = enumerator.enumerate_batch(messages, max_total_deliveries=_K)
    assert len(batch) == len(messages)
    for message, batched in zip(messages, batch):
        source, destination, creation_time = message
        single = enumerator.enumerate(source, destination, creation_time,
                                      max_total_deliveries=_K)
        _assert_streams_equal(batched, single, context=f"batch {message}")


def test_module_level_batch_from_trace():
    trace = load_dataset("conext06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = random_messages(trace, 3, seed=31)
    results = enumerate_batch(trace, messages, k=_K, max_total_deliveries=_K)
    assert [r.source for r in results] == [m[0] for m in messages]
    # the cap stops enumeration at the end of the step where it is reached,
    # so a delivering message reports at least one path and stops early once
    # the cap is crossed
    for result in results:
        if result.num_deliveries >= _K:
            assert result.stopped_early


def test_parallel_study_matches_serial():
    trace = load_dataset("infocom06-9-12", scale=_SCALE, contact_scale=_SCALE)
    kwargs = dict(num_messages=6, n_explosion=40, seed=13)
    serial = run_path_explosion_study(trace, **kwargs)
    parallel = run_path_explosion_study(trace, workers=2, **kwargs)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.source == b.source
        assert a.destination == b.destination
        assert a.creation_time == b.creation_time
        assert a.num_paths == b.num_paths
        assert a.optimal_duration == b.optimal_duration
        assert a.time_to_explosion == b.time_to_explosion
        assert a.arrival_durations == b.arrival_durations
        assert a.hop_counts == b.hop_counts


def test_engines_agree_across_delta():
    """Equivalence holds for non-default Δ discretisations too."""
    trace = load_dataset("infocom05", scale=0.3, contact_scale=0.3)
    for delta in (5.0, 30.0):
        graph = SpaceTimeGraph(trace, delta=delta)
        fast = PathEnumerator(graph, k=30, engine="fast")
        reference = PathEnumerator(graph, k=30, engine="reference")
        for message in random_messages(trace, 3, seed=41):
            source, destination, creation_time = message
            _assert_streams_equal(
                fast.enumerate(source, destination, creation_time,
                               max_total_deliveries=30),
                reference.enumerate(source, destination, creation_time,
                                    max_total_deliveries=30),
                context=f"delta={delta} {message}",
            )


def test_rejects_unknown_engine():
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(2),
                         duration=20.0, name="mini")
    graph = SpaceTimeGraph(trace, delta=10.0)
    with pytest.raises(ValueError):
        PathEnumerator(graph, k=5, engine="turbo")


def test_cap_replacement_across_purge_and_delivery():
    """A full store's replacement index is rebuilt at every invalidation.

    With k = 3, node X fills with paths of 3, 3 and 2 hops (steps 2-5),
    then takes a 2-hop replacement (step 6).  F meets the destination at
    step 7: F delivers, and the purge rewrites X's list without its path
    through F.  X refills at step 8, takes a 1-hop replacement from the
    source at step 9, and delivers its full store at step 10, which fires
    the k-per-step stop rule.  A replacement index kept across the purge
    would reject the step-8 path and change the final deliveries.
    """
    S, A, B, C, X, E, F, D = 0, 1, 2, 3, 4, 5, 6, 9

    def at(step, a, b):
        return Contact(10.0 * step + 1.0, 10.0 * step + 5.0, a, b)

    contacts = [at(0, S, A), at(0, S, B), at(1, A, C), at(1, B, F),
                at(2, C, X), at(3, F, X), at(4, S, E), at(5, E, X),
                at(6, A, X), at(7, F, D), at(8, C, X), at(9, S, X),
                at(10, X, D)]
    trace = ContactTrace(contacts, nodes=[S, A, B, C, X, E, F, D],
                         duration=120.0, name="cap")
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=3, engine="fast").enumerate(S, D, 0.0)
    reference = PathEnumerator(graph, k=3, engine="reference").enumerate(S, D, 0.0)
    _assert_streams_equal(fast, reference, context="cap")
    assert [(d.step, d.path.nodes) for d in fast.deliveries] == [
        (7, (S, B, F, D)), (7, (S, A, C, X, F, D)),
        (10, (S, X, D)), (10, (S, A, X, D)), (10, (S, E, X, D)),
    ]
    assert fast.stopped_early and fast.steps_processed == 11


def test_destination_fresh_edge_purges_paths_of_emptied_node():
    """A step where only the destination has a fresh edge is not a no-op.

    Y's first path (4 hops, not via W) reaches Z at step 4.  At steps 8-9
    Y fills with two 3-hop paths via W and replaces the old one.  W meets
    the destination at step 10: the purge empties Y's store but keeps Z's
    path through Y.  At step 11 the destination freshly meets Y, which
    holds nothing, while no path holder has a fresh edge; the purge at that
    step must still drop Z's path, or Z would deliver it at step 13.
    """
    S, P1, P2, P3, Y, Z, W, U1, U2, D = range(10)

    def at(step, a, b, steps=1):
        return Contact(10.0 * step + 1.0, 10.0 * (step + steps - 1) + 5.0, a, b)

    contacts = [at(0, S, P1), at(1, P1, P2), at(2, P2, P3), at(3, P3, Y),
                at(4, Y, Z), at(5, S, W), at(6, W, U1), at(7, W, U2),
                at(8, U1, Y), at(9, U2, Y), at(10, W, D), at(11, Y, D, steps=5),
                at(13, Z, D)]
    trace = ContactTrace(contacts, nodes=range(10), duration=200.0, name="purge")
    graph = SpaceTimeGraph(trace, delta=10.0)
    fast = PathEnumerator(graph, k=2, engine="fast").enumerate(S, D, 0.0)
    reference = PathEnumerator(graph, k=2, engine="reference").enumerate(S, D, 0.0)
    _assert_streams_equal(fast, reference, context="purge")
    assert [(d.step, d.path.nodes) for d in fast.deliveries] == [(10, (S, W, D))]


@st.composite
def _long_contact(draw):
    """A contact lasting 10-40 steps of 10 s, so many edges are stale."""
    contact = draw(contact_strategy())
    length = draw(st.floats(min_value=100.0, max_value=400.0))
    return Contact(contact.start, contact.start + length, contact.a, contact.b)


@st.composite
def _message_case(draw):
    """A generated trace plus a message whose creation time may fall inside
    an ongoing contact at the source or at the destination."""
    base = draw(trace_strategy(max_contacts=30))
    contacts = list(base) + draw(st.lists(_long_contact(), max_size=5))
    duration = max(c.end for c in contacts) + 50.0
    trace = ContactTrace(contacts, nodes=range(10), duration=duration)
    where = draw(st.sampled_from(["anywhere", "source", "destination"]))
    if where == "anywhere":
        source = draw(st.integers(0, 9))
        destination = draw(st.integers(0, 9).filter(lambda d: d != source))
        creation_time = draw(st.floats(0.0, duration))
    else:
        contact = draw(st.sampled_from(contacts))
        endpoint = draw(st.sampled_from([contact.a, contact.b]))
        other = draw(st.integers(0, 9).filter(lambda n: n != endpoint))
        source, destination = ((endpoint, other) if where == "source"
                               else (other, endpoint))
        creation_time = draw(st.floats(contact.start, contact.end))
    return trace, source, destination, creation_time


@given(case=_message_case(), k=st.sampled_from([1, 2, 3, 8]),
       mode=st.sampled_from(["capped", "uncapped", "max_steps"]),
       horizon=st.integers(0, 30))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_traces_stream_equivalence(case, k, mode, horizon):
    """Fast vs reference on generated traces, including long contacts and
    creation times inside ongoing contacts at either endpoint."""
    trace, source, destination, creation_time = case
    graph = SpaceTimeGraph(trace, delta=10.0)
    kwargs = {}
    if mode == "capped":
        kwargs["max_total_deliveries"] = k
    elif mode == "max_steps":
        kwargs["max_steps"] = horizon
    fast = PathEnumerator(graph, k=k, engine="fast")
    reference = PathEnumerator(graph, k=k, engine="reference")
    _assert_streams_equal(
        fast.enumerate(source, destination, creation_time, **kwargs),
        reference.enumerate(source, destination, creation_time, **kwargs),
        context=f"{source}->{destination}@{creation_time} k={k} {mode}",
    )
