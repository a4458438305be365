"""Property tests for the resource-constraint machinery.

Hypothesis drives random admit/remove sequences through the buffer layer
(occupancy invariant, eviction order of the drop policies) and random
traces/workloads through the full engine (TTL expiry semantics, capacity
invariant under every drop policy).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.contacts import Contact, ContactTrace
from repro.forwarding import Message
from repro.forwarding.algorithms import algorithm_by_name
from repro.sim import (
    DROP_LARGEST,
    DROP_OLDEST,
    DROP_POLICIES,
    DROP_YOUNGEST,
    BufferEntry,
    DesSimulator,
    NodeBuffer,
    ResourceConstraints,
)

# ----------------------------------------------------------------------
# buffer layer
# ----------------------------------------------------------------------
_operations = st.lists(
    st.tuples(
        st.sampled_from(["admit", "remove"]),
        st.integers(min_value=0, max_value=30),       # message id
        st.floats(min_value=0.1, max_value=8.0,       # size
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=100.0,     # receive time
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(operations=_operations,
       capacity=st.floats(min_value=0.5, max_value=20.0,
                          allow_nan=False, allow_infinity=False),
       policy=st.sampled_from(DROP_POLICIES))
def test_buffer_occupancy_never_exceeds_capacity(operations, capacity, policy):
    buffer = NodeBuffer(capacity=capacity, policy=policy)
    sequence = 0
    for action, message_id, size, receive_time in operations:
        if action == "admit":
            if message_id in buffer:
                continue
            admitted, evicted = buffer.admit(BufferEntry(
                message_id=message_id, size=size,
                receive_time=receive_time, sequence=sequence))
            sequence += 1
            if size > capacity:
                assert not admitted and not evicted
        else:
            buffer.remove(message_id)
        assert buffer.used <= capacity + 1e-9
        assert buffer.peak_used <= capacity + 1e-9
        total = sum(entry.size for entry in buffer.entries())
        assert buffer.used == pytest.approx(total)


@settings(max_examples=120, deadline=None)
@given(sizes=st.lists(st.floats(min_value=0.2, max_value=2.0,
                                allow_nan=False, allow_infinity=False),
                      min_size=2, max_size=25))
def test_drop_oldest_evicts_in_arrival_order(sizes):
    """Every eviction under drop-oldest removes the earliest-admitted copy,
    so the concatenated eviction stream is ordered by admission sequence
    and matches a FIFO prefix of the admissions."""
    buffer = NodeBuffer(capacity=3.0, policy=DROP_OLDEST)
    evictions = []
    for sequence, size in enumerate(sizes):
        admitted, evicted = buffer.admit(BufferEntry(
            message_id=sequence, size=size,
            receive_time=float(sequence), sequence=sequence))
        assert admitted  # every size fits a 3.0-byte buffer on its own
        evictions.extend(evicted)
    eviction_sequences = [entry.sequence for entry in evictions]
    assert eviction_sequences == sorted(eviction_sequences)
    # FIFO: evicted set is exactly the oldest len(evictions) among the
    # admissions that are no longer stored
    survivors = {entry.sequence for entry in buffer.entries()}
    assert survivors.isdisjoint(eviction_sequences)
    assert eviction_sequences == list(range(len(eviction_sequences)))


def test_drop_youngest_and_drop_largest_victim_choice():
    youngest = NodeBuffer(capacity=2.0, policy=DROP_YOUNGEST)
    for sequence in range(2):
        admitted, evicted = youngest.admit(BufferEntry(
            message_id=sequence, size=1.0, receive_time=float(sequence),
            sequence=sequence))
        assert admitted and not evicted
    admitted, evicted = youngest.admit(BufferEntry(
        message_id=9, size=1.0, receive_time=5.0, sequence=2))
    assert admitted
    assert [entry.message_id for entry in evicted] == [1]  # newest stored copy

    largest = NodeBuffer(capacity=3.0, policy=DROP_LARGEST)
    for message_id, size in ((0, 0.5), (1, 2.0), (2, 0.5)):
        admitted, _ = largest.admit(BufferEntry(
            message_id=message_id, size=size, receive_time=0.0,
            sequence=message_id))
        assert admitted
    admitted, evicted = largest.admit(BufferEntry(
        message_id=3, size=1.0, receive_time=1.0, sequence=3))
    assert admitted
    assert [entry.message_id for entry in evicted] == [1]  # the 2.0-byte copy


def test_buffer_rejects_oversized_entry_without_evicting():
    buffer = NodeBuffer(capacity=1.0, policy=DROP_OLDEST)
    assert buffer.admit(BufferEntry(0, 0.8, 0.0, 0)) == (True, [])
    admitted, evicted = buffer.admit(BufferEntry(1, 1.5, 1.0, 1))
    assert not admitted and not evicted
    assert 0 in buffer and buffer.used == pytest.approx(0.8)


def test_full_size_entry_admits_after_evicting_to_float_residue():
    """Evicting every entry can leave ``used`` a few ulps above zero; an
    entry exactly the buffer's size must still be admitted, not make the
    eviction loop look for a victim in an empty buffer."""
    buffer = NodeBuffer(capacity=3.0, policy=DROP_OLDEST)
    buffer.admit(BufferEntry(0, 0.3713173193836108, 0.0, 0))
    buffer.admit(BufferEntry(2, 2.00001, 0.0, 1))
    admitted, evicted = buffer.admit(BufferEntry(1, 3.0, 0.0, 2))
    assert admitted and [entry.message_id for entry in evicted] == [0, 2]
    assert buffer.used == 3.0


# ----------------------------------------------------------------------
# engine-level properties over random traces
# ----------------------------------------------------------------------
_random_contacts = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=900.0,
                  allow_nan=False, allow_infinity=False),  # start
        st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),  # duration
        st.integers(min_value=0, max_value=7),             # node a
        st.integers(min_value=0, max_value=7),             # node b
    ).filter(lambda c: c[2] != c[3]),
    min_size=4, max_size=40,
)

_random_messages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),             # source
        st.integers(min_value=0, max_value=7),             # destination
        st.floats(min_value=0.0, max_value=600.0,
                  allow_nan=False, allow_infinity=False),  # creation
    ).filter(lambda m: m[0] != m[1]),
    min_size=1, max_size=12,
)


def _build_trace(raw_contacts) -> ContactTrace:
    contacts = [Contact(start, min(start + duration, 1024.0), a, b)
                for start, duration, a, b in raw_contacts]
    return ContactTrace(contacts, nodes=range(8), duration=1024.0, name="prop")


def _build_messages(raw_messages, ttl=None):
    return [Message(id=index, source=s, destination=d, creation_time=t, ttl=ttl)
            for index, (s, d, t) in enumerate(raw_messages)]


@settings(max_examples=60, deadline=None)
@given(raw_contacts=_random_contacts, raw_messages=_random_messages,
       ttl=st.floats(min_value=10.0, max_value=400.0,
                     allow_nan=False, allow_infinity=False))
def test_no_delivery_at_or_after_expiry(raw_contacts, raw_messages, ttl):
    """A message is live during [creation, creation + ttl) only."""
    trace = _build_trace(raw_contacts)
    messages = _build_messages(raw_messages, ttl=ttl)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=ResourceConstraints()).run(messages)
    for outcome in result.outcomes:
        if outcome.delivered:
            assert outcome.delay is not None
            assert outcome.delay < ttl
    # the constraints-level default ttl must behave identically
    plain = [Message(id=m.id, source=m.source, destination=m.destination,
                     creation_time=m.creation_time) for m in messages]
    via_constraints = DesSimulator(
        trace, algorithm_by_name("Epidemic"),
        constraints=ResourceConstraints(ttl=ttl)).run(plain)
    assert [o.delivered for o in via_constraints.outcomes] == \
        [o.delivered for o in result.outcomes]
    assert [o.delivery_time for o in via_constraints.outcomes] == \
        [o.delivery_time for o in result.outcomes]


def test_expired_copies_are_freed_from_buffers():
    """After expiry the copies stop occupying buffer space: a fresh message
    fits where the expired ones were."""
    contacts = [
        Contact(0.0, 10.0, 0, 1),     # seed node 1's buffer before expiry
        Contact(200.0, 210.0, 1, 2),  # after expiry of the early messages
        Contact(220.0, 230.0, 2, 3),
    ]
    trace = ContactTrace(contacts, nodes=range(4), duration=300.0, name="ttl")
    early = [Message(id=index, source=0, destination=3, creation_time=0.0,
                     ttl=50.0) for index in range(2)]
    late = [Message(id=9, source=1, destination=3, creation_time=190.0)]
    constraints = ResourceConstraints(buffer_capacity=2.0)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=constraints).run(early + late)
    # both early messages held node 1's whole buffer, expired at t=50, and
    # were freed — so the late message is created, relayed and delivered
    # with no evictions at node 1
    assert result.stats.expired_messages == 2
    assert result.stats.expired_copies >= 2
    late_outcome = result.outcome_for(9)
    assert late_outcome is not None and late_outcome.delivered
    for outcome in result.outcomes[:2]:
        assert not outcome.delivered


@settings(max_examples=40, deadline=None)
@given(raw_contacts=_random_contacts, raw_messages=_random_messages,
       capacity=st.floats(min_value=1.0, max_value=6.0,
                          allow_nan=False, allow_infinity=False),
       policy=st.sampled_from(DROP_POLICIES))
def test_engine_peak_occupancy_bounded_by_capacity(raw_contacts, raw_messages,
                                                   capacity, policy):
    trace = _build_trace(raw_contacts)
    messages = _build_messages(raw_messages)
    constraints = ResourceConstraints(buffer_capacity=capacity,
                                      drop_policy=policy)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=constraints).run(messages)
    assert result.stats.peak_buffer_occupancy <= capacity + 1e-9
    # every delivered message was delivered while alive, and the outcome
    # list covers exactly the submitted workload
    assert len(result.outcomes) == len(messages)


def test_constraints_validation():
    with pytest.raises(ValueError):
        ResourceConstraints(buffer_capacity=0.0)
    with pytest.raises(ValueError):
        ResourceConstraints(bandwidth=-1.0)
    with pytest.raises(ValueError):
        ResourceConstraints(ttl=0.0)
    with pytest.raises(ValueError):
        ResourceConstraints(drop_policy="drop-random")
    with pytest.raises(ValueError):
        NodeBuffer(capacity=-2.0)
    with pytest.raises(ValueError):
        NodeBuffer(policy="nope")


def test_bandwidth_partial_transfer_resumes_on_recontact():
    """A transfer too large for one contact resumes and completes on the
    pair's next contact; delivery time reflects the transferred bytes."""
    contacts = [
        Contact(0.0, 10.0, 0, 1),    # 10 s x 1 B/s = 10 of 15 bytes
        Contact(50.0, 70.0, 0, 1),   # remaining 5 bytes -> done at t=55
    ]
    trace = ContactTrace(contacts, nodes=range(2), duration=100.0, name="bw")
    message = Message(id=0, source=0, destination=1, creation_time=0.0,
                      size=15.0)
    constraints = ResourceConstraints(bandwidth=1.0)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=constraints).run([message])
    outcome = result.outcomes[0]
    assert outcome.delivered
    assert outcome.delivery_time == pytest.approx(55.0)
    assert result.stats.partial_transfers == 1
    assert result.stats.resumed_transfers == 1
    assert result.stats.bytes_sent == pytest.approx(15.0)


def test_in_flight_transfer_survives_carrier_eviction():
    """Once the bytes are on the air, evicting the carrier's copy does not
    cancel the transfer: the delivery still completes."""
    contacts = [Contact(0.0, 20.0, 0, 1)]
    trace = ContactTrace(contacts, nodes=range(3), duration=40.0, name="evict")
    messages = [
        Message(id=0, source=0, destination=1, creation_time=0.0, size=10.0),
        # created mid-transfer at the same node; fills the buffer and evicts
        # message 0 (drop-oldest) while its transfer is in flight
        Message(id=1, source=0, destination=2, creation_time=5.0, size=10.0),
    ]
    constraints = ResourceConstraints(bandwidth=1.0, buffer_capacity=10.0)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=constraints).run(messages)
    outcome = result.outcome_for(0)
    # eviction 1: message 1 evicts message 0 at node 0 (t=5, mid-transfer);
    # eviction 2: message 1's relay copy later evicts message 0's delivered
    # copy at node 1 — neither stops the in-flight delivery at t=10
    assert result.stats.buffer_evictions == 2
    assert outcome is not None and outcome.delivered
    assert outcome.delivery_time == pytest.approx(10.0)


def test_handoff_delivery_keeps_carrier_copy_on_both_transfer_paths():
    """Under hand-off semantics, delivering to the destination does not cost
    the carrier its copy — with and without bandwidth delays (the
    instantaneous path and the scheduled path must agree)."""
    contacts = [Contact(0.0, 20.0, 0, 1), Contact(30.0, 40.0, 0, 2)]
    trace = ContactTrace(contacts, nodes=range(3), duration=50.0, name="ho")
    message = Message(id=0, source=0, destination=1, creation_time=0.0, size=5.0)
    copies = {}
    for label, constraints in (("instant", ResourceConstraints()),
                               ("delayed", ResourceConstraints(bandwidth=1.0))):
        result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                              constraints=constraints, copy_semantics="handoff",
                              stop_on_delivery=False).run([message])
        assert result.outcomes[0].delivered
        copies[label] = result.copies_sent
    # delivery at t<=5, then node 0 still holds its copy and relays to
    # node 2 during the second contact: 2 copies either way
    assert copies["instant"] == copies["delayed"] == 2


def test_source_rejection_is_not_also_counted_as_expiry():
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=range(2),
                         duration=200.0, name="rej")
    message = Message(id=0, source=0, destination=1, creation_time=0.0,
                      size=3.0, ttl=100.0)
    constraints = ResourceConstraints(buffer_capacity=2.0)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=constraints).run([message])
    assert not result.outcomes[0].delivered
    assert result.stats.source_rejections == 1
    assert result.stats.expired_messages == 0
    assert result.stats.expired_copies == 0


def test_handoff_with_bandwidth_never_forks_the_single_copy():
    """While a hand-off transfer is in flight, the carrier must not commit
    the same copy to a second peer: exactly one copy circulates."""
    contacts = [Contact(0.0, 30.0, 0, 1), Contact(0.0, 30.0, 0, 2)]
    trace = ContactTrace(contacts, nodes=range(4), duration=50.0, name="fork")
    message = Message(id=0, source=0, destination=3, creation_time=0.0,
                      size=10.0)
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=ResourceConstraints(bandwidth=2.0),
                          copy_semantics="handoff").run([message])
    assert result.copies_sent == 1
    # the instantaneous hand-off path agrees
    instant = DesSimulator(trace, algorithm_by_name("Epidemic"),
                           copy_semantics="handoff").run([message])
    assert instant.copies_sent == 1


def test_forwarding_decision_counters_are_per_run():
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1), Contact(20.0, 30.0, 1, 2)],
                         nodes=range(3), duration=40.0, name="counters")
    messages = [Message(id=0, source=0, destination=2, creation_time=0.0)]
    simulator = DesSimulator(trace, algorithm_by_name("Epidemic"))
    first = simulator.run(messages)
    second = simulator.run(messages)
    assert second.stats.forwarding_decisions == first.stats.forwarding_decisions
    assert second.stats.forwarding_approvals == first.stats.forwarding_approvals


def test_bandwidth_serializes_transfers_on_one_link():
    """Two messages over one 1 B/s contact: the second completes after the
    first (the link is busy), not simultaneously."""
    contacts = [Contact(0.0, 30.0, 0, 1)]
    trace = ContactTrace(contacts, nodes=range(2), duration=50.0, name="serial")
    messages = [
        Message(id=0, source=0, destination=1, creation_time=0.0, size=10.0),
        Message(id=1, source=0, destination=1, creation_time=0.0, size=10.0),
    ]
    result = DesSimulator(trace, algorithm_by_name("Epidemic"),
                          constraints=ResourceConstraints(bandwidth=1.0)).run(messages)
    times = sorted(outcome.delivery_time for outcome in result.outcomes)
    assert times == [pytest.approx(10.0), pytest.approx(20.0)]
