"""Engine equivalence: the DES engine vs the trace-driven oracle.

With every resource constraint disabled, :class:`repro.sim.DesSimulator`
must reproduce the trace-driven engine (``tests/oracles/trace_engine.py``,
:class:`TraceEngine`) *exactly* on
identical workloads: the same delivery set, the same first-delivery times,
the same hop counts (which pin the zero-time cascade traversal order, i.e.
the tie order among simultaneous receptions) and the same total copy count
(which pins the entire transfer relation).  This suite enforces that on all
four paper dataset stand-ins, for all six paper algorithms, and across the
simulator options (hand-off semantics, continued flooding after delivery).
"""

from __future__ import annotations

import pytest
from oracles.trace_engine import TraceEngine

from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import (
    Message,
    PoissonMessageWorkload,
    default_algorithms,
)
from repro.forwarding.algorithms import algorithm_by_name, algorithm_names
from repro.sim import DesSimulator, ResourceConstraints, UNCONSTRAINED

_SCALE = 0.2
_RATE = 0.01


def _assert_results_equal(reference, candidate, context=""):
    assert candidate.algorithm == reference.algorithm, context
    assert candidate.trace_name == reference.trace_name, context
    assert len(candidate.outcomes) == len(reference.outcomes), context
    for position, (expected, actual) in enumerate(
            zip(reference.outcomes, candidate.outcomes)):
        where = f"{context} message {expected.message.id} (#{position})"
        assert actual.message == expected.message, where
        assert actual.delivered == expected.delivered, where
        assert actual.delivery_time == expected.delivery_time, where
        assert actual.hop_count == expected.hop_count, where
    assert candidate.copies_sent == reference.copies_sent, context


def _workload(trace, seed=11):
    return PoissonMessageWorkload(rate=_RATE).generate(trace, seed=seed)


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_unconstrained_des_equals_trace_simulator(dataset_key):
    """Delivery streams match on every paper stand-in, all six algorithms."""
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace)
    assert messages, "workload must not be empty for the test to mean anything"
    for algorithm_name in algorithm_names():
        reference = TraceEngine(
            trace, algorithm_by_name(algorithm_name)).run(messages)
        candidate = DesSimulator(
            trace, algorithm_by_name(algorithm_name)).run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"{dataset_key} {algorithm_name}")


def test_explicitly_unconstrained_constraints_object():
    """Passing UNCONSTRAINED (or an equivalent instance) changes nothing."""
    trace = load_dataset("infocom06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=5)
    for constraints in (UNCONSTRAINED, ResourceConstraints()):
        assert constraints.is_unconstrained
        reference = TraceEngine(
            trace, algorithm_by_name("Epidemic")).run(messages)
        candidate = DesSimulator(trace, algorithm_by_name("Epidemic"),
                                 constraints=constraints).run(messages)
        _assert_results_equal(reference, candidate, context="explicit")


def test_equivalence_with_handoff_semantics():
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=21)
    for algorithm_name in ("Epidemic", "Greedy", "Dynamic Programming"):
        reference = TraceEngine(trace, algorithm_by_name(algorithm_name),
                                copy_semantics="handoff").run(messages)
        candidate = DesSimulator(trace, algorithm_by_name(algorithm_name),
                                 copy_semantics="handoff").run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"handoff {algorithm_name}")


def test_equivalence_without_stop_on_delivery():
    """Continued flooding after delivery must match too."""
    trace = load_dataset("infocom06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=31)
    for algorithm_name in ("Epidemic", "FRESH"):
        reference = TraceEngine(trace, algorithm_by_name(algorithm_name),
                                stop_on_delivery=False).run(messages)
        candidate = DesSimulator(trace, algorithm_by_name(algorithm_name),
                                 stop_on_delivery=False).run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"no-stop {algorithm_name}")


def test_equivalence_zero_duration_and_simultaneous_contacts():
    """Adversarial timing: zero-duration contacts, shared instants, a
    message created exactly when a contact ends."""
    contacts = [
        Contact(0.0, 0.0, 0, 1),    # zero-duration sighting at t=0
        Contact(0.0, 30.0, 1, 2),
        Contact(10.0, 10.0, 2, 3),  # zero-duration while 1-2 active
        Contact(10.0, 40.0, 0, 3),
        Contact(40.0, 50.0, 3, 4),  # starts as 0-3 ends
        Contact(50.0, 60.0, 0, 4),
    ]
    trace = ContactTrace(contacts, nodes=range(5), duration=80.0, name="adv")
    messages = [
        Message(id=0, source=0, destination=4, creation_time=0.0),
        Message(id=1, source=0, destination=2, creation_time=10.0),
        Message(id=2, source=1, destination=3, creation_time=30.0),  # at 1-2 end
        Message(id=3, source=2, destination=0, creation_time=40.0),
    ]
    for algorithm in default_algorithms():
        reference = TraceEngine(trace, algorithm).run(messages)
        candidate = DesSimulator(trace, algorithm_by_name(algorithm.name)).run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"adversarial {algorithm.name}")


def test_equivalence_overlapping_pair_contacts():
    """Overlapping contacts of the same pair (reference counting)."""
    contacts = [
        Contact(0.0, 40.0, 0, 1),
        Contact(10.0, 20.0, 0, 1),   # nested duplicate
        Contact(15.0, 60.0, 1, 2),
        Contact(30.0, 35.0, 2, 3),
    ]
    trace = ContactTrace(contacts, nodes=range(4), duration=80.0, name="overlap")
    messages = [Message(id=0, source=0, destination=3, creation_time=5.0),
                Message(id=1, source=3, destination=0, creation_time=25.0)]
    for algorithm in default_algorithms():
        reference = TraceEngine(trace, algorithm).run(messages)
        candidate = DesSimulator(trace, algorithm_by_name(algorithm.name)).run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"overlap {algorithm.name}")


def test_message_size_override_alone_keeps_equivalence():
    """message_size without buffers/bandwidth/ttl has no observable effect."""
    trace = load_dataset("conext06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=41)
    constraints = ResourceConstraints(message_size=1e9)
    assert constraints.is_unconstrained
    reference = TraceEngine(trace, algorithm_by_name("Epidemic")).run(messages)
    candidate = DesSimulator(trace, algorithm_by_name("Epidemic"),
                             constraints=constraints).run(messages)
    _assert_results_equal(reference, candidate, context="size-override")
