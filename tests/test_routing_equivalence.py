"""Cross-engine equivalence for the protocol zoo.

Mirrors ``tests/test_sim_equivalence.py`` for the new stateful protocols:
every protocol must produce *identical* delivery streams — deliveries,
first-delivery times, hop counts and total copy counts — in the
trace-driven oracle (``tests/oracles/trace_engine.py``) and the
unconstrained :class:`~repro.sim.DesSimulator` on the four paper dataset
stand-ins.  It also pins the six paper algorithms: the protocol registry
hands out their own classes (there is no wrapper), and each produces the
same stream in both engines.
"""

from __future__ import annotations

import pytest
from oracles.trace_engine import TraceEngine

from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import PoissonMessageWorkload
from repro.forwarding.algorithms import algorithm_by_name, algorithm_names
from repro.routing import NEW_PROTOCOL_NAMES, protocol_by_name
from repro.sim import DesSimulator

_SCALE = 0.2
_RATE = 0.01


def _assert_results_equal(reference, candidate, context=""):
    assert candidate.algorithm == reference.algorithm, context
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
def test_new_protocols_identical_across_engines(dataset_key):
    """Every zoo protocol: trace-driven == unconstrained DES streams."""
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace)
    assert messages, "workload must not be empty for the test to mean anything"
    for protocol_name in NEW_PROTOCOL_NAMES:
        reference = TraceEngine(
            trace, protocol_by_name(protocol_name)).run(messages)
        candidate = DesSimulator(
            trace, protocol_by_name(protocol_name)).run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"{dataset_key} {protocol_name}")


@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS[:1])
def test_paper_algorithms_unchanged_under_wrapper(dataset_key):
    """The registry returns each paper algorithm's own class, unwrapped,
    and the trace-driven and DES engines agree on its stream."""
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=17)
    for name in algorithm_names():
        assert type(algorithm_by_name(name)) is type(protocol_by_name(name)), \
            name
        reference = TraceEngine(
            trace, algorithm_by_name(name)).run(messages)
        des = DesSimulator(trace, protocol_by_name(name)).run(messages)
        _assert_results_equal(reference, des, context=f"des {name}")


def test_new_protocols_identical_without_stop_on_delivery():
    """Continued propagation after delivery must match too."""
    trace = load_dataset("infocom06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=31)
    for protocol_name in ("Binary Spray-and-Wait", "PRoPHET", "Hypergossip"):
        reference = TraceEngine(trace, protocol_by_name(protocol_name),
                                stop_on_delivery=False).run(messages)
        candidate = DesSimulator(trace, protocol_by_name(protocol_name),
                                 stop_on_delivery=False).run(messages)
        _assert_results_equal(reference, candidate,
                              context=f"no-stop {protocol_name}")


def test_new_protocols_are_run_reproducible():
    """Two runs of the same protocol instance give the same stream (state
    resets through prepare), and a fresh registry instance agrees."""
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=23)
    for protocol_name in NEW_PROTOCOL_NAMES:
        protocol = protocol_by_name(protocol_name)
        first = TraceEngine(trace, protocol).run(messages)
        second = TraceEngine(trace, protocol).run(messages)
        fresh = TraceEngine(
            trace, protocol_by_name(protocol_name)).run(messages)
        _assert_results_equal(first, second, context=f"rerun {protocol_name}")
        _assert_results_equal(first, fresh, context=f"fresh {protocol_name}")
