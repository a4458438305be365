"""Engine equivalence: the vector kernel vs the DES engine.

Every experiment job runs on the vector kernel, which promises
*delivery-stream equivalence*: the same
delivery set, the same delivery times, the same hop counts, the same copy
counts and the same resource-stat counters as :class:`repro.sim.
DesSimulator` on identical inputs.  This suite enforces that on all four
paper dataset stand-ins for every fast-path protocol, across the
constraint space the kernel handles natively (buffers with all three drop
policies, ttl, message sizes, hand-off semantics, continued flooding),
through the lifecycle-hook fallback for protocols without a fast path,
and through the wholesale delegation to DES for bandwidth/fault
configurations.  Hypothesis drives the timing edge cases: batches of
same-timestamp contacts must tie-break exactly like the DES event heap.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import Message, PoissonMessageWorkload
from repro.obs import JsonlTracer, RecordingTracer
from repro.routing.registry import protocol_by_name, protocol_catalogue, protocol_names
from repro.scenario import GridRandomWaypointTraceSpec
from repro.sim import (
    DesSimulator,
    ResourceConstraints,
    UNCONSTRAINED,
    VectorSimulator,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.sim import vector
from repro.sim.faults import ChannelSpec

_SCALE = 0.15
_RATE = 0.01

FASTPATH_PROTOCOLS = [name for name in protocol_names()
                      if protocol_by_name(name).vector_fastpath]
HOOK_ONLY_PROTOCOLS = [name for name in protocol_names()
                       if not protocol_by_name(name).vector_fastpath]
#: replay chunk sizes: tiny ones put same-timestamp ties across chunk edges
CHUNK_SIZES = st.sampled_from([1, 2, 3, vector._CHUNK])


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
    assert candidate.stats.as_dict() == reference.stats.as_dict(), context


def _run_both(trace, messages, protocol_name, **options):
    reference = DesSimulator(trace, protocol_by_name(protocol_name),
                             **options).run(messages)
    candidate = VectorSimulator(trace, protocol_by_name(protocol_name),
                                **options).run(messages)
    return reference, candidate


def _workload(trace, seed=11):
    return PoissonMessageWorkload(rate=_RATE).generate(trace, seed=seed)


# ----------------------------------------------------------------------
# the paper stand-ins
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
def test_vector_equals_des_on_paper_standins(dataset_key):
    """Delivery streams match on every stand-in, every fast-path protocol."""
    trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace)
    assert messages, "workload must not be empty for the test to mean anything"
    for protocol_name in FASTPATH_PROTOCOLS:
        reference, candidate = _run_both(trace, messages, protocol_name)
        _assert_results_equal(reference, candidate,
                              context=f"{dataset_key} {protocol_name}")


@pytest.mark.parametrize("constraints", [
    ResourceConstraints(buffer_capacity=3.0),
    ResourceConstraints(buffer_capacity=3.0, drop_policy="drop-youngest"),
    ResourceConstraints(buffer_capacity=120.0, message_size=30.0,
                        drop_policy="drop-largest"),
    ResourceConstraints(ttl=900.0),
    ResourceConstraints(buffer_capacity=4.0, ttl=1200.0),
], ids=["drop-oldest", "drop-youngest", "drop-largest", "ttl", "buffer+ttl"])
def test_vector_equals_des_under_native_constraints(constraints):
    """Buffers (all drop policies), sizes and ttl run natively, not via
    delegation — the streams and stat counters must still match."""
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=23)
    for protocol_name in ("Epidemic", "Binary Spray-and-Wait"):
        reference, candidate = _run_both(trace, messages, protocol_name,
                                         constraints=constraints)
        _assert_results_equal(reference, candidate,
                              context=f"{constraints} {protocol_name}")


def test_vector_equals_des_with_handoff_and_no_stop():
    trace = load_dataset("infocom06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=31)
    for options in ({"copy_semantics": "handoff"},
                    {"stop_on_delivery": False},
                    {"copy_semantics": "handoff", "stop_on_delivery": False}):
        for protocol_name in ("Epidemic", "First Contact"):
            reference, candidate = _run_both(trace, messages, protocol_name,
                                             **options)
            _assert_results_equal(reference, candidate,
                                  context=f"{options} {protocol_name}")


def test_vector_falls_back_to_hooks_for_stateful_protocols():
    """Protocols without a fast path (PRoPHET et al.) run through the
    lifecycle-hook API inside the vector kernel — same streams as DES."""
    trace = load_dataset("infocom06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=41)
    assert "PRoPHET" in HOOK_ONLY_PROTOCOLS
    for protocol_name in ("PRoPHET", "Greedy"):
        reference, candidate = _run_both(trace, messages, protocol_name)
        _assert_results_equal(reference, candidate, context=protocol_name)


def test_vector_delegates_bandwidth_and_fault_runs_to_des():
    """Bandwidth/channel constraints delegate wholesale — the vector
    entry point must produce DES's exact results there too."""
    trace = load_dataset("conext06-3-6", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=47)
    for constraints in (
            ResourceConstraints(bandwidth=2.0, message_size=300.0),
            ResourceConstraints(channel=ChannelSpec(loss=0.2, delay=1.0)),
    ):
        reference = DesSimulator(trace, protocol_by_name("Epidemic"),
                                 constraints=constraints, seed=9).run(messages)
        candidate = VectorSimulator(trace, protocol_by_name("Epidemic"),
                                    constraints=constraints, seed=9).run(messages)
        _assert_results_equal(reference, candidate, context=str(constraints))


# ----------------------------------------------------------------------
# hypothesis: timing edge cases
# ----------------------------------------------------------------------
@st.composite
def tie_heavy_workloads(draw):
    """A small trace plus messages whose timestamps all land on a coarse
    grid, so same-instant contact starts/ends/creations are the norm."""
    num_nodes = draw(st.integers(min_value=3, max_value=8))
    contacts = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        a = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=num_nodes - 2))
        if b >= a:
            b += 1
        start = 10.0 * draw(st.integers(min_value=0, max_value=8))
        length = 10.0 * draw(st.integers(min_value=0, max_value=3))
        contacts.append(Contact(start, start + length, a, b))
    messages = []
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        source = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        destination = draw(st.integers(min_value=0, max_value=num_nodes - 2))
        if destination >= source:
            destination += 1
        messages.append(Message(
            id=index, source=source, destination=destination,
            creation_time=10.0 * draw(st.integers(min_value=0, max_value=10)),
            ttl=draw(st.sampled_from([None, 20.0, 40.0]))))
    trace = ContactTrace(contacts, nodes=range(num_nodes), duration=120.0,
                         name="hyp")
    return trace, messages


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=tie_heavy_workloads(),
       protocol_name=st.sampled_from(FASTPATH_PROTOCOLS),
       copy_semantics=st.sampled_from(["copy", "handoff"]),
       stop_on_delivery=st.booleans(),
       uniform=st.booleans(),
       sizes=st.lists(st.sampled_from([0.1, 0.7, 1.0, 2.5]),
                      min_size=6, max_size=6),
       chunk=CHUNK_SIZES)
def test_same_timestamp_batches_tie_break_like_the_des_heap(
        payload, protocol_name, copy_semantics, stop_on_delivery, uniform,
        sizes, chunk):
    """Simultaneous contact starts/ends and creations must process in the
    DES event-heap order — deliveries, hops, copies and every stat counter
    agree for every fast-path protocol, on both sides of the flood gate
    (copy or hand-off, with or without stop-on-delivery, one message size
    or mixed sizes), whichever replay chunk a tie straddles."""
    trace, messages = payload
    messages = [dataclasses.replace(m, size=sizes[0] if uniform else size)
                for m, size in zip(messages, sizes)]
    with mock.patch.object(vector, "_CHUNK", chunk):
        reference, candidate = _run_both(
            trace, messages, protocol_name, copy_semantics=copy_semantics,
            stop_on_delivery=stop_on_delivery)
    _assert_results_equal(reference, candidate, context=protocol_name)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=tie_heavy_workloads(), chunk=CHUNK_SIZES)
def test_hook_fallback_agrees_with_des_on_random_workloads(payload, chunk):
    """The lifecycle-hook fallback path, property-tested on a protocol
    with real inter-contact state, at every replay chunk size."""
    trace, messages = payload
    with mock.patch.object(vector, "_CHUNK", chunk):
        reference, candidate = _run_both(trace, messages, "PRoPHET")
    _assert_results_equal(reference, candidate, context="PRoPHET")


@pytest.fixture(scope="module")
def short_ttl_city():
    """A seeded 300-node ``rwp-grid`` city whose messages expire after
    spreading: every expiry scans a hop column that holds many copies."""
    trace = GridRandomWaypointTraceSpec(
        num_nodes=300, duration=1800.0, width=600.0, height=600.0,
        radio_range=20.0, name="city-300").build(seed=5)
    messages = PoissonMessageWorkload(
        rate=0.05, generation_window=(0.0, 600.0)).generate(trace, seed=5)
    return trace, messages


@pytest.mark.parametrize("protocol_name, options, code_path", [
    ("Epidemic", {}, "flood"),
    ("Epidemic", {"copy_semantics": "handoff"}, "fastpath"),
    ("Source Spray-and-Wait", {}, "flood"),
    ("PRoPHET", {}, "hook"),
    ("Epidemic", {"buffer_capacity": 3.0}, "fastpath"),
], ids=["flood", "handoff", "spray", "prophet", "buffer"])
def test_city_expiry_and_eviction_over_hop_columns_match_des(
        short_ttl_city, protocol_name, options, code_path):
    """Expiry finds its holders by scanning the message's hop column, and
    hand-off and eviction clear entries in it: at city scale every path
    must still equal DES, stream and every ``ResourceStats`` counter."""
    trace, messages = short_ttl_city
    options = dict(options)
    copy_semantics = options.pop("copy_semantics", "copy")
    constraints = ResourceConstraints(ttl=300.0, **options)
    reference = DesSimulator(
        trace, protocol_by_name(protocol_name), constraints=constraints,
        copy_semantics=copy_semantics).run(messages)
    simulator = VectorSimulator(
        trace, protocol_by_name(protocol_name), constraints=constraints,
        copy_semantics=copy_semantics)
    candidate = simulator.run(messages)
    assert simulator.code_path == code_path
    _assert_results_equal(reference, candidate, context=protocol_name)
    assert candidate.stats.expired_copies > 0
    if "buffer_capacity" in options:
        assert candidate.stats.buffer_evictions > 0


# ----------------------------------------------------------------------
# tracing, catalogue, plumbing
# ----------------------------------------------------------------------
def test_traced_vector_run_is_byte_identical_to_des(tmp_path):
    """The buffered tracer preserves the exact event stream: JSONL files
    from both engines match byte for byte on the fast path, the hook path
    and with finite buffers, also when the replay loop walks the timeline
    one event per chunk."""
    trace = load_dataset("conext06-9-12", scale=_SCALE, contact_scale=_SCALE)
    messages = _workload(trace, seed=53)
    for protocol_name, options in (("Epidemic", {}), ("PRoPHET", {}),
                                   ("Greedy", {"buffer_capacity": 4.0})):
        constraints = ResourceConstraints(**options)
        des_path = tmp_path / f"des-{protocol_name}.jsonl"
        with JsonlTracer(des_path) as tracer:
            DesSimulator(trace, protocol_by_name(protocol_name),
                         constraints=constraints, tracer=tracer).run(messages)
        for chunk in (vector._CHUNK, 1):
            vec_path = tmp_path / f"vec-{protocol_name}-{chunk}.jsonl"
            with mock.patch.object(vector, "_CHUNK", chunk), \
                    JsonlTracer(vec_path) as tracer:
                VectorSimulator(trace, protocol_by_name(protocol_name),
                                constraints=constraints,
                                tracer=tracer).run(messages)
            assert des_path.read_bytes() == vec_path.read_bytes(), (
                protocol_name, chunk)


def test_code_path_reports_the_gate_each_run_takes():
    """``code_path`` names the path ``run()`` chose: the message-parallel
    flood only when the order across messages cannot be observed."""
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1), Contact(5.0, 30.0, 1, 2)],
                         nodes=range(3), duration=60.0, name="tiny")
    messages = [Message(id=0, source=0, destination=2, creation_time=0.0),
                Message(id=1, source=2, destination=0, creation_time=1.0)]
    mixed = [dataclasses.replace(messages[0], size=0.5), messages[1]]

    def path(protocol_name="Epidemic", runs=messages, **options):
        simulator = VectorSimulator(trace, protocol_by_name(protocol_name),
                                    **options)
        assert simulator.code_path is None
        simulator.run(runs)
        return simulator.code_path

    assert path() == "flood"
    assert path(runs=mixed,
                constraints=ResourceConstraints(message_size=2.0)) == "flood"
    assert path("Binary Spray-and-Wait", stop_on_delivery=False) == "flood"
    assert path(copy_semantics="handoff") == "fastpath"
    assert path(runs=mixed) == "fastpath"
    assert path(constraints=ResourceConstraints(buffer_capacity=5.0)) == \
        "fastpath"
    assert path(tracer=RecordingTracer()) == "fastpath"
    assert path("PRoPHET") == "hook"
    assert path(constraints=ResourceConstraints(bandwidth=2.0)) == "delegate"


@pytest.fixture(scope="module")
def memory_city():
    """A 4000-node city with 20 messages, and its timeline's event count."""
    trace = GridRandomWaypointTraceSpec(
        num_nodes=4000, duration=600.0, width=2000.0, height=2000.0,
        name="memory").build(seed=3)
    nodes = sorted(trace.nodes)
    messages = [Message(id=i, source=nodes[i], destination=nodes[-1 - i],
                        creation_time=float(i)) for i in range(20)]
    events = 2 * len(trace) + len(messages)
    assert events >= 10 * vector._CHUNK
    return trace, messages, events


def _traced_peak_per_event(memory_city, protocol_name):
    trace, messages, events = memory_city
    simulator = VectorSimulator(trace, protocol_by_name(protocol_name))
    gc.collect()
    tracemalloc.start()
    try:
        simulator.run(messages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / events


def test_timeline_peak_memory_per_event_stays_compact(memory_city):
    """The replay keeps the timeline in four compact numpy columns and
    builds Python scalars one chunk at a time.  Direct Delivery lands no
    copies, so the run's traced peak is the timeline: about 66 B per event
    here, where whole-run Python lists took about 235 B."""
    per_event = _traced_peak_per_event(memory_city, "Direct Delivery")
    assert per_event < 150.0, f"{per_event:.1f} B/event"


def test_flood_holdings_stay_out_of_the_per_event_budget(memory_city):
    """The flood keeps each message's holdings in one hop column (4 B per
    node), so flooding every copy across the city adds only a few bytes
    per event to Direct Delivery's peak; per-message holder dicts added
    about 23 B."""
    epidemic = _traced_peak_per_event(memory_city, "Epidemic")
    direct = _traced_peak_per_event(memory_city, "Direct Delivery")
    assert epidemic - direct < 8.0, \
        f"Epidemic {epidemic:.1f} vs Direct Delivery {direct:.1f} B/event"


def test_protocol_catalogue_reports_vector_support():
    rows = protocol_catalogue()
    by_name = {row["protocol"]: row["vector"] for row in rows}
    assert by_name["Epidemic"] == "fast-path"
    assert by_name["Binary Spray-and-Wait"] == "fast-path"
    assert by_name["PRoPHET"] != "fast-path"


def test_experiment_spec_rejects_unknown_engine_naming_vector():
    from repro.exp import ExperimentSpec

    with pytest.raises(ValueError, match="vector kernel"):
        ExperimentSpec(name="x", scenarios=("paper-ideal",), engine="warp")


def test_run_scenario_with_vector_engine_matches_des():
    """``run_scenario`` runs every job on the vector kernel; each run
    equals the DES engine replaying the same trace and workload."""
    scenario = get_scenario("rwp-courtyard")
    result = run_scenario(scenario)
    trace = scenario.build_trace()
    for run_index in range(scenario.num_runs):
        messages = scenario.build_messages(trace, run_index)
        for name in scenario.algorithms:
            reference = DesSimulator(
                trace, protocol_by_name(name),
                constraints=scenario.constraints,
                copy_semantics=scenario.copy_semantics,
                seed=scenario.seed).run(messages)
            _assert_results_equal(reference, result.results[name][run_index],
                                  context=f"{name} run {run_index}")


@pytest.mark.parametrize("scenario_name", [
    name for name in scenario_names() if not name.startswith("rwp-city")])
def test_vector_equals_des_across_the_catalogue(scenario_name):
    """Every experiment job runs on the vector kernel: on every non-city
    catalogue scenario (constraints, channel and churn included) it must
    equal the DES engine for every registered protocol."""
    scenario = get_scenario(scenario_name)
    trace = scenario.build_trace()
    messages = scenario.build_messages(trace, 0)
    assert messages, "workload must not be empty for the test to mean anything"
    for protocol_name in protocol_names():
        reference, candidate = _run_both(
            trace, messages, protocol_name,
            constraints=scenario.constraints,
            copy_semantics=scenario.copy_semantics, seed=scenario.seed)
        _assert_results_equal(reference, candidate,
                              context=f"{scenario_name} {protocol_name}")


def test_simulate_vector_one_shot_wrapper():
    trace = ContactTrace([Contact(0.0, 10.0, 0, 1), Contact(20.0, 30.0, 1, 2)],
                         nodes=range(3), duration=60.0, name="tiny")
    messages = [Message(id=0, source=0, destination=2, creation_time=0.0)]
    result = VectorSimulator(trace, protocol_by_name("Epidemic")).run(messages)
    assert result.outcomes[0].delivered
    assert result.outcomes[0].delivery_time == 20.0
    assert result.outcomes[0].hop_count == 2


# ----------------------------------------------------------------------
# the columnar trace view the kernel builds on
# ----------------------------------------------------------------------
def test_contact_trace_as_arrays_matches_contacts_and_caches():
    import numpy as np

    contacts = [Contact(5.0, 15.0, 2, 0), Contact(0.0, 10.0, 1, 3),
                Contact(0.0, 0.0, 0, 3)]
    trace = ContactTrace(contacts, nodes=range(4), duration=60.0, name="a")
    starts, ends, a, b = trace.as_arrays()
    # columns follow the trace's canonical (start, end, a, b) sort order
    assert starts.tolist() == [c.start for c in trace]
    assert ends.tolist() == [c.end for c in trace]
    assert a.tolist() == [c.a for c in trace]
    assert b.tolist() == [c.b for c in trace]
    assert np.all(a <= b)  # Contact stores endpoints canonically
    # built once, then cached
    assert trace.as_arrays()[0] is starts
