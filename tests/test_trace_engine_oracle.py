"""The public forwarding simulator against the trace-driven oracle.

:class:`repro.forwarding.ForwardingSimulator` and :func:`simulate` run on
the vector kernel; the trace-driven replay they used to run lives on in
``tests/oracles/trace_engine.py``.  A generated-input differential pins
the two together on small random traces for every registered protocol,
both copy semantics and both ``stop_on_delivery`` settings: same
outcomes (delivery, first-delivery time, hop count) and the same
``copies_sent``.  Times are drawn from a coarse grid so that contact
starts, ends and message creations collide, which exercises the event
tie order and the zero-time relay; some messages carry a ``ttl``, which
the paper's model (and so the public simulator) ignores.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.trace_engine import TraceEngine

from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import (
    ForwardingSimulator,
    Message,
    PoissonMessageWorkload,
    simulate,
)
from repro.forwarding.algorithms import algorithm_by_name
from repro.obs import EngineTelemetry
from repro.routing import protocol_by_name, protocol_names

_NODES = 6
#: event times are multiples of this, 0..200 s, so ties are common
_GRID = 10.0


@st.composite
def traces(draw):
    contacts = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        a = draw(st.integers(min_value=0, max_value=_NODES - 1))
        b = (a + draw(st.integers(min_value=1, max_value=_NODES - 1))) % _NODES
        start = _GRID * draw(st.integers(min_value=0, max_value=20))
        length = _GRID * draw(st.integers(min_value=0, max_value=4))
        contacts.append(Contact(start, start + length, a, b))
    return ContactTrace(contacts, nodes=range(_NODES), duration=300.0,
                        name="generated")


@st.composite
def workloads(draw):
    messages = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        source = draw(st.integers(min_value=0, max_value=_NODES - 1))
        destination = (source + draw(st.integers(min_value=1,
                                                 max_value=_NODES - 1))) % _NODES
        created = _GRID * draw(st.integers(min_value=0, max_value=20))
        # the paper's model ignores a message's ttl; the public simulator
        # must too, although the kernel under it honours one
        ttl = draw(st.sampled_from([None, None, 5.0, 30.0]))
        messages.append(Message(id=index, source=source,
                                destination=destination,
                                creation_time=created, ttl=ttl))
    return messages


def _stream(result):
    return ([(o.message, o.delivered, o.delivery_time, o.hop_count)
             for o in result.outcomes], result.copies_sent)


class TestPublicSimulatorEqualsOracle:
    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), messages=workloads())
    def test_every_protocol_and_option(self, trace, messages):
        for name in protocol_names():
            for copy_semantics in ("copy", "handoff"):
                for stop in (True, False):
                    context = (name, copy_semantics, stop)
                    expected = _stream(TraceEngine(
                        trace, protocol_by_name(name),
                        copy_semantics=copy_semantics,
                        stop_on_delivery=stop).run(messages))
                    public = ForwardingSimulator(
                        trace, protocol_by_name(name),
                        copy_semantics=copy_semantics,
                        stop_on_delivery=stop).run(messages)
                    assert _stream(public) == expected, context
                    assert public.algorithm == name
                    assert public.trace_name == trace.name
                    one_shot = simulate(trace, protocol_by_name(name),
                                        messages,
                                        copy_semantics=copy_semantics,
                                        stop_on_delivery=stop)
                    assert _stream(one_shot) == expected, context


class TestOracleTelemetry:
    def test_oracle_reports_the_trace_engine(self):
        """The oracle keeps its own telemetry label and event counts; the
        public simulator reports the kernel it runs on."""
        trace = load_dataset(PAPER_DATASET_KEYS[0], scale=0.2,
                             contact_scale=0.2)
        messages = PoissonMessageWorkload(rate=0.01).generate(trace, seed=11)
        telemetry = EngineTelemetry(sample_every=8)
        traced = TraceEngine(trace, algorithm_by_name("Epidemic"),
                             telemetry=telemetry).run(messages)
        assert telemetry.engine == "trace"
        assert telemetry.events == 2 * len(trace) + len(messages)
        bare = TraceEngine(trace, algorithm_by_name("Epidemic")).run(messages)
        assert bare.outcomes == traced.outcomes
