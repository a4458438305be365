"""Unit tests for the trace-driven forwarding simulator (repro.forwarding.simulator)."""

from __future__ import annotations

import pytest
from oracles.trace_engine import TraceEngine

from repro.contacts import Contact, ContactTrace
from repro.forwarding import (
    EpidemicForwarding,
    ForwardingSimulator,
    FreshForwarding,
    GreedyTotalForwarding,
    Message,
    simulate,
)
from repro.sim import DesSimulator, VectorSimulator


@pytest.fixture
def chain_trace() -> ContactTrace:
    return ContactTrace(
        [Contact(0.0, 10.0, 0, 1),
         Contact(30.0, 40.0, 1, 2),
         Contact(60.0, 70.0, 2, 3)],
        nodes=range(4), duration=100.0,
    )


def _message(source, destination, t=0.0, mid=0):
    return Message(id=mid, source=source, destination=destination, creation_time=t)


class NeverForward(EpidemicForwarding):
    """Epidemic with its verdict overridden: never hand over a copy."""

    name = "Never"

    def vector_approvals(self, carrier, peer, messages, now, history):
        return [False] * len(messages)


class TestEpidemicDelivery:
    def test_delivers_along_chain(self, chain_trace):
        result = simulate(chain_trace, EpidemicForwarding(), [_message(0, 3)])
        outcome = result.outcomes[0]
        assert outcome.delivered
        assert outcome.delivery_time == pytest.approx(60.0)
        assert outcome.delay == pytest.approx(60.0)
        assert outcome.hop_count == 3

    def test_direct_delivery_at_contact_start(self, chain_trace):
        result = simulate(chain_trace, EpidemicForwarding(), [_message(0, 1)])
        assert result.outcomes[0].delivery_time == pytest.approx(0.0)

    def test_message_created_during_active_contact_delivers_immediately(self):
        trace = ContactTrace([Contact(0.0, 100.0, 0, 1)], duration=200.0)
        result = simulate(trace, EpidemicForwarding(), [_message(0, 1, t=50.0)])
        outcome = result.outcomes[0]
        assert outcome.delivered
        assert outcome.delivery_time == pytest.approx(50.0)

    def test_undelivered_when_no_route(self, chain_trace):
        result = simulate(chain_trace, EpidemicForwarding(), [_message(0, 3, t=50.0)])
        outcome = result.outcomes[0]
        assert not outcome.delivered
        assert outcome.delay is None
        assert outcome.hop_count is None

    def test_relays_within_simultaneous_contacts(self, dense_burst_trace):
        # Message created before the burst: during the burst every node is in
        # contact with every other, so the message reaches its destination at
        # the burst start through instantaneous relaying.
        result = simulate(dense_burst_trace, EpidemicForwarding(), [_message(0, 3, t=0.0)])
        assert result.outcomes[0].delivery_time == pytest.approx(100.0)

    def test_minimal_progress_overrides_algorithm(self, chain_trace):
        """Even an algorithm that never forwards delivers on direct contact
        with the destination."""

        result = simulate(chain_trace, NeverForward(), [_message(0, 1)])
        assert result.outcomes[0].delivered

    def test_overridden_verdict_binds_every_engine(self, chain_trace):
        """A subclass of a registered protocol that overrides the verdict
        is judged by that override in DES, the vector kernel and the
        trace-driven oracle alike: on a chain that needs a relay, nothing
        is delivered and no copy moves."""
        messages = [_message(0, 2), _message(1, 3, mid=1)]
        streams = [
            [(o.message.id, o.delivered, o.delivery_time, o.hop_count)
             for o in engine(chain_trace, NeverForward()).run(
                 messages).outcomes]
            for engine in (DesSimulator, VectorSimulator, TraceEngine)]
        assert streams[0] == streams[1] == streams[2] == [
            (0, False, None, None), (1, False, None, None)]

    def test_multiple_messages_tracked_independently(self, chain_trace):
        messages = [_message(0, 3, 0.0, mid=0), _message(2, 3, 0.0, mid=1),
                    _message(3, 0, 0.0, mid=2)]
        result = simulate(chain_trace, EpidemicForwarding(), messages)
        assert result.num_messages == 3
        assert result.outcome_for(0).delivered
        assert result.outcome_for(1).delivered
        assert not result.outcome_for(2).delivered


class TestSelectiveAlgorithms:
    def test_fresh_blocks_relay_without_history(self, chain_trace):
        # Node 1 has never met node 3 when it encounters the carrier, so
        # FRESH refuses the relay and the message never gets beyond 0.
        result = simulate(chain_trace, FreshForwarding(), [_message(0, 3)])
        assert not result.outcomes[0].delivered

    def test_fresh_uses_observed_history(self):
        # 1 meets the destination early, so when the source later meets 1,
        # FRESH hands the message over; 1 meets the destination again and
        # delivers.
        trace = ContactTrace(
            [Contact(0.0, 10.0, 1, 3),
             Contact(30.0, 40.0, 0, 1),
             Contact(60.0, 70.0, 1, 3)],
            nodes=range(4), duration=100.0,
        )
        result = simulate(trace, FreshForwarding(),
                          [Message(id=0, source=0, destination=3, creation_time=20.0)])
        outcome = result.outcomes[0]
        assert outcome.delivered
        assert outcome.delivery_time == pytest.approx(60.0)
        assert outcome.hop_count == 2

    def test_greedy_total_pushes_toward_hub(self, star_trace):
        algorithm = GreedyTotalForwarding()
        message = Message(id=0, source=1, destination=2, creation_time=0.0)
        result = simulate(star_trace, algorithm, [message])
        outcome = result.outcomes[0]
        assert outcome.delivered
        assert outcome.hop_count == 2  # 1 -> hub -> 2

    def test_epidemic_at_least_as_good_as_fresh(self, small_conference_trace):
        from repro.core import random_messages
        from repro.forwarding import messages_from_tuples

        messages = messages_from_tuples(
            random_messages(small_conference_trace, 30, seed=8))
        epidemic = simulate(small_conference_trace, EpidemicForwarding(), messages)
        fresh = simulate(small_conference_trace, FreshForwarding(), messages)
        assert epidemic.success_rate() >= fresh.success_rate()
        for outcome_e, outcome_f in zip(epidemic.outcomes, fresh.outcomes):
            if outcome_f.delivered:
                assert outcome_e.delivered
                assert outcome_e.delivery_time <= outcome_f.delivery_time + 1e-9


class TestCopySemantics:
    def test_handoff_mode_single_copy(self, dense_burst_trace):
        # In hand-off mode the source relinquishes its copy; the message can
        # still reach the destination but only one node holds it at a time.
        result = simulate(dense_burst_trace, EpidemicForwarding(),
                          [_message(0, 3, t=0.0)], copy_semantics="handoff")
        assert result.outcomes[0].delivered

    def test_invalid_copy_semantics(self, dense_burst_trace):
        with pytest.raises(ValueError):
            ForwardingSimulator(dense_burst_trace, EpidemicForwarding(),
                                copy_semantics="multicast")


class TestValidationAndResults:
    def test_rejects_unknown_endpoints(self, chain_trace):
        simulator = ForwardingSimulator(chain_trace, EpidemicForwarding())
        with pytest.raises(ValueError):
            simulator.run([_message(0, 99)])
        with pytest.raises(ValueError):
            simulator.run([_message(99, 0)])

    def test_success_rate_and_average_delay(self, chain_trace):
        messages = [_message(0, 3, 0.0, mid=0), _message(3, 0, 0.0, mid=1)]
        result = simulate(chain_trace, EpidemicForwarding(), messages)
        assert result.success_rate() == pytest.approx(0.5)
        assert result.average_delay() == pytest.approx(60.0)

    def test_empty_message_list(self, chain_trace):
        result = simulate(chain_trace, EpidemicForwarding(), [])
        assert result.num_messages == 0
        assert result.success_rate() == 0.0
        assert result.average_delay() is None

    def test_result_metadata(self, chain_trace):
        result = simulate(chain_trace, EpidemicForwarding(), [_message(0, 1)])
        assert result.algorithm == "Epidemic"
        assert result.trace_name == chain_trace.name

    def test_outcome_for_unknown_id(self, chain_trace):
        result = simulate(chain_trace, EpidemicForwarding(), [_message(0, 1)])
        assert result.outcome_for(123) is None

    def test_stop_on_delivery_does_not_change_metrics(self, small_conference_trace):
        from repro.core import random_messages
        from repro.forwarding import messages_from_tuples

        messages = messages_from_tuples(
            random_messages(small_conference_trace, 15, seed=3))
        eager = simulate(small_conference_trace, EpidemicForwarding(), messages,
                         stop_on_delivery=True)
        full = simulate(small_conference_trace, EpidemicForwarding(), messages,
                        stop_on_delivery=False)
        assert eager.success_rate() == full.success_rate()
        assert eager.delays() == full.delays()
