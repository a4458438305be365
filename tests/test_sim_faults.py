"""The fault-injection layer: lossy/latency channels and node churn.

Three guarantees are pinned here.  First, *null faults change nothing*: a
``ChannelSpec`` with zero loss/delay/jitter (and a null ``ChurnSpec``)
leaves the DES engine delivery-stream-identical to the trace-driven
oracle on every paper stand-in — the fault layer is provably dormant
when disabled.  Second, *faults are seeded environment properties*: the
loss draws and crash schedules derive from the scenario's master seed, so
serial, parallel and resumed executions of a lossy grid agree result for
result.  Third, the *mechanics* are exact on hand-built traces: delay
shifts arrivals, loss consumes bytes and retransmits with capped
exponential backoff only while the contact lasts, and a crash wipes the
node's buffer and truncates its open contacts.
"""

from __future__ import annotations

import pytest
from oracles.trace_engine import TraceEngine

from repro.contacts import Contact, ContactTrace
from repro.datasets import PAPER_DATASET_KEYS, load_dataset
from repro.forwarding import Message, PoissonMessageWorkload
from repro.forwarding.algorithms import algorithm_by_name
from repro.sim import (
    ChannelSpec,
    ChurnSpec,
    DesSimulator,
    ResourceConstraints,
)

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


def _two_node_trace(*windows):
    contacts = [Contact(start=start, end=end, a="a", b="b")
                for start, end in windows]
    return ContactTrace(contacts, name="two-node")


def _message(creation_time=0.0, size=1.0, ttl=None, id="m1"):
    return Message(id=id, source="a", destination="b",
                   creation_time=creation_time, size=size, ttl=ttl)


# ----------------------------------------------------------------------
# null faults are exactly no faults
# ----------------------------------------------------------------------
class TestNullFaultEquivalence:
    @pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
    def test_zero_channel_matches_trace_simulator(self, dataset_key):
        """loss=0, delay=0, jitter=0 is delivery-stream-identical to the
        engine without any channel on all four paper stand-ins."""
        trace = load_dataset(dataset_key, scale=_SCALE, contact_scale=_SCALE)
        messages = list(PoissonMessageWorkload(rate=_RATE)
                        .generate(trace, seed=11))
        assert messages
        constraints = ResourceConstraints(
            channel=ChannelSpec(loss=0.0, delay=0.0, jitter=0.0),
            churn=ChurnSpec(crash_rate=0.0))
        reference = TraceEngine(
            trace, algorithm_by_name("Epidemic")).run(messages)
        candidate = DesSimulator(trace, algorithm_by_name("Epidemic"),
                                 constraints=constraints,
                                 seed=11).run(messages)
        _assert_results_equal(reference, candidate, context=dataset_key)

    def test_null_specs_leave_constraints_unconstrained(self):
        constraints = ResourceConstraints(
            channel=ChannelSpec(), churn=ChurnSpec())
        assert constraints.channel.is_null
        assert constraints.churn.is_null
        assert constraints.active_channel is None
        assert constraints.active_churn is None
        assert constraints.is_unconstrained

    def test_active_specs_constrain(self):
        assert not ResourceConstraints(
            channel=ChannelSpec(loss=0.1)).is_unconstrained
        assert not ResourceConstraints(
            churn=ChurnSpec(crash_rate=0.001)).is_unconstrained

    def test_to_dict_omits_null_fault_fields(self):
        """Pre-fault serializations (golden fixtures, stored records) keep
        their byte-exact shape when no fault specs are set."""
        payload = ResourceConstraints(ttl=900.0).to_dict()
        assert "channel" not in payload and "churn" not in payload
        rebuilt = ResourceConstraints.from_dict(payload)
        assert rebuilt.channel is None and rebuilt.churn is None

    def test_fault_specs_round_trip(self):
        constraints = ResourceConstraints(
            channel=ChannelSpec(loss=0.25, delay=1.5, jitter=0.5,
                                retx_limit=3),
            churn=ChurnSpec(crash_rate=0.001, mean_downtime=120.0))
        rebuilt = ResourceConstraints.from_dict(constraints.to_dict())
        assert rebuilt == constraints


# ----------------------------------------------------------------------
# seeded determinism
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    def _run(self, seed, loss=0.3, crash_rate=0.0005):
        trace = load_dataset("infocom05", scale=_SCALE, contact_scale=_SCALE)
        messages = list(PoissonMessageWorkload(rate=_RATE)
                        .generate(trace, seed=seed))
        constraints = ResourceConstraints(
            channel=ChannelSpec(loss=loss),
            churn=ChurnSpec(crash_rate=crash_rate))
        return DesSimulator(trace, algorithm_by_name("Epidemic"),
                            constraints=constraints, seed=seed).run(messages)

    def test_same_seed_same_faults(self):
        first, second = self._run(7), self._run(7)
        _assert_results_equal(first, second, context="same seed")
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.stats.lost_transfers > 0

    def test_different_seed_different_faults(self):
        first, other = self._run(7), self._run(8)
        assert (first.stats.lost_transfers, first.stats.node_crashes) != \
            (other.stats.lost_transfers, other.stats.node_crashes) or \
            [o.delivered for o in first.outcomes] != \
            [o.delivered for o in other.outcomes]

    def test_lossy_grid_serial_parallel_resumed_agree(self, tmp_path):
        """The same lossy jobs decode identically whether simulated
        serially, over the pool, or served back from the store."""
        from repro.exp import ExperimentSpec, run_experiment
        from repro.scenario.traces import DatasetTraceSpec
        from repro.sim.scenarios import Scenario

        scenario = Scenario(
            name="lossy-determinism",
            description="lossy channel determinism probe",
            trace=DatasetTraceSpec(key="infocom05", scale=_SCALE,
                                   contact_scale=_SCALE),
            workload=PoissonMessageWorkload(rate=_RATE),
            constraints=ResourceConstraints(
                channel=ChannelSpec(loss=0.3, delay=1.0, jitter=0.5),
                churn=ChurnSpec(crash_rate=0.0005)),
            algorithms=("Epidemic",))
        spec = ExperimentSpec(name="lossy-determinism",
                              scenarios=(scenario,),
                              protocols=("Epidemic", "Direct Delivery"),
                              seeds=(7, 8))
        serial = run_experiment(spec)
        parallel = run_experiment(spec, workers=2)
        store = str(tmp_path / "results")
        run_experiment(spec, store=store)
        resumed = run_experiment(spec, store=store)
        assert resumed.num_executed == 0 and resumed.num_reused == 4
        assert serial.outcome.results == parallel.outcome.results
        assert serial.outcome.results == resumed.outcome.results
        stats = next(iter(serial.outcome.results.values())).stats
        assert stats.lost_transfers > 0


# ----------------------------------------------------------------------
# channel mechanics on hand-built traces
# ----------------------------------------------------------------------
class TestChannelMechanics:
    def test_delay_shifts_delivery(self):
        trace = _two_node_trace((0.0, 100.0))
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(
                channel=ChannelSpec(delay=2.5)),
            seed=1).run([_message(creation_time=1.0)])
        outcome = result.outcomes[0]
        assert outcome.delivered
        assert outcome.delivery_time == pytest.approx(3.5)

    def test_delayed_reception_survives_contact_end(self):
        """OWLT semantics: a transfer launched in-contact completes even if
        the contact has ended by the arrival instant."""
        trace = _two_node_trace((0.0, 2.0))
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(
                channel=ChannelSpec(delay=10.0)),
            seed=1).run([_message(creation_time=0.5)])
        outcome = result.outcomes[0]
        assert outcome.delivered
        assert outcome.delivery_time == pytest.approx(10.5)

    def test_total_loss_without_retransmission_window(self):
        """A contact too short for the backoff ladder delivers nothing."""
        trace = _two_node_trace((0.0, 0.5))
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(
                channel=ChannelSpec(loss=1.0 - 1e-12)),
            seed=1).run([_message(creation_time=0.0)])
        assert not result.outcomes[0].delivered
        assert result.stats.lost_transfers >= 1
        assert result.stats.retransmissions == 0

    def test_retransmission_recovers_within_contact(self):
        """With retx_base=1 the first retry lands 1s later, well inside a
        long contact — eventually a draw succeeds and delivers."""
        trace = _two_node_trace((0.0, 10_000.0))
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(
                channel=ChannelSpec(loss=0.9, retx_base=1.0, retx_cap=4.0)),
            seed=3).run([_message(creation_time=0.0)])
        assert result.outcomes[0].delivered
        assert result.stats.retransmissions >= 1
        assert result.stats.retransmissions >= result.stats.lost_transfers

    def test_retx_limit_caps_attempts(self):
        trace = _two_node_trace((0.0, 10_000.0))
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(
                channel=ChannelSpec(loss=1.0 - 1e-12, retx_base=1.0,
                                    retx_cap=2.0, retx_limit=3)),
            seed=3).run([_message(creation_time=0.0)])
        assert not result.outcomes[0].delivered
        assert result.stats.retransmissions == 3
        assert result.stats.lost_transfers == 4  # initial + 3 retries

    def test_lost_transfers_still_spend_bytes(self):
        """Loss consumes link budget: bytes_sent counts every launched
        attempt, not only the successful one."""
        trace = _two_node_trace((0.0, 10_000.0))
        constraints = ResourceConstraints(
            bandwidth=4.0,
            channel=ChannelSpec(loss=0.9, retx_base=1.0, retx_cap=2.0))
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"), constraints=constraints,
            seed=3).run([_message(creation_time=0.0, size=4.0)])
        assert result.outcomes[0].delivered
        attempts = result.stats.lost_transfers + 1
        assert result.stats.bytes_sent == pytest.approx(4.0 * attempts)

    def test_backoff_is_capped_exponential(self):
        spec = ChannelSpec(retx_base=1.0, retx_cap=5.0)
        assert [spec.backoff(n) for n in range(5)] == [1.0, 2.0, 4.0, 5.0, 5.0]


# ----------------------------------------------------------------------
# churn mechanics on hand-built traces
# ----------------------------------------------------------------------
class TestChurnMechanics:
    def test_schedule_is_seeded_and_bounded(self):
        spec = ChurnSpec(crash_rate=0.01, mean_downtime=30.0)
        nodes = ["a", "b", "c"]
        first = spec.schedule(nodes, duration=5_000.0, master_seed=7)
        again = spec.schedule(nodes, duration=5_000.0, master_seed=7)
        other = spec.schedule(nodes, duration=5_000.0, master_seed=8)
        assert first == again
        assert first != other
        assert any(first.values())
        for windows in first.values():
            for down, up in windows:
                assert 0.0 < down < 5_000.0
                assert up > down

    def test_max_crashes_zero_is_null(self):
        assert ChurnSpec(crash_rate=0.5, max_crashes=0).is_null

    def test_crash_wipes_buffer_and_prevents_delivery(self):
        """b crashes between its contact with a and the destination
        contact; the copy it carried must be gone."""
        contacts = [
            Contact(start=0.0, end=1.0, a="a", b="b"),
            Contact(start=200.0, end=201.0, a="b", b="c"),
        ]
        trace = ContactTrace(contacts, name="relay")
        message = Message(id="m1", source="a", destination="c",
                          creation_time=0.0, size=1.0, ttl=None)
        # crash_rate high enough that b reliably crashes in (1, 200) for
        # this seed; pin via the schedule itself rather than hoping
        churn = ChurnSpec(crash_rate=0.05, mean_downtime=10.0, max_crashes=1)
        schedule = churn.schedule(["a", "b", "c"], trace.duration,
                                  master_seed=4)
        down, up = schedule["b"][0]
        assert 1.0 < down < 200.0, (
            "seed 4 must crash b between the contacts for this test")
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(churn=churn),
            seed=4).run([message])
        assert not result.outcomes[0].delivered
        assert result.stats.node_crashes >= 1
        assert result.stats.churn_dropped_copies >= 1

    def test_crash_truncates_open_contact(self):
        """A crash mid-contact fires the protocol's contact-end early and
        the trace's own CONTACT_END is suppressed."""
        trace = _two_node_trace((0.0, 1_000.0))
        churn = ChurnSpec(crash_rate=0.01, mean_downtime=5.0, max_crashes=1)
        schedule = churn.schedule(["a", "b"], trace.duration, master_seed=2)
        crash_times = [down for windows in schedule.values()
                       for down, _ in windows]
        assert any(0.0 < down < 1_000.0 for down in crash_times), (
            "seed 2 must crash a node inside the contact for this test")
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(churn=churn),
            seed=2).run([_message(creation_time=1_500.0)])
        assert result.stats.truncated_contacts >= 1

    def test_source_down_rejects_creation(self):
        trace = _two_node_trace((0.0, 10.0), (400.0, 410.0))
        churn = ChurnSpec(crash_rate=0.01, mean_downtime=50.0)
        schedule = churn.schedule(["a", "b"], trace.duration, master_seed=9)
        window = next(((down, up) for down, up in schedule.get("a", ())
                       if up < 400.0 and down > 10.0), None)
        assert window is not None, (
            "seed 9 must give 'a' a downtime window between the contacts")
        creation = (window[0] + window[1]) / 2.0
        result = DesSimulator(
            trace, algorithm_by_name("Epidemic"),
            constraints=ResourceConstraints(churn=churn),
            seed=9).run([_message(creation_time=creation)])
        assert result.stats.source_rejections >= 1
        assert not result.outcomes[0].delivered
