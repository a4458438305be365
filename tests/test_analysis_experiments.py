"""Unit tests for the experiment runners (repro.analysis.experiments)."""

from __future__ import annotations

import pytest

import repro.analysis.experiments as experiments
import repro.forwarding.metrics as metrics
from repro.analysis import (
    message_delays_by_algorithm,
    run_forwarding_study,
    run_path_explosion_study,
)
from repro.forwarding import EpidemicForwarding, FreshForwarding, Message


class TestPathExplosionStudy:
    def test_one_record_per_message(self, small_conference_trace):
        records = run_path_explosion_study(small_conference_trace, num_messages=6,
                                           n_explosion=20, seed=1)
        assert len(records) == 6
        assert all(r.n_explosion == 20 for r in records)

    def test_reproducible_for_same_seed(self, small_conference_trace):
        a = run_path_explosion_study(small_conference_trace, num_messages=4,
                                     n_explosion=10, seed=2)
        b = run_path_explosion_study(small_conference_trace, num_messages=4,
                                     n_explosion=10, seed=2)
        assert [(r.source, r.destination, r.num_paths) for r in a] == \
            [(r.source, r.destination, r.num_paths) for r in b]

    def test_explicit_messages_override(self, small_conference_trace):
        nodes = sorted(small_conference_trace.nodes)
        messages = [(nodes[0], nodes[1], 0.0), (nodes[2], nodes[3], 100.0)]
        records = run_path_explosion_study(small_conference_trace,
                                           n_explosion=5, messages=messages)
        assert [(r.source, r.destination) for r in records] == \
            [(nodes[0], nodes[1]), (nodes[2], nodes[3])]

    def test_keep_paths(self, small_conference_trace):
        records = run_path_explosion_study(small_conference_trace, num_messages=3,
                                           n_explosion=10, seed=3, keep_paths=True)
        delivered = [r for r in records if r.delivered]
        assert delivered
        assert all(len(r.paths) == r.num_paths for r in delivered)


class TestForwardingStudy:
    def test_default_algorithms_present(self, small_conference_trace):
        comparison = run_forwarding_study(small_conference_trace,
                                          message_rate=0.01, seed=1)
        assert set(comparison.results) == {
            "Epidemic", "FRESH", "Greedy", "Greedy Total", "Greedy Online",
            "Dynamic Programming",
        }

    def test_custom_algorithm_subset(self, small_conference_trace):
        comparison = run_forwarding_study(
            small_conference_trace,
            algorithms=[EpidemicForwarding(), FreshForwarding()],
            message_rate=0.01, seed=2,
        )
        assert set(comparison.results) == {"Epidemic", "FRESH"}

    def test_classification_attached(self, small_conference_trace):
        comparison = run_forwarding_study(small_conference_trace,
                                          algorithms=[EpidemicForwarding()],
                                          message_rate=0.01, seed=3)
        assert comparison.classification is not None
        assert comparison.pair_type_summaries()


def test_in_process_studies_release_their_worker_state(
        small_conference_trace):
    """workers=1 runs the pool initializer in this process; the graph and
    the trace it stores there must not outlive the call."""
    records = run_path_explosion_study(small_conference_trace,
                                       num_messages=3, n_explosion=10,
                                       seed=4, workers=1)
    assert len(records) == 3
    assert experiments._EXPLOSION_WORKER == {}
    comparison = run_forwarding_study(small_conference_trace,
                                      algorithms=[EpidemicForwarding()],
                                      message_rate=0.01, seed=4, workers=1)
    assert comparison.results["Epidemic"]
    assert metrics._SIMULATION_WORKER == {}


class TestMessageDelays:
    def test_delays_for_every_algorithm(self, small_conference_trace):
        nodes = sorted(small_conference_trace.nodes)
        message = Message(id=0, source=nodes[0], destination=nodes[-1],
                          creation_time=0.0)
        delays = message_delays_by_algorithm(
            small_conference_trace, message,
            algorithms=[EpidemicForwarding(), FreshForwarding()],
        )
        assert set(delays) == {"Epidemic", "FRESH"}
        if delays["Epidemic"] is not None and delays["FRESH"] is not None:
            assert delays["Epidemic"] <= delays["FRESH"] + 1e-9
