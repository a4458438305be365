"""Cross-module integration tests.

These exercise the full pipeline the paper itself follows — dataset →
space-time graph → path enumeration → explosion analysis → forwarding
simulation — and check that the independently implemented pieces agree where
the paper says they must (e.g. the optimal enumerated path is what epidemic
forwarding achieves).
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.path_oracle import first_delivery_time

from repro.analysis import run_forwarding_study, run_path_explosion_study
from repro.core import (
    PathEnumerator,
    SpaceTimeGraph,
    classify_nodes,
    fraction_of_uphill_hops,
    random_messages,
)
from repro.datasets import PAPER_DATASET_KEYS, infocom06_9_12, load_dataset
from repro.forwarding import (
    EpidemicForwarding,
    Message,
    messages_from_tuples,
    simulate,
)


@pytest.fixture(scope="module")
def trace():
    """A scaled-down Infocom'06 stand-in shared by the integration tests."""
    return infocom06_9_12(scale=0.2)


@pytest.fixture(scope="module")
def graph(trace):
    return SpaceTimeGraph(trace, delta=10.0)


class TestEnumerationVsEpidemicSimulation:
    def test_epidemic_simulator_agrees_with_enumerated_optimum(self, trace, graph):
        """T(σ, δ, t1) = T_Epidemic(σ, δ, t1): the enumerated optimal path is
        a lower bound (up to Δ) on the event-driven simulator's epidemic
        delay, and the two agree closely for the bulk of messages.

        The space-time graph pools each Δ bin, so it can chain contacts that
        the continuous-time simulator could not (a contact that ended earlier
        in the same bin); the enumerated optimum is therefore an optimistic
        bound rather than an exact match."""
        delta = graph.delta
        triples = random_messages(trace, 12, seed=21)
        messages = messages_from_tuples(triples)
        result = simulate(trace, EpidemicForwarding(), messages)
        gaps = []
        for message, outcome in zip(messages, result.outcomes):
            optimal = first_delivery_time(graph, message.source,
                                          message.destination,
                                          message.creation_time)
            if outcome.delivered:
                # The simulator's delivery certifies a real path, so the
                # pooled-graph optimum cannot be later than it (plus one bin).
                assert optimal is not None
                enumerated_delay = optimal - message.creation_time
                assert enumerated_delay <= outcome.delay + delta + 1e-9
                gaps.append(outcome.delay - enumerated_delay)
        assert gaps, "no delivered messages in the sample"
        # For the bulk of messages the two substrates agree within a few bins.
        within = sum(1 for g in gaps if abs(g) <= 3 * delta)
        assert within >= len(gaps) // 2

    @pytest.mark.parametrize("dataset_key", PAPER_DATASET_KEYS)
    def test_epidemic_never_beats_the_enumerated_optimum(self, dataset_key):
        """On every paper stand-in, each message Epidemic delivers has an
        enumerated optimal path, and the delivery lies within one Δ bin of
        that optimum."""
        trace = load_dataset(dataset_key, scale=0.2, contact_scale=0.2)
        graph = SpaceTimeGraph(trace, delta=10.0)
        messages = messages_from_tuples(random_messages(trace, 12, seed=21))
        result = simulate(trace, EpidemicForwarding(), messages)
        delivered = [(message, outcome) for message, outcome
                     in zip(messages, result.outcomes) if outcome.delivered]
        assert delivered, f"{dataset_key}: no delivered messages in the sample"
        for message, outcome in delivered:
            optimal = first_delivery_time(graph, message.source,
                                          message.destination,
                                          message.creation_time)
            assert optimal is not None, (dataset_key, message)
            assert abs(outcome.delivery_time - optimal) <= graph.delta + 1e-9, \
                (dataset_key, message, outcome.delivery_time, optimal)

    def test_enumerator_first_delivery_equals_fast_path(self, trace, graph):
        enumerator = PathEnumerator(graph, k=10)
        for source, destination, t1 in random_messages(trace, 8, seed=22):
            fast = first_delivery_time(graph, source, destination, t1)
            full = enumerator.enumerate(source, destination, t1,
                                        max_total_deliveries=1)
            if fast is None:
                assert not full.delivered
            else:
                assert full.deliveries[0].time == pytest.approx(fast)


class TestPathExplosionOnPaperScaleData:
    def test_majority_of_delivered_messages_explode(self, trace):
        records = run_path_explosion_study(trace, num_messages=20,
                                           n_explosion=100, seed=30)
        delivered = [r for r in records if r.delivered]
        exploded = [r for r in delivered if r.exploded]
        assert delivered
        # The paper: path explosion occurs for the vast majority of messages.
        assert len(exploded) >= 0.6 * len(delivered)

    def test_time_to_explosion_usually_much_smaller_than_optimal_duration(self, trace):
        records = run_path_explosion_study(trace, num_messages=20,
                                           n_explosion=100, seed=31)
        exploded = [r for r in records if r.exploded]
        assert exploded
        te_median = float(np.median([r.time_to_explosion for r in exploded]))
        t1_max = max(r.optimal_duration for r in exploded)
        # Figure 4's qualitative shape: the explosion happens quickly once the
        # first path arrives, even when some optimal paths take a long time.
        assert te_median <= t1_max

    def test_low_rate_sources_hand_off_uphill(self, trace):
        """Figure 15 / Section 6.2.2: a message originating at a low-rate
        ('out') node escapes by climbing the contact-rate gradient — its
        first hand-off is overwhelmingly to a higher-rate node."""
        classification = classify_nodes(trace)
        from repro.core import NodeClass

        out_nodes = classification.nodes_in_class(NodeClass.OUT)
        in_nodes = classification.nodes_in_class(NodeClass.IN)
        rng_messages = [(out_nodes[i % len(out_nodes)],
                         in_nodes[i % len(in_nodes)],
                         200.0 * i) for i in range(8)]
        records = run_path_explosion_study(trace, n_explosion=50, seed=32,
                                           keep_paths=True,
                                           messages=rng_messages)
        paths = [p for r in records for p in r.paths if p.hop_count >= 1]
        assert paths
        uphill = fraction_of_uphill_hops(paths, trace.contact_rates(),
                                         first_n_transitions=1)
        assert uphill > 0.6


class TestForwardingComparisonEndToEnd:
    def test_epidemic_bounds_all_algorithms(self, trace):
        comparison = run_forwarding_study(trace, message_rate=0.02,
                                          num_runs=1, seed=40)
        summaries = comparison.summaries()
        epidemic = summaries["Epidemic"]
        for name, summary in summaries.items():
            assert summary.success_rate <= epidemic.success_rate + 1e-9
        assert epidemic.success_rate > 0.3

    def test_algorithms_show_similar_success_rates(self, trace):
        """The paper's headline forwarding result: algorithm choice has a
        modest effect compared with the gap to undeliverable messages."""
        comparison = run_forwarding_study(trace, message_rate=0.02,
                                          num_runs=1, seed=41)
        summaries = comparison.summaries()
        rates = {name: s.success_rate for name, s in summaries.items()
                 if name != "Epidemic"}
        # All practical algorithms deliver a substantial fraction of messages.
        assert min(rates.values()) > 0.15

    def test_pair_type_dominates_performance(self, trace):
        comparison = run_forwarding_study(trace,
                                          algorithms=[EpidemicForwarding()],
                                          message_rate=0.03, num_runs=1, seed=42)
        by_type = comparison.pair_type_summaries()["Epidemic"]
        from repro.core import PairType

        in_in = by_type[PairType.IN_IN]
        out_out = by_type[PairType.OUT_OUT]
        if in_in.num_messages >= 5 and out_out.num_messages >= 5:
            # Figure 13: in-in traffic is delivered more reliably than out-out.
            assert in_in.success_rate >= out_out.success_rate


class TestClassificationConsistency:
    def test_median_split_is_balanced_on_dataset(self, trace):
        classification = classify_nodes(trace)
        from repro.core import NodeClass

        num_in = len(classification.nodes_in_class(NodeClass.IN))
        num_out = len(classification.nodes_in_class(NodeClass.OUT))
        assert abs(num_in - num_out) <= 2
