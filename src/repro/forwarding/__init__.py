"""Forwarding simulation (on the vector kernel) and the six algorithms of Section 6."""

from .algorithms import (
    DynamicProgrammingForwarding,
    EpidemicForwarding,
    FreshForwarding,
    GreedyForwarding,
    GreedyOnlineForwarding,
    GreedyTotalForwarding,
    RoutingProtocol,
    UtilityForwarding,
    default_algorithms,
)
from .history import OnlineContactHistory
from .meed import MeedTable, pairwise_expected_delays
from .messages import Message, PoissonMessageWorkload, UniformMessageWorkload, messages_from_tuples
from .metrics import (
    ComparisonResult,
    PerformanceSummary,
    compare_algorithms,
    delay_distribution,
    summarize,
    summarize_by_pair_type,
)
from .simulator import DeliveryOutcome, ForwardingSimulator, SimulationResult, simulate

__all__ = [
    "DynamicProgrammingForwarding",
    "EpidemicForwarding",
    "FreshForwarding",
    "GreedyForwarding",
    "GreedyOnlineForwarding",
    "GreedyTotalForwarding",
    "RoutingProtocol",
    "UtilityForwarding",
    "default_algorithms",
    "OnlineContactHistory",
    "MeedTable",
    "pairwise_expected_delays",
    "Message",
    "PoissonMessageWorkload",
    "UniformMessageWorkload",
    "messages_from_tuples",
    "ComparisonResult",
    "PerformanceSummary",
    "compare_algorithms",
    "delay_distribution",
    "summarize",
    "summarize_by_pair_type",
    "DeliveryOutcome",
    "ForwardingSimulator",
    "SimulationResult",
    "simulate",
]
