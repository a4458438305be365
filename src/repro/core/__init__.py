"""The paper's primary contribution: space-time path enumeration and the
path-explosion analysis built on top of it."""

from .enumeration import (
    DEFAULT_K,
    Delivery,
    EnumerationResult,
    PathEnumerator,
    enumerate_batch,
    enumerate_paths,
)
from .fastpath import NodeInterner, StepTables
from .explosion import (
    DEFAULT_EXPLOSION_THRESHOLD,
    ExplosionRecord,
    analyze_dataset,
    analyze_message,
    arrival_curve,
    random_messages,
)
from .hop_analysis import (
    HopRateSummary,
    RatioBoxStats,
    fraction_of_uphill_hops,
    hop_rate_summary,
    rate_ratios_by_hop,
    rates_by_hop,
    ratio_box_stats,
)
from .pair_types import (
    NodeClass,
    PairType,
    RateClassification,
    classify_nodes,
    classify_pair,
    group_by_pair_type,
    pair_type_of_message,
)
from .path import (
    Hop,
    Path,
    is_loop_free,
    is_time_feasible,
    is_valid_path,
    respects_first_preference,
    respects_minimal_progress,
)
from .space_time_graph import DEFAULT_DELTA, SpaceTimeGraph

__all__ = [
    "DEFAULT_K",
    "Delivery",
    "EnumerationResult",
    "PathEnumerator",
    "enumerate_batch",
    "enumerate_paths",
    "NodeInterner",
    "StepTables",
    "DEFAULT_EXPLOSION_THRESHOLD",
    "ExplosionRecord",
    "analyze_dataset",
    "analyze_message",
    "arrival_curve",
    "random_messages",
    "HopRateSummary",
    "RatioBoxStats",
    "fraction_of_uphill_hops",
    "hop_rate_summary",
    "rate_ratios_by_hop",
    "rates_by_hop",
    "ratio_box_stats",
    "NodeClass",
    "PairType",
    "RateClassification",
    "classify_nodes",
    "classify_pair",
    "group_by_pair_type",
    "pair_type_of_message",
    "Hop",
    "Path",
    "is_loop_free",
    "is_time_feasible",
    "is_valid_path",
    "respects_first_preference",
    "respects_minimal_progress",
    "DEFAULT_DELTA",
    "SpaceTimeGraph",
]
