"""Synthetic contact-trace generators.

The paper's datasets are CRAWDAD iMote traces that cannot be redistributed;
these generators produce traces with the same statistical structure (see
the introduction of README.md for the substitution argument).

All generators follow one seeding contract (:mod:`repro.synth.seeding`): an
integer seed reproduces the same output bit-for-bit across runs and
platforms, a ``numpy.random.Generator`` is threaded through unchanged, and
composite experiments derive independent per-component streams from a single
master seed with :func:`repro.synth.seeding.derive_rng`.
"""

from .heterogeneous import ConferenceTraceGenerator
from .homogeneous import HomogeneousPoissonGenerator
from .mobility import (
    GridRandomWaypointModel,
    RandomWaypointModel,
    contacts_from_positions,
    grid_pairs_in_range,
)
from .profiles import (
    ActivityProfile,
    ConstantProfile,
    PiecewiseConstantProfile,
    SessionBreakProfile,
    TaperedProfile,
)
from .seeding import SeedLike, derive_rng, derive_seed_sequence, resolve_rng
from .workloads import AllPairsBurstWorkload, HotspotMessageWorkload

__all__ = [
    "ConferenceTraceGenerator",
    "HomogeneousPoissonGenerator",
    "GridRandomWaypointModel",
    "RandomWaypointModel",
    "contacts_from_positions",
    "grid_pairs_in_range",
    "ActivityProfile",
    "ConstantProfile",
    "PiecewiseConstantProfile",
    "SessionBreakProfile",
    "TaperedProfile",
    "SeedLike",
    "derive_rng",
    "derive_seed_sequence",
    "resolve_rng",
    "AllPairsBurstWorkload",
    "HotspotMessageWorkload",
]
