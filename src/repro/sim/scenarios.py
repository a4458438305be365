"""The named scenario registry — a thin table of ScenarioSpecs.

Scenario *mechanics* live in :mod:`repro.scenario`: :class:`~repro.scenario.
ScenarioSpec` (serializable, eagerly validated), the trace/workload spec
bases and their kind registry.  This module keeps what is genuinely
registry: the name → spec table (:func:`register_scenario` /
:func:`get_scenario`) and the built-in catalogue the CLI, tournament and
tests launch by name.  Every entry is plain data — ``get_scenario(name).
to_dict()`` is the JSON form, and the equivalence tests pin the table's
builds byte-for-byte.

``Scenario`` remains this module's (and :mod:`repro.sim`'s) name for
:class:`ScenarioSpec`; existing imports keep working unchanged.
"""

from __future__ import annotations

from typing import Dict, List

from ..forwarding.messages import PoissonMessageWorkload
from ..scenario.spec import ScenarioSpec
from ..scenario.traces import (
    DatasetTraceSpec,
    FileTraceSpec,
    GridRandomWaypointTraceSpec,
    RandomWaypointTraceSpec,
    TwoClassTraceSpec,
)
from ..synth.workloads import AllPairsBurstWorkload, HotspotMessageWorkload
from .engine import UNCONSTRAINED, ResourceConstraints

__all__ = [
    "DatasetTraceSpec",
    "GridRandomWaypointTraceSpec",
    "RandomWaypointTraceSpec",
    "TwoClassTraceSpec",
    "FileTraceSpec",
    "Scenario",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenarios",
]

#: Backward-compatible alias: a "Scenario" always was a fully parameterized
#: spec; it now lives in repro.scenario as first-class serializable data.
Scenario = ScenarioSpec


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add *scenario* to the registry (used by plugins and tests too)."""
    if not overwrite and scenario.name in _SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


def scenario_names() -> List[str]:
    """All registered scenario names, in registration order."""
    return list(_SCENARIOS)


def scenarios() -> Dict[str, Scenario]:
    """A copy of the registry."""
    return dict(_SCENARIOS)


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------
# Populations are scaled down (~15-25 nodes) so every scenario runs in
# seconds from the CLI; scale up via Scenario.with_overrides on the trace
# spec for paper-size experiments.

register_scenario(Scenario(
    name="paper-ideal",
    description="Section 6 comparison on the CoNExT'06 9-12 stand-in under "
                "the paper's idealized assumptions (the DES engine equals "
                "the trace-driven simulator here)",
    trace=DatasetTraceSpec(key="conext06-9-12", scale=0.15, contact_scale=0.15),
    workload=PoissonMessageWorkload(rate=0.01),
    constraints=UNCONSTRAINED,
    algorithms=("Epidemic", "FRESH", "Greedy", "Greedy Total",
                "Greedy Online", "Dynamic Programming"),
    seed=601,
))

register_scenario(Scenario(
    name="paper-buffer-crunch",
    description="Same stand-in with 4-message node buffers (drop-oldest): "
                "epidemic copies now evict each other",
    trace=DatasetTraceSpec(key="conext06-9-12", scale=0.15, contact_scale=0.15),
    workload=PoissonMessageWorkload(rate=0.02),
    constraints=ResourceConstraints(buffer_capacity=4.0),
    seed=602,
))

register_scenario(Scenario(
    name="paper-ttl-tight",
    description="Same stand-in with a 15-minute message TTL: only fast "
                "paths survive",
    trace=DatasetTraceSpec(key="conext06-9-12", scale=0.15, contact_scale=0.15),
    workload=PoissonMessageWorkload(rate=0.01),
    constraints=ResourceConstraints(ttl=900.0),
    seed=603,
))

register_scenario(Scenario(
    name="paper-trickle-link",
    description="Bandwidth-limited contacts (300-byte messages over a "
                "2 B/s link): transfers take 150 s and resume across "
                "contacts",
    trace=DatasetTraceSpec(key="conext06-9-12", scale=0.15, contact_scale=0.15),
    workload=PoissonMessageWorkload(rate=0.01),
    constraints=ResourceConstraints(bandwidth=2.0, message_size=300.0),
    seed=604,
))

register_scenario(Scenario(
    name="rwp-courtyard",
    description="Random-waypoint mobility in a 120 m courtyard "
                "(homogeneous baseline the paper contrasts against), "
                "idealized resources",
    trace=RandomWaypointTraceSpec(num_nodes=25, duration=1800.0,
                                  name="rwp-courtyard"),
    workload=PoissonMessageWorkload(rate=0.03, generation_window=(0.0, 1200.0)),
    constraints=UNCONSTRAINED,
    seed=605,
))

register_scenario(Scenario(
    name="rwp-courtyard-lossy",
    description="The courtyard under pressure: 3-message buffers "
                "(drop-youngest) and a 10-minute TTL",
    trace=RandomWaypointTraceSpec(num_nodes=25, duration=1800.0,
                                  name="rwp-courtyard"),
    workload=PoissonMessageWorkload(rate=0.03, generation_window=(0.0, 1200.0)),
    constraints=ResourceConstraints(buffer_capacity=3.0, ttl=600.0,
                                    drop_policy="drop-youngest"),
    seed=606,
))

register_scenario(Scenario(
    name="hotspot-funnel",
    description="Two-class population where 80% of traffic originates at "
                "3 hotspot sources, 5-message buffers: the funnel around "
                "the hotspots overflows",
    trace=TwoClassTraceSpec(num_high=8, num_low=16, duration=3600.0,
                            mean_contacts_per_node=60.0),
    workload=HotspotMessageWorkload(num_messages=80, num_hotspots=3,
                                    hotspot_share=0.8, mode="source"),
    constraints=ResourceConstraints(buffer_capacity=5.0),
    seed=607,
))

register_scenario(Scenario(
    name="rwp-city-1k",
    description="1000-node random-waypoint city district (1.1 km square, "
                "20 m radio, 90 minutes) with an early message burst: the "
                "vector engine's quick benchmark arena, idealized resources",
    trace=GridRandomWaypointTraceSpec(num_nodes=1000, duration=5400.0,
                                      step=30.0, width=1100.0, height=1100.0,
                                      radio_range=20.0, name="rwp-city-1k"),
    workload=PoissonMessageWorkload(rate=0.1,
                                    generation_window=(0.0, 600.0)),
    constraints=UNCONSTRAINED,
    algorithms=("Epidemic", "Binary Spray-and-Wait"),
    seed=609,
))

register_scenario(Scenario(
    name="rwp-city-10k",
    description="10000-node random-waypoint city (3.5 km square, 20 m "
                "radio, 90 minutes) with an early message burst: the "
                "vector kernel's headline scale (DesSimulator needs minutes "
                "here)",
    trace=GridRandomWaypointTraceSpec(num_nodes=10000, duration=5400.0,
                                      step=30.0, width=3500.0, height=3500.0,
                                      radio_range=20.0, name="rwp-city-10k"),
    workload=PoissonMessageWorkload(rate=0.25,
                                    generation_window=(0.0, 600.0)),
    constraints=UNCONSTRAINED,
    algorithms=("Epidemic",),
    seed=610,
))

register_scenario(Scenario(
    name="flash-crowd",
    description="All-pairs message bursts on the Infocom'06 afternoon "
                "stand-in over 1 B/s links with 8-message (240-byte) "
                "buffers: worst-case contention",
    trace=DatasetTraceSpec(key="infocom06-3-6", scale=0.15, contact_scale=0.15),
    workload=AllPairsBurstWorkload(burst_times=(600.0, 3600.0),
                                   max_pairs_per_burst=60, message_size=30.0),
    constraints=ResourceConstraints(bandwidth=1.0, buffer_capacity=240.0,
                                    drop_policy="drop-largest"),
    seed=608,
))
