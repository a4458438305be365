"""Resource-constrained discrete-event forwarding simulation.

This package extends the paper's idealized Section 6 evaluation with an
event-driven engine (:mod:`repro.sim.engine`) that models finite buffers,
bandwidth-limited contacts and message TTL, a scenario registry
(:mod:`repro.sim.scenarios`), a batch/sweep runner
(:mod:`repro.sim.runner`) and the ``python -m repro`` command line
(:mod:`repro.sim.cli`).

With all constraints disabled the engine is delivery-stream-equivalent to
the vector kernel (:mod:`repro.sim.vector`) that runs every simulation; the
paper's six forwarding algorithms run unchanged in both engines.
"""

from .buffers import (
    DROP_LARGEST,
    DROP_OLDEST,
    DROP_POLICIES,
    DROP_YOUNGEST,
    BufferEntry,
    NodeBuffer,
)
from .engine import (
    UNCONSTRAINED,
    ConstrainedSimulationResult,
    DesSimulator,
    ResourceConstraints,
    ResourceStats,
)
from .faults import ChannelSpec, ChurnSpec
from .vector import VectorSimulator
from .runner import ScenarioRunResult, SweepResult, run_scenario, sweep_scenario
from .scenarios import (
    DatasetTraceSpec,
    FileTraceSpec,
    RandomWaypointTraceSpec,
    Scenario,
    ScenarioSpec,
    TwoClassTraceSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    scenarios,
)

__all__ = [
    "DROP_LARGEST",
    "DROP_OLDEST",
    "DROP_POLICIES",
    "DROP_YOUNGEST",
    "BufferEntry",
    "NodeBuffer",
    "UNCONSTRAINED",
    "ConstrainedSimulationResult",
    "DesSimulator",
    "ResourceConstraints",
    "ResourceStats",
    "VectorSimulator",
    "ChannelSpec",
    "ChurnSpec",
    "ScenarioRunResult",
    "SweepResult",
    "run_scenario",
    "sweep_scenario",
    "DatasetTraceSpec",
    "FileTraceSpec",
    "RandomWaypointTraceSpec",
    "Scenario",
    "ScenarioSpec",
    "TwoClassTraceSpec",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenarios",
]
