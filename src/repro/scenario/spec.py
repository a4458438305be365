"""The scenario spec: one fully declarative, serializable experiment unit.

A :class:`ScenarioSpec` bundles everything one reproducible experiment
needs — a trace source, a message workload, resource constraints, the
forwarding protocols to compare, and a master seed — as pure, composable,
JSON-round-trippable data.  It validates eagerly at construction (unknown
protocol names, broken trace/workload interfaces and bad parameters all
fail here, with actionable messages, instead of deep inside a run) and its
dict form nests the trace/workload/constraint spec dicts, so a whole
scenario travels as one JSON object::

    {
      "kind": "scenario",
      "name": "my-study",
      "trace": {"kind": "two-class", "num_high": 6, "num_low": 12},
      "workload": {"kind": "poisson", "rate": 0.02},
      "constraints": {"buffer_capacity": 4},
      "algorithms": ["Epidemic", "Binary Spray-and-Wait"],
      "seed": 11
    }

Seeding follows the contract of :mod:`repro.synth.seeding`: one master seed
per scenario; the trace and each run's workload draw from independently
derived child streams, so the whole experiment is bit-reproducible and
inserting a draw in one component cannot shift another.  Trace sources with
``uses_scenario_seed = False`` (datasets, files) pin their own content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..synth.seeding import derive_rng
from .base import SpecBase, register_spec, resolve_kind, spec_from_dict

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..contacts import ContactTrace
    from ..forwarding.messages import Message
    from ..routing.base import RoutingProtocol
    from ..sim.engine import ResourceConstraints

__all__ = [
    "DEFAULT_ALGORITHMS",
    "ScenarioSpec",
    "scenario_from_dict",
    "scenario_from_json_file",
]

#: The paper's core comparison set, used when a scenario names none.
DEFAULT_ALGORITHMS: Tuple[str, ...] = ("Epidemic", "FRESH", "Greedy",
                                       "Dynamic Programming")

_SCENARIO_FIELDS = ("name", "description", "trace", "workload", "constraints",
                    "algorithms", "num_runs", "seed", "copy_semantics")


@register_spec
@dataclass(frozen=True)
class ScenarioSpec(SpecBase):
    """A named, fully parameterized, reproducible experiment."""

    spec_category: ClassVar[str] = "scenario"
    kind: ClassVar[str] = "scenario"

    name: str
    description: str
    trace: Any
    workload: Any
    constraints: Optional["ResourceConstraints"] = None
    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS
    num_runs: int = 1
    seed: int = 0
    copy_semantics: str = "copy"

    def __post_init__(self) -> None:
        # sim.engine consumes this module via sim.scenarios, so its import
        # must stay out of module scope
        from ..sim.engine import UNCONSTRAINED, ResourceConstraints

        if not self.name:
            raise ValueError("a scenario needs a name")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ValueError("a scenario needs at least one algorithm")
        self._validate_protocol_names(self.algorithms)
        if self.num_runs < 1:
            raise ValueError("num_runs must be positive")
        if self.copy_semantics not in ("copy", "handoff"):
            raise ValueError("copy_semantics must be 'copy' or 'handoff'")
        if not callable(getattr(self.trace, "build", None)):
            raise ValueError(
                f"scenario {self.name!r} needs a trace spec with a "
                f"build(seed) method, got {type(self.trace).__name__!r}")
        if not callable(getattr(self.workload, "generate", None)):
            raise ValueError(
                f"scenario {self.name!r} needs a workload with a "
                f"generate(trace, seed) method, got "
                f"{type(self.workload).__name__!r}")
        if self.constraints is None:
            object.__setattr__(self, "constraints", UNCONSTRAINED)
        elif not isinstance(self.constraints, ResourceConstraints):
            raise ValueError(
                f"scenario {self.name!r} constraints must be "
                f"ResourceConstraints (or None for unconstrained), got "
                f"{type(self.constraints).__name__!r}")

    def _validate_protocol_names(self, names: Tuple[str, ...]) -> None:
        """Reject unknown protocol names now, naming the valid slugs —
        not hundreds of simulation-seconds later inside a worker."""
        from ..routing.registry import protocol_by_name, protocol_names

        for name in names:
            try:
                protocol_by_name(name)
            except KeyError:
                raise ValueError(
                    f"unknown protocol {name!r} in scenario {self.name!r}; "
                    f"valid protocols: {', '.join(protocol_names())}") \
                    from None

    # ------------------------------------------------------------------
    # metadata (drives the CLI listings)
    # ------------------------------------------------------------------
    @property
    def is_constrained(self) -> bool:
        return not self.constraints.is_unconstrained

    def trace_kind(self) -> str:
        """The trace spec's registered kind (class name as fallback)."""
        return getattr(type(self.trace), "kind", type(self.trace).__name__)

    def workload_kind(self) -> str:
        """The workload spec's registered kind (class name as fallback)."""
        return getattr(type(self.workload), "kind",
                       type(self.workload).__name__)

    def node_count(self) -> Optional[int]:
        """The trace's expected node count, ``None`` when unknown."""
        probe = getattr(self.trace, "node_count", None)
        return probe() if callable(probe) else None

    # ------------------------------------------------------------------
    # builds
    # ------------------------------------------------------------------
    def build_trace(self) -> "ContactTrace":
        """The scenario's contact trace (deterministic)."""
        if getattr(self.trace, "uses_scenario_seed", True):
            return self.trace.build(seed=derive_rng(self.seed, "trace"))
        return self.trace.build()

    def build_messages(self, trace: "ContactTrace",
                       run_index: int = 0) -> List["Message"]:
        """The workload of one run (deterministic per ``(seed, run_index)``)."""
        rng = derive_rng(self.seed, "workload", f"run-{run_index}")
        return list(self.workload.generate(trace, seed=rng))

    def build_algorithms(self) -> List["RoutingProtocol"]:
        """Fresh, unprepared protocol instances of the scenario's strategies.

        Paper algorithm names and zoo names alike resolve through the
        protocol registry.  Every engine accepts the instances directly.
        """
        from ..routing.registry import protocol_by_name

        return [protocol_by_name(name) for name in self.algorithms]

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (revalidated eagerly)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The scenario as a JSON-serializable dict with nested spec dicts."""
        return {
            "kind": self.kind,
            "name": self.name,
            "description": self.description,
            "trace": self._nested("trace", self.trace),
            "workload": self._nested("workload", self.workload),
            "constraints": self._nested("constraints", self.constraints),
            "algorithms": list(self.algorithms),
            "num_runs": self.num_runs,
            "seed": self.seed,
            "copy_semantics": self.copy_semantics,
        }

    def _nested(self, label: str, value: Any) -> Dict[str, Any]:
        encode = getattr(value, "to_dict", None)
        if encode is None:
            raise TypeError(
                f"scenario {self.name!r} has a {label} of type "
                f"{type(value).__name__!r} with no to_dict(); subclass the "
                f"repro.scenario {label} spec base (and @register_spec it) "
                f"to make the scenario serializable")
        return encode()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a scenario from its dict form (the JSON file format).

        Nested ``trace``/``workload`` dicts dispatch on their ``kind``;
        a ``constraints`` dict may omit ``kind`` (``"resource"`` — plain
        :class:`~repro.sim.engine.ResourceConstraints` fields — is
        assumed).  ``description``, ``constraints``, ``algorithms``,
        ``num_runs``, ``seed`` and ``copy_semantics`` are optional.
        """
        from ..sim.engine import ResourceConstraints

        if not isinstance(payload, Mapping):
            raise ValueError(f"a scenario spec must be an object/dict, "
                             f"got {payload!r}")
        data = dict(payload)
        kind = data.pop("kind", cls.kind)
        if kind != cls.kind:
            return resolve_kind("scenario", kind).from_dict(payload)
        unknown = set(data) - set(_SCENARIO_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown scenario spec fields: "
                f"{', '.join(sorted(unknown))}; valid fields: "
                f"{', '.join(_SCENARIO_FIELDS)}")
        missing = {"name", "trace", "workload"} - set(data)
        if missing:
            raise ValueError(f"a scenario spec needs "
                             f"{', '.join(sorted(missing))}")
        trace = data["trace"]
        if isinstance(trace, Mapping):
            trace = spec_from_dict("trace", trace)
        workload = data["workload"]
        if isinstance(workload, Mapping):
            workload = spec_from_dict("workload", workload)
        constraints = data.get("constraints")
        if isinstance(constraints, Mapping):
            if "kind" in constraints:
                constraints = spec_from_dict("constraints", constraints)
            else:
                constraints = ResourceConstraints.from_dict(constraints)
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            trace=trace,
            workload=workload,
            constraints=constraints,
            algorithms=tuple(data.get("algorithms", DEFAULT_ALGORITHMS)),
            num_runs=data.get("num_runs", 1),
            seed=data.get("seed", 0),
            copy_semantics=data.get("copy_semantics", "copy"),
        )

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a scenario spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def scenario_from_dict(payload: Mapping[str, Any]) -> ScenarioSpec:
    """Module-level convenience for :meth:`ScenarioSpec.from_dict`."""
    return ScenarioSpec.from_dict(payload)


def scenario_from_json_file(path: Union[str, Path]) -> ScenarioSpec:
    """Module-level convenience for :meth:`ScenarioSpec.from_json_file`."""
    return ScenarioSpec.from_json_file(path)
