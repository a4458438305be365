"""repro — reproduction of "Diversity of Forwarding Paths in Pocket Switched
Networks" (Erramilli, Chaintreau, Crovella, Diot, 2007).

The library is organised in layers (see README.md):

* :mod:`repro.contacts` — contact-trace data model, I/O and statistics;
* :mod:`repro.synth` — synthetic trace generators standing in for the
  CRAWDAD iMote datasets;
* :mod:`repro.datasets` — the named, seeded dataset registry matching the
  paper's four analysis windows;
* :mod:`repro.core` — the paper's contribution: space-time graphs, k-shortest
  valid path enumeration, path-explosion analysis, in/out pair types, and the
  hop-gradient analysis;
* :mod:`repro.model` — the analytic path-explosion model of Section 5;
* :mod:`repro.forwarding` — the Section 6 forwarding simulator, the
  ``RoutingProtocol`` API and the six forwarding algorithms of Section 6;
* :mod:`repro.routing` — the protocol lifecycle, the stateful protocol zoo
  (spray-and-wait, PRoPHET, hypergossip, …), the protocol registry and the
  cross-scenario tournament;
* :mod:`repro.scenario` — the declarative, serializable scenario spec API:
  kind-tagged trace/workload/constraint specs, the spec-type registry and
  JSON round-tripping;
* :mod:`repro.sim` — the resource-constrained discrete-event engine
  (finite buffers, bandwidth-limited contacts, TTL), scenario registry and
  the ``python -m repro`` CLI;
* :mod:`repro.exp` — the unified experiment orchestration layer: declarative
  grid specs, content-hashed job planning, the shared worker pool and the
  persistent, resumable result store every runner routes through;
* :mod:`repro.obs` — observability: structured engine trace events, run
  telemetry (``metrics.json``) and the live feeds behind ``exp watch``
  and ``routing tournament --live``;
* :mod:`repro.svc` — the experiment service: sharded result store, async
  job daemon and the stdlib HTTP query/submission API behind
  ``python -m repro svc``;
* :mod:`repro.analysis` — experiment runners and per-figure data builders.

The layers load lazily (PEP 562): ``import repro`` imports none of them, and
``repro.<layer>`` imports the layer on first access, so a command that only
needs the simulator does not pay for the rest.

Quickstart
----------
>>> from repro.datasets import infocom06_9_12
>>> from repro.analysis import run_path_explosion_study
>>> trace = infocom06_9_12(scale=0.3)
>>> records = run_path_explosion_study(trace, num_messages=20, n_explosion=100)
>>> sum(1 for r in records if r.exploded) > 0
True
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "1.4.0"

__all__ = [
    "analysis",
    "contacts",
    "core",
    "datasets",
    "exp",
    "forwarding",
    "model",
    "obs",
    "routing",
    "scenario",
    "sim",
    "svc",
    "synth",
    "__version__",
]

_LAYERS = frozenset(__all__) - {"__version__"}

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from . import (analysis, contacts, core, datasets, exp, forwarding, model, obs,
                   routing, scenario, sim, svc, synth)


def __getattr__(name: str):
    if name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(f"{__name__}.{name}")


def __dir__():
    return sorted(set(globals()) | _LAYERS)
