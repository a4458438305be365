"""Each forwarding/routing/sim entry module imports cleanly when it is the
first module a fresh interpreter loads.

``repro.routing.registry`` registers the paper's six from
``repro.forwarding.algorithms``, which also defines ``RoutingProtocol``;
importing the modules in an unusual order must not meet a half-initialised
module.  ``repro.routing.base.RoutingProtocol`` and
``repro.sim.adapter.AlgorithmAdapter`` are imported by name by the
``perfbench`` span instrumentation.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_MODULES = [
    "repro",
    "repro.model",
    "repro.forwarding",
    "repro.forwarding.algorithms",
    "repro.routing",
    "repro.routing.base",
    "repro.routing.registry",
    "repro.sim",
    "repro.sim.adapter",
]


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_first(module):
    code = (
        f"import {module}\n"
        "from repro.routing.base import RoutingProtocol\n"
        "from repro.sim.adapter import AlgorithmAdapter\n"
        "from repro.routing.registry import protocol_by_name, protocol_names\n"
        "assert all(isinstance(protocol_by_name(name), RoutingProtocol)\n"
        "           for name in protocol_names())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
