"""Cold-start contract of the ``repro`` package.

``import repro`` loads no layer, and none of the entry modules the CLI and
the perfbench workloads import pulls in scipy or networkx: scipy is loaded
only when the Section 5 ODE is solved, and networkx is a test-only oracle.
The package's layers resolve lazily (PEP 562) and behave like ordinary
attributes.
"""

from __future__ import annotations

import doctest
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The CLI entry module and everything ``perfbench/workloads.py`` imports.
_ENTRY_MODULES = [
    "repro.sim.cli",
    "repro.analysis",
    "repro.analysis.experiments",
    "repro.datasets",
    "repro.exp",
    "repro.core",
    "repro.forwarding",
    "repro.routing.registry",
    "repro.scenario.traces",
    "repro.sim.vector",
    "repro.svc.store",
]

_LAYERS = [name for name in repro.__all__ if name != "__version__"]


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr


#: Expression (in the child) naming the heavy libraries already loaded.
_HEAVY = "sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'})"


class TestColdImport:
    def test_bare_import_loads_no_layer(self):
        _run("import sys\n"
             "import repro\n"
             "layers = [m for m in sys.modules if m.startswith('repro.')]\n"
             "assert layers == [], layers\n"
             f"assert {_HEAVY} == []\n")

    @pytest.mark.parametrize("module", ["repro"] + _ENTRY_MODULES)
    def test_entry_module_skips_scipy_and_networkx(self, module):
        _run("import sys\n"
             f"import {module}\n"
             f"heavy = {_HEAVY}\n"
             "assert heavy == [], heavy\n")

    def test_ode_loads_scipy_on_first_solve(self):
        _run("import sys\n"
             "from repro.model import solve_path_density_ode\n"
             "assert 'scipy' not in sys.modules\n"
             "solution = solve_path_density_ode(0.01, 10.0, num_nodes=10,\n"
             "                                  truncation=20, num_eval=5)\n"
             "assert 'scipy' in sys.modules\n"
             "assert abs(solution.densities[-1].sum() - 1.0) < 1e-6\n")


class TestLazyPackage:
    @pytest.mark.parametrize("name", _LAYERS)
    def test_layer_resolves_to_its_module(self, name):
        assert getattr(repro, name) is importlib.import_module("repro." + name)

    def test_star_import_binds_every_layer(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        for name in _LAYERS:
            assert namespace[name] is importlib.import_module("repro." + name)
        assert namespace["__version__"] == repro.__version__

    def test_dir_lists_layers(self):
        assert set(_LAYERS) <= set(dir(repro))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist  # noqa: B018

    def test_quickstart_doctest(self):
        result = doctest.testmod(repro)
        assert result.attempted > 0
        assert result.failed == 0
