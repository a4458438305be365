"""The one fan-out flag: every command that runs jobs takes ``--workers N``.

Each command must hand the count to its runner as ``workers=N`` (1, in
this process, when the flag is absent), reject a non-positive count as a
usage error before anything runs, and no longer accept ``--parallel``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.exp.orchestrator as orchestrator
import repro.routing.tournament as tournament
import repro.sim.cli as sim_cli
import repro.sim.runner as runner
import repro.svc.api as api
from repro.sim.cli import main

_SPEC = str(Path(__file__).resolve().parents[1] / "examples"
            / "exp_quickstart.json")

#: command -> (argv, module the command looks its runner up in, runner name)
_COMMANDS = {
    "sim run": (["sim", "run", "paper-ttl-tight"], sim_cli, "run_scenario"),
    "sim sweep": (["sim", "sweep", "paper-buffer-crunch", "--param",
                   "buffer_capacity", "--values", "2,inf"],
                  sim_cli, "sweep_scenario"),
    "routing run": (["routing", "run", "paper-ttl-tight", "--protocols",
                     "Epidemic"], runner, "run_scenario"),
    "routing tournament": (["routing", "tournament", "--scenarios",
                            "paper-ideal", "--protocols", "Epidemic"],
                           tournament, "run_tournament"),
    "exp run": (["exp", "run", _SPEC, "--no-store"],
                orchestrator, "run_experiment"),
    "exp resume": (["exp", "resume", _SPEC, "--no-store"],
                   orchestrator, "run_experiment"),
    "svc serve": (["svc", "serve"], api, "serve"),
}


class _Reached(Exception):
    """Raised by the stand-in runner once it has seen its arguments."""


def _argv(command: str, tmp_path: Path):
    argv, module, name = _COMMANDS[command]
    if command == "svc serve":
        argv = argv + ["--store", str(tmp_path / "store")]
    return list(argv), module, name


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("flags, expected", [([], 1),
                                             (["--workers", "2"], 2)],
                         ids=["default", "two"])
def test_workers_reaches_the_runner(command, flags, expected, monkeypatch,
                                    tmp_path):
    argv, module, name = _argv(command, tmp_path)
    seen = {}

    def stand_in(*args, **kwargs):
        seen.update(kwargs)
        raise _Reached

    monkeypatch.setattr(module, name, stand_in)
    with pytest.raises(_Reached):
        main(argv + flags)
    assert seen["workers"] == expected
    assert "parallel" not in seen and "n_workers" not in seen


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-3"],
                                   ["--workers", "two"], ["--parallel"]],
                         ids=["zero", "negative", "not-a-number", "parallel"])
def test_bad_fan_out_flags_are_usage_errors(command, flags, monkeypatch,
                                            tmp_path, capsys):
    argv, module, name = _argv(command, tmp_path)

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{command} ran despite {flags}")

    monkeypatch.setattr(module, name, must_not_run)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + flags)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
