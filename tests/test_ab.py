"""The A/B tool's verdict rule (``benchmarks/ab.py``), on synthetic
samples: no benchmark process is started."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

#: ten base runs with quartiles 0.99-1.01 (median 1.0)
_BASE = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


def test_quartiles():
    assert ab.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_clear_gain_is_improved():
    head = [b * 0.75 for b in _BASE]
    entry = ab.verdict(_BASE, head, "lower", 0.2)
    assert (entry["wins"], entry["losses"], entry["ties"]) == (10, 0, 0)
    assert entry["verdict"] == "improved"
    assert entry["ratio"] == pytest.approx(0.75)


def test_nine_wins_of_ten_suffice_but_eight_do_not():
    head = [b * 0.75 for b in _BASE]
    head[0] = 2.0
    assert ab.verdict(_BASE, head, "lower", 0.2)["verdict"] == "improved"
    head[1] = 2.0
    entry = ab.verdict(_BASE, head, "lower", 0.2)
    assert entry["wins"] == 8
    assert entry["verdict"] == "unchanged"


def test_ties_count_for_neither_side():
    head = list(_BASE)
    head[:9] = [b - 0.05 for b in _BASE[:9]]
    entry = ab.verdict(_BASE, head, "lower", 0.2)
    assert (entry["wins"], entry["ties"]) == (9, 1)
    assert entry["verdict"] == "improved"
    head[8] = _BASE[8]
    assert ab.verdict(_BASE, head, "lower", 0.2)["verdict"] == "unchanged"


def test_gain_within_the_base_spread_is_not_improved():
    # every pair won, but by less than the base's interquartile range
    head = [b - 0.005 for b in _BASE]
    entry = ab.verdict(_BASE, head, "lower", 0.2)
    assert entry["wins"] == 10
    assert entry["verdict"] == "unchanged"


def test_worse_than_the_bound_is_regressed():
    assert ab.verdict(_BASE, [b * 1.3 for b in _BASE], "lower",
                      0.2)["verdict"] == "regressed"
    assert ab.verdict(_BASE, [b * 1.1 for b in _BASE], "lower",
                      0.2)["verdict"] == "unchanged"


def test_higher_is_better():
    assert ab.verdict(_BASE, [b * 1.3 for b in _BASE], "higher",
                      0.2)["verdict"] == "improved"
    assert ab.verdict(_BASE, [b * 0.7 for b in _BASE], "higher",
                      0.2)["verdict"] == "regressed"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [0.6, 0.7, 0.8, 1.0, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    head = [1.0] * 10
    assert ab.verdict(base, head, "lower", 0.1)["verdict"] == "unresolved"
    # unless every head run beats every base run: a gain still smaller
    # than the spread is then unchanged
    entry = ab.verdict(base, [0.59] * 10, "lower", 0.1)
    assert entry["base"]["q3"] - entry["base"]["q1"] > 1.0 - 0.59
    assert entry["verdict"] == "unchanged"


def test_metric_without_a_bound_mirrors_the_gain_rule():
    head = [b * 1.5 for b in _BASE]
    assert ab.verdict(_BASE, head, "lower")["verdict"] == "regressed"
    assert ab.verdict(_BASE, _BASE, "lower")["verdict"] == "unchanged"


def test_counts_that_repeat_exactly():
    entry = ab.verdict([144.0] * 10, [24.0] * 10, "lower")
    assert entry["verdict"] == "improved"
    assert entry["base"]["q1"] == entry["base"]["q3"] == 144.0


def test_rejects_unpaired_or_unknown_direction():
    with pytest.raises(ValueError):
        ab.verdict([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab.verdict([], [], "lower")
    with pytest.raises(ValueError):
        ab.verdict([1.0], [1.0], "sideways")


def test_judge_uses_pairs_whose_runs_both_passed():
    specs = ab.metric_specs({
        "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "sim.runs.hook", "better": "lower"}]})
    assert specs == {"run_s": {"better": "lower", "bound": 0.2},
                     "sim.runs.hook": {"better": "lower", "bound": None}}
    runs = []
    for pair in range(3):
        for side, value in (("base", 1.0), ("head", 0.5)):
            runs.append({"pair": pair, "side": side, "failed": 0,
                         "metrics": {"run_s": value}})
    runs[5]["failed"] = 1  # pair 2's head failed its output checks
    judged = ab.judge(runs, specs)
    assert list(judged) == ["run_s"]
    assert judged["run_s"]["pairs"] == 2
    assert judged["run_s"]["verdict"] == "improved"
