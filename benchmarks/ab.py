#!/usr/bin/env python3
"""A/B runs of the end-to-end benchmark: a base revision against this tree.

Run from the repository root::

    python benchmarks/ab.py --base HEAD~1 --pairs 10 --workload paper-repro \\
        --seed 1 --seconds 12

The base revision's committed files are exported (``git archive``) into a
scratch directory.  Each pair then runs ``perfbench/run.py`` once in the
base export and once in this working tree, with the same arguments, one
process at a time; the side that runs first alternates from pair to pair,
so a drift in machine load falls on both sides alike.  The report (JSON,
``--out``) holds every run's metrics and, per metric, each side's median
and quartiles, the head's wins, losses and ties over the pairs, and a
verdict (see :func:`verdict`) against the bounds ``BENCHMARK.json``
declares.  A run whose output checks fail (``failed > 0``) is reported,
and the tool exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: the share of pairs the head must win for a gain
WIN_SHARE = 0.9


# ----------------------------------------------------------------------
# statistics and the verdict
# ----------------------------------------------------------------------
def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; one sample is all three)."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        q1 = median = q3 = ordered[0]
    else:
        q1, median, q3 = statistics.quantiles(ordered, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: Optional[float] = None) -> Dict[str, object]:
    """Judge one metric from paired samples (``base[i]`` ran with
    ``head[i]``).

    * ``improved``: the head wins at least :data:`WIN_SHARE` of all pairs
      (ties count for neither side) and its median is better than the
      base's by more than the base's own spread, the distance between its
      quartiles.
    * ``regressed``: the head's median is worse than the base's by more
      than *bound* (relative to the base median); for a metric without a
      bound, the mirror of ``improved``.
    * ``unresolved``: not regressed, but the base's relative spread is
      wider than *bound*, so a regression within it could not show; it is
      ``unchanged`` after all if every head run beats every base run.
    * ``unchanged``: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not base or len(base) != len(head):
        raise ValueError("need one head sample per base sample")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    base_q, head_q = quartiles(base), quartiles(head)
    spread = base_q["q3"] - base_q["q1"]
    gain = sign * (base_q["median"] - head_q["median"])
    scale = abs(base_q["median"])
    worse = -gain / scale if scale else (1.0 if gain < 0 else 0.0)
    pairs = len(base)
    if better == "lower":
        clear = max(head) < min(base)
    else:
        clear = min(head) > max(base)
    if wins >= WIN_SHARE * pairs and gain > spread:
        outcome = "improved"
    elif bound is None:
        outcome = ("regressed" if losses >= WIN_SHARE * pairs
                   and -gain > spread else "unchanged")
    elif worse > bound:
        outcome = "regressed"
    elif scale and spread / scale > bound and not clear:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "base": dict(base_q, samples=list(base)),
        "head": dict(head_q, samples=list(head)),
        "pairs": pairs, "wins": wins, "losses": losses,
        "ties": pairs - wins - losses,
        "ratio": head_q["median"] / base_q["median"] if scale else None,
        "bound": bound, "verdict": outcome,
    }


def metric_specs(benchmark: dict) -> Dict[str, dict]:
    """``better`` and ``bound`` (end-to-end metrics only) by metric name."""
    specs = {entry["name"]: {"better": entry["better"], "bound": None}
             for entry in benchmark.get("per_layer", ())}
    for entry in benchmark.get("end_to_end", ()):
        specs[entry["name"]] = {"better": entry["better"],
                                "bound": entry.get("bound")}
    return specs


def judge(runs: List[dict], specs: Dict[str, dict]) -> Dict[str, dict]:
    """Per-metric verdicts over the pairs whose two runs both passed."""
    pairs: Dict[int, Dict[str, dict]] = {}
    for run in runs:
        if run["failed"] == 0:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    judged = {}
    for name, spec in specs.items():
        if not complete or not all(name in p["base"] and name in p["head"]
                                   for p in complete):
            continue
        judged[name] = verdict([p["base"][name] for p in complete],
                               [p["head"][name] for p in complete],
                               spec["better"], spec["bound"])
    return judged


# ----------------------------------------------------------------------
# running both sides
# ----------------------------------------------------------------------
def export(rev: str, into: Path) -> str:
    """Write *rev*'s committed files into *into*; return its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    archive = into.parent / f"{into.name}.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive),
                    commit], cwd=ROOT, check=True)
    into.mkdir(parents=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return commit


def run_side(root: Path, args) -> dict:
    """One ``perfbench/run.py`` process in the checkout at *root*."""
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return {"failed": 1, "metrics": {}, "returncode": done.returncode}
    return {"failed": result["failed"], "returncode": done.returncode,
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def head_state() -> str:
    """This tree's commit id, marked ``+dirty`` if files differ from it."""
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True,
                            check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain",
                            "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True,
                           check=True).stdout.strip()
    return commit + ("+dirty" if dirty else "")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="the revision to compare this tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the base export (default: a "
                             "new temporary directory, removed at the end)")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default: .ab/ab-<workload>-"
                             "seed<seed>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out or ROOT / ".ab" / f"ab-{args.workload}-seed{args.seed}.json"
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="ab-"))
    scratch.mkdir(parents=True, exist_ok=True)
    base_root = scratch / "base"
    if base_root.exists():
        raise SystemExit(f"ab: {base_root} exists; pick another --scratch")
    specs = metric_specs(json.loads((ROOT / "BENCHMARK.json").read_text()))
    head = head_state()
    try:
        base_commit = export(args.base, base_root)
        runs = []
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                run = run_side(base_root if side == "base" else ROOT, args)
                runs.append(dict(run, pair=pair, side=side))
                print(f"pair {pair + 1}/{args.pairs} {side}: failed "
                      f"{run['failed']} run_s "
                      f"{run['metrics'].get('run_s')}", flush=True)
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    judged = judge(runs, specs)
    report = {
        "base": args.base, "base_commit": base_commit, "head": head,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "pairs": args.pairs,
        "failed_runs": sum(1 for run in runs if run["failed"]),
        "metrics": judged, "runs": runs,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in judged.items():
        if specs[name]["bound"] is None and args.trace == 0:
            continue
        print(f"{name:28s} base {entry['base']['median']:.6g} "
              f"[{entry['base']['q1']:.6g}-{entry['base']['q3']:.6g}]  head "
              f"{entry['head']['median']:.6g} [{entry['head']['q1']:.6g}-"
              f"{entry['head']['q3']:.6g}]  wins {entry['wins']}/"
              f"{entry['pairs']}  {entry['verdict']}")
    print(f"report: {out}")
    return 1 if report["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
