#!/usr/bin/env python3
"""Reproduce the path-explosion measurement study (Sections 4-5 of the paper).

For a batch of random messages on the Infocom 2006 stand-in dataset this
script reports:

* the CDF of optimal path durations (Figure 4a),
* the CDF of times to explosion (Figure 4b),
* the relationship between the two (Figure 5),
* the breakdown by in/out pair type (Figure 8), compared against the
  paper's four hypotheses from Section 5.2.

Run with::

    python examples/path_explosion_study.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis import (
    cdf_at,
    figure4_duration_and_explosion_cdfs,
    figure8_pair_type_scatter,
    run_path_explosion_study,
)
from repro.core import PairType, classify_nodes
from repro.datasets import infocom06_9_12
from repro.model import pair_type_predictions, relative_magnitude_table

SCALE = 0.25
NUM_MESSAGES = 60
N_EXPLOSION = 150


def main() -> None:
    trace = infocom06_9_12(scale=SCALE)
    print(f"dataset: {trace.name}  ({trace.num_nodes} nodes, {len(trace)} contacts)")
    print(f"messages: {NUM_MESSAGES}, explosion threshold: {N_EXPLOSION} paths\n")

    # workers > 1 fans the messages out over a process pool; each worker
    # builds the space-time graph once and the records come back in message
    # order, identical to an in-process (workers=1) run.
    records = run_path_explosion_study(trace, num_messages=NUM_MESSAGES,
                                       n_explosion=N_EXPLOSION, seed=11,
                                       workers=os.cpu_count() or 1)
    delivered = [r for r in records if r.delivered]
    exploded = [r for r in records if r.exploded]
    print(f"delivered: {len(delivered)}/{len(records)}   "
          f"exploded: {len(exploded)}/{len(delivered)} of delivered")

    # ----- Figure 4: CDFs ------------------------------------------------
    cdfs = figure4_duration_and_explosion_cdfs({"infocom06": records})
    durations = [r.optimal_duration for r in delivered]
    te_values = [r.time_to_explosion for r in exploded]
    print("\noptimal path duration (Figure 4a):")
    for threshold in (60, 300, 1000, 3000):
        print(f"  P[T1 - t1 <= {threshold:>5} s] = {cdf_at(durations, threshold):.2f}")
    print("time to explosion (Figure 4b):")
    for threshold in (10, 50, 150, 300):
        print(f"  P[TE <= {threshold:>5} s] = {cdf_at(te_values, threshold):.2f}")

    # ----- Figure 5: T1 vs TE --------------------------------------------
    print("\nT1 vs TE (Figure 5):")
    print(f"  median optimal duration : {np.median(durations):8.0f} s")
    print(f"  median time to explosion: {np.median(te_values):8.0f} s")
    correlation = np.corrcoef([r.optimal_duration for r in exploded], te_values)[0, 1] \
        if len(exploded) > 2 else float("nan")
    print(f"  correlation(T1, TE)     : {correlation:8.2f}  "
          "(the paper finds no clear relationship)")

    # ----- Figure 8: pair-type breakdown ----------------------------------
    classification = classify_nodes(trace)
    groups = figure8_pair_type_scatter(trace, records, classification)
    print("\npair-type breakdown (Figure 8):")
    measurements = {}
    for pair_type in PairType.ordered():
        points = groups[pair_type]
        if not points:
            print(f"  {pair_type.value:8s}: no exploded messages")
            continue
        t1_values = [p[0] for p in points]
        te_group = [p[1] for p in points]
        measurements[pair_type] = (float(np.median(t1_values)), float(np.median(te_group)))
        print(f"  {pair_type.value:8s}: n={len(points):3d}  "
              f"median T1={np.median(t1_values):7.0f} s  "
              f"median TE={np.median(te_group):6.0f} s")

    if len(measurements) >= 2:
        table = relative_magnitude_table(measurements)
        predictions = pair_type_predictions()
        print("\nmeasured vs predicted magnitudes (Section 5.2 hypotheses):")
        matches = 0
        for pair_type, labels in table.items():
            predicted = predictions[pair_type]
            ok = labels["t1"] == predicted.t1 and labels["te"] == predicted.te
            matches += ok
            print(f"  {pair_type.value:8s}: measured T1={labels['t1']:<5s} TE={labels['te']:<5s}"
                  f"   predicted T1={predicted.t1:<5s} TE={predicted.te:<5s}"
                  f"   {'OK' if ok else 'differs'}")
        print(f"  {matches}/{len(table)} pair types match the paper's hypotheses")


if __name__ == "__main__":
    main()
