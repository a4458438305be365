"""Random-waypoint mobility model and proximity-based contact extraction.

The paper's related-work section points out that most prior forwarding
evaluations use the random waypoint model, in which all nodes draw speeds and
directions from identical distributions — i.e. a *homogeneous* mobility
assumption.  The paper's central message is that real conference contact
patterns are strongly *heterogeneous*.  To let users reproduce that contrast,
this module provides:

* :class:`RandomWaypointModel` — the classical random waypoint mobility model
  in a rectangular area, and
* :func:`contacts_from_positions` / :meth:`RandomWaypointModel.generate_trace`
  — conversion of sampled node positions into a :class:`ContactTrace` by
  thresholding pairwise distance (two nodes are "in contact" whenever they
  are within ``radio_range`` of each other), mimicking how the Bluetooth
  inquiry scans of the iMotes detect proximity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..contacts import ContactTrace
from .seeding import SeedLike, resolve_rng

__all__ = ["RandomWaypointModel", "contacts_from_positions",
           "GridRandomWaypointModel", "grid_pairs_in_range"]


@dataclass
class RandomWaypointModel:
    """Classical random waypoint mobility in a ``width x height`` rectangle.

    Each node repeatedly: picks a destination uniformly in the area, picks a
    speed uniformly in ``[min_speed, max_speed]``, travels to the destination
    in a straight line, then pauses for a time uniform in ``[0, max_pause]``.

    Parameters are in metres, metres/second and seconds.
    """

    num_nodes: int = 50
    width: float = 100.0
    height: float = 100.0
    min_speed: float = 0.5
    max_speed: float = 1.5
    max_pause: float = 60.0
    radio_range: float = 10.0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("area dimensions must be positive")
        if not 0 < self.min_speed <= self.max_speed:
            raise ValueError("need 0 < min_speed <= max_speed")
        if self.max_pause < 0:
            raise ValueError("max_pause must be non-negative")
        if self.radio_range <= 0:
            raise ValueError("radio_range must be positive")

    # ------------------------------------------------------------------
    def sample_positions(
        self,
        duration: float,
        step: float = 5.0,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Sample node positions on a regular time grid.

        Returns an array of shape ``(num_steps, num_nodes, 2)`` where
        ``num_steps = floor(duration / step) + 1``.  Seeded per the contract
        in :mod:`repro.synth.seeding`: an integer seed reproduces the same
        trajectories bit-for-bit on every platform.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        rng = resolve_rng(seed)
        num_steps = int(np.floor(duration / step)) + 1
        positions = np.zeros((num_steps, self.num_nodes, 2), dtype=float)

        # Per-node state for the waypoint process.
        current = np.column_stack([
            rng.uniform(0, self.width, self.num_nodes),
            rng.uniform(0, self.height, self.num_nodes),
        ])
        target = np.column_stack([
            rng.uniform(0, self.width, self.num_nodes),
            rng.uniform(0, self.height, self.num_nodes),
        ])
        speed = rng.uniform(self.min_speed, self.max_speed, self.num_nodes)
        pause_left = np.zeros(self.num_nodes)

        positions[0] = current
        for k in range(1, num_steps):
            remaining = np.full(self.num_nodes, step)
            for n in range(self.num_nodes):
                budget = remaining[n]
                while budget > 1e-12:
                    if pause_left[n] > 0:
                        used = min(pause_left[n], budget)
                        pause_left[n] -= used
                        budget -= used
                        continue
                    vec = target[n] - current[n]
                    dist = float(np.hypot(vec[0], vec[1]))
                    if dist < 1e-9:
                        # Arrived: start a pause then pick a new waypoint.
                        pause_left[n] = rng.uniform(0, self.max_pause)
                        target[n] = (rng.uniform(0, self.width), rng.uniform(0, self.height))
                        speed[n] = rng.uniform(self.min_speed, self.max_speed)
                        continue
                    travel_time = dist / speed[n]
                    if travel_time <= budget:
                        current[n] = target[n].copy()
                        budget -= travel_time
                    else:
                        frac = (budget * speed[n]) / dist
                        current[n] = current[n] + frac * vec
                        budget = 0.0
            positions[k] = current
        return positions

    # ------------------------------------------------------------------
    def generate_trace(
        self,
        duration: float,
        step: float = 5.0,
        seed: SeedLike = None,
        name: str = "",
    ) -> ContactTrace:
        """Generate a contact trace from sampled positions."""
        positions = self.sample_positions(duration, step=step, seed=seed)
        return contacts_from_positions(
            positions,
            step=step,
            radio_range=self.radio_range,
            duration=duration,
            name=name or f"rwp-N{self.num_nodes}",
        )


@dataclass
class GridRandomWaypointModel:
    """Random waypoint mobility at city scale (10^4–10^5 nodes).

    Same rectangle-area waypoint process as :class:`RandomWaypointModel`,
    restructured for large populations:

    * position sampling is vectorized across nodes (one numpy pass per
      time step instead of a Python loop per node), with the waypoint
      process discretized to the sampling grid: a node that reaches its
      waypoint mid-step snaps to it and begins its pause at the next step
      boundary.  At the model's intended scale (steps of tens of seconds,
      pauses of comparable magnitude) the contact statistics are
      indistinguishable from the exact-time process;
    * positions are streamed: :meth:`iter_positions` yields one step's
      ``(num_nodes, 2)`` positions at a time, and :meth:`generate_trace`
      extracts that step's pairs before drawing the next, so the
      ``(num_steps, num_nodes, 2)`` history is never held (its memory is
      the packed in-range pairs, not the positions);
    * contact extraction bins positions into ``radio_range``-sized grid
      cells and compares only same/adjacent-cell pairs
      (:func:`grid_pairs_in_range`), replacing the dense
      ``num_nodes x num_nodes`` distance matrix — O(n) per step at
      constant density instead of O(n^2).

    The two models are therefore *statistically* alike but **not**
    bit-compatible; this one is registered as its own trace-spec kind
    (``rwp-grid``) with its own golden fixtures.  Seeding follows the
    standard contract: an integer seed reproduces the trace bit-for-bit.
    """

    num_nodes: int = 1000
    width: float = 1000.0
    height: float = 1000.0
    min_speed: float = 0.5
    max_speed: float = 1.5
    max_pause: float = 60.0
    radio_range: float = 10.0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("area dimensions must be positive")
        if not 0 < self.min_speed <= self.max_speed:
            raise ValueError("need 0 < min_speed <= max_speed")
        if self.max_pause < 0:
            raise ValueError("max_pause must be non-negative")
        if self.radio_range <= 0:
            raise ValueError("radio_range must be positive")

    # ------------------------------------------------------------------
    def iter_positions(
        self,
        duration: float,
        step: float = 30.0,
        seed: SeedLike = None,
    ) -> Iterator[np.ndarray]:
        """Yield every node's position on a regular grid, one step at a time.

        Yields ``num_steps = floor(duration / step) + 1`` fresh arrays of
        shape ``(num_nodes, 2)``.  The process is vectorized across nodes
        (one numpy pass per step) and draws from the seeded generator only
        while it is advanced, in the same order whoever consumes it.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        rng = resolve_rng(seed)
        n = self.num_nodes
        num_steps = int(np.floor(duration / step)) + 1
        current = np.column_stack([rng.uniform(0, self.width, n),
                                   rng.uniform(0, self.height, n)])
        target = np.column_stack([rng.uniform(0, self.width, n),
                                  rng.uniform(0, self.height, n)])
        speed = rng.uniform(self.min_speed, self.max_speed, n)
        pause_left = np.zeros(n)

        yield current.copy()
        for _ in range(1, num_steps):
            pausing = pause_left > 0
            pause_left[pausing] = np.maximum(pause_left[pausing] - step, 0.0)
            moving = ~pausing
            vec = target - current
            dist = np.hypot(vec[:, 0], vec[:, 1])
            travel = speed * step
            arrived = moving & (dist <= travel)
            cruising = moving & ~arrived
            if np.any(cruising):
                frac = travel[cruising] / dist[cruising]
                current[cruising] += vec[cruising] * frac[:, None]
            count = int(arrived.sum())
            if count:
                current[arrived] = target[arrived]
                # pause begins at this step boundary; new waypoint drawn now
                pause_left[arrived] = rng.uniform(0, self.max_pause, count)
                target[arrived, 0] = rng.uniform(0, self.width, count)
                target[arrived, 1] = rng.uniform(0, self.height, count)
                speed[arrived] = rng.uniform(self.min_speed, self.max_speed,
                                             count)
            yield current.copy()

    def sample_positions(
        self,
        duration: float,
        step: float = 30.0,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Sample all node positions on a regular grid, vectorized.

        Returns shape ``(num_steps, num_nodes, 2)`` like
        :meth:`RandomWaypointModel.sample_positions`: the steps of
        :meth:`iter_positions`, stacked.
        """
        return np.stack(list(self.iter_positions(duration, step=step,
                                                 seed=seed)))

    # ------------------------------------------------------------------
    def generate_trace(
        self,
        duration: float,
        step: float = 30.0,
        seed: SeedLike = None,
        name: str = "",
    ) -> ContactTrace:
        """Generate a contact trace with grid-binned pair extraction.

        Interval semantics match :func:`contacts_from_positions`: a contact
        opens at the first sampled step a pair is within range and closes
        at the first step it is not (or at *duration*).
        """
        n = self.num_nodes
        step_pairs = []
        for points in self.iter_positions(duration, step=step, seed=seed):
            a, b = grid_pairs_in_range(points, self.radio_range)
            step_pairs.append(a * n + b)
        return ContactTrace.from_columns(
            *_contact_runs(step_pairs, n, step, duration), nodes=range(n),
            duration=duration, name=name or f"rwp-grid-N{n}")


def grid_pairs_in_range(points: np.ndarray, radius: float):
    """All index pairs ``(a, b)``, ``a < b``, within *radius* of each other.

    Cell-binned neighbour search: points hash into ``radius``-sized grid
    cells, and only same-cell and adjacent-cell pairs are distance-checked
    (any in-range pair must fall in adjacent cells).  Each unordered cell
    pair is visited once via the half-neighbourhood offsets, so no pair is
    reported twice.  Fully vectorized: cost is O(n) in the number of points
    at constant spatial density.

    Returns a pair of int64 arrays ``(a_indices, b_indices)``.
    """
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = len(points)
    cx = np.floor(points[:, 0] / radius).astype(np.int64)
    cy = np.floor(points[:, 1] / radius).astype(np.int64)
    cx -= cx.min() if n else 0
    cy -= cy.min() if n else 0
    stride = cy.max() + 2 if n else 1
    keys = cx * stride + cy
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # first(k): position in sorted_keys of the first key >= k.  Neighbour
    # keys lie within one row of cells (stride keys) of the occupied ones,
    # so a table over the occupied rows padded by a row on each side
    # answers every lookup; the binary search covers sparse clouds whose
    # bounding grid dwarfs the point count
    cells = (int(cx.max()) + 3) * stride if n else 0
    if cells <= 8 * n + 1024:
        table = np.zeros(cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys + stride, minlength=cells), out=table[1:])

        def first(k):
            return table[k + stride]
    else:
        def first(k):
            return np.searchsorted(sorted_keys, k)
    out_a: List[np.ndarray] = []
    out_b: List[np.ndarray] = []
    r2 = radius * radius
    # (0,0) pairs points within one cell; the other four offsets cover each
    # adjacent cell pair exactly once
    for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1), (-1, 1)):
        neighbour = keys + dx * stride + dy
        left = first(neighbour)
        right = first(neighbour + 1)
        counts = right - left
        total = int(counts.sum())
        if not total:
            continue
        src = np.repeat(np.arange(n), counts)
        # ragged gather: for point i, the run sorted_keys[left[i]:right[i]]
        starts = np.repeat(left, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        dst = order[starts + offsets]
        if dx == 0 and dy == 0:
            keep = src < dst  # dedupe within-cell pairs, drop self-pairs
            src, dst = src[keep], dst[keep]
            if not len(src):
                continue
        delta = points[src] - points[dst]
        close = delta[:, 0] ** 2 + delta[:, 1] ** 2 <= r2
        src, dst = src[close], dst[close]
        if len(src):
            out_a.append(np.minimum(src, dst))
            out_b.append(np.maximum(src, dst))
    if not out_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)


def contacts_from_positions(
    positions: np.ndarray,
    step: float,
    radio_range: float,
    duration: Optional[float] = None,
    name: str = "",
) -> ContactTrace:
    """Convert a position history into a contact trace.

    Parameters
    ----------
    positions:
        Array of shape ``(num_steps, num_nodes, 2)``.
    step:
        Sampling interval in seconds.
    radio_range:
        Two nodes are in contact whenever their distance is ``<= radio_range``.
    duration:
        Total observation length; defaults to ``(num_steps - 1) * step``.

    A contact interval is opened when a pair first comes within range and
    closed when it moves out of range (or at the end of the observation).
    """
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError("positions must have shape (steps, nodes, 2)")
    if step <= 0 or radio_range <= 0:
        raise ValueError("step and radio_range must be positive")
    num_steps, num_nodes, _ = positions.shape
    total = duration if duration is not None else (num_steps - 1) * step

    step_pairs = []
    for pts in positions:
        # Pairwise distance matrix via broadcasting.
        deltas = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(deltas ** 2, axis=-1))
        i, j = np.nonzero(np.triu(dist <= radio_range, k=1))
        step_pairs.append(i * num_nodes + j)
    return ContactTrace.from_columns(
        *_contact_runs(step_pairs, num_nodes, step, total),
        nodes=range(num_nodes), duration=total, name=name)


def _contact_runs(step_pairs: List[np.ndarray], num_nodes: int, step: float,
                  duration: float):
    """Contact columns ``(starts, ends, a, b)`` from sampled proximity.

    ``step_pairs[k]`` holds the packed ids ``a * num_nodes + b`` of the
    pairs in range at time ``k * step``, each pair at most once.  Every run
    of consecutive in-range steps of a pair is one contact: it opens at the
    run's first step and closes at the first step out of range, or at
    *duration* when the run lasts to the last step.
    """
    num_steps = len(step_pairs)
    # key = pair * stride + step; the unused step value num_steps keeps
    # the last step of one pair from running on into the next pair's first
    stride = num_steps + 1
    keys = np.concatenate([pairs * stride + k for k, pairs in enumerate(step_pairs)]
                          + [np.empty(0, dtype=np.int64)])
    keys.sort()
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = keys[1:] != keys[:-1] + 1
    closes = np.ones(len(keys), dtype=bool)
    closes[:-1] = opens[1:]
    pair, first_step = np.divmod(keys[opens], stride)
    close_step = keys[closes] % stride + 1
    starts = first_step * step
    ends = np.where(close_step < num_steps, close_step * step, duration)
    a, b = np.divmod(pair, num_nodes)
    return starts, ends, a, b
