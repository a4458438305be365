"""Proximity-to-contact extraction against the per-step loops it replaced.

``GridRandomWaypointModel.generate_trace`` and ``contacts_from_positions``
turn in-range pairs per sampled step into contact columns in one pass (a
sort over ``(pair, step)`` keys and run-boundary masks), and
``grid_pairs_in_range`` reads neighbour cells from a dense first-position
table.  The grid model streams its positions one step at a time
(``iter_positions``).  The oracles below are the earlier, obviously-correct
forms: an ``open_since`` dict walked step by step, one ``searchsorted``
pair per neighbour offset, and the position loop that filled the whole
``(steps, nodes, 2)`` array.  The new code must match them exactly (``==``
traces, identical pair arrays in the same order, bit-identical positions).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.contacts import Contact, ContactTrace
from repro.synth import (
    GridRandomWaypointModel,
    RandomWaypointModel,
    contacts_from_positions,
    grid_pairs_in_range,
)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def _oracle_grid_pairs(points: np.ndarray, radius: float):
    """Cell-binned pair search with one binary search per neighbour cell."""
    n = len(points)
    cx = np.floor(points[:, 0] / radius).astype(np.int64)
    cy = np.floor(points[:, 1] / radius).astype(np.int64)
    cx -= cx.min() if n else 0
    cy -= cy.min() if n else 0
    stride = cy.max() + 2 if n else 1
    keys = cx * stride + cy
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    out_a: List[np.ndarray] = []
    out_b: List[np.ndarray] = []
    r2 = radius * radius
    for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1), (-1, 1)):
        neighbour = keys + dx * stride + dy
        left = np.searchsorted(sorted_keys, neighbour, side="left")
        right = np.searchsorted(sorted_keys, neighbour, side="right")
        counts = right - left
        total = int(counts.sum())
        if not total:
            continue
        src = np.repeat(np.arange(n), counts)
        starts = np.repeat(left, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        dst = order[starts + offsets]
        if dx == 0 and dy == 0:
            keep = src < dst
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


def _oracle_grid_positions(model, duration, step, seed):
    """The grid model's positions, filled into one preallocated array."""
    rng = np.random.default_rng(seed)
    n = model.num_nodes
    num_steps = int(np.floor(duration / step)) + 1
    positions = np.zeros((num_steps, n, 2), dtype=float)
    current = np.column_stack([rng.uniform(0, model.width, n),
                               rng.uniform(0, model.height, n)])
    target = np.column_stack([rng.uniform(0, model.width, n),
                              rng.uniform(0, model.height, n)])
    speed = rng.uniform(model.min_speed, model.max_speed, n)
    pause_left = np.zeros(n)
    positions[0] = current
    for k in range(1, num_steps):
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
            pause_left[arrived] = rng.uniform(0, model.max_pause, count)
            target[arrived, 0] = rng.uniform(0, model.width, count)
            target[arrived, 1] = rng.uniform(0, model.height, count)
            speed[arrived] = rng.uniform(model.min_speed, model.max_speed, count)
        positions[k] = current
    return positions


def _oracle_grid_trace(positions, radio_range, step, duration, name):
    """Step-by-step open/close bookkeeping over grid-binned pairs."""
    num_steps, n, _ = positions.shape
    open_since: dict = {}
    contacts: List[Contact] = []
    previous = np.empty(0, dtype=np.int64)
    for k in range(num_steps):
        t = k * step
        pair_ids = _oracle_grid_pairs(positions[k], radio_range)
        pair_ids = pair_ids[0] * n + pair_ids[1]
        pair_ids.sort()
        closed = np.setdiff1d(previous, pair_ids, assume_unique=True)
        opened = np.setdiff1d(pair_ids, previous, assume_unique=True)
        for pair in closed.tolist():
            contacts.append(Contact(open_since.pop(pair), t, pair // n, pair % n))
        for pair in opened.tolist():
            open_since[pair] = t
        previous = pair_ids
    for pair, started in open_since.items():
        contacts.append(Contact(started, duration, pair // n, pair % n))
    return ContactTrace(contacts, nodes=range(n), duration=duration, name=name)


def _oracle_positions_trace(positions, step, radio_range, duration=None, name=""):
    """The dense-distance extraction with a Python loop over every pair."""
    num_steps, num_nodes, _ = positions.shape
    total = duration if duration is not None else (num_steps - 1) * step
    open_since: dict = {}
    contacts: List[Contact] = []
    for k in range(num_steps):
        t = k * step
        pts = positions[k]
        deltas = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(deltas ** 2, axis=-1))
        in_range = dist <= radio_range
        for i in range(num_nodes):
            for j in range(i + 1, num_nodes):
                if in_range[i, j]:
                    open_since.setdefault((i, j), t)
                else:
                    started = open_since.pop((i, j), None)
                    if started is not None:
                        contacts.append(Contact(started, t, i, j))
    for (i, j), started in open_since.items():
        contacts.append(Contact(started, total, i, j))
    return ContactTrace(contacts, nodes=range(num_nodes), duration=total, name=name)


def _assert_same_pairs(points, radius):
    actual = grid_pairs_in_range(points, radius)
    expected = _oracle_grid_pairs(points, radius)
    for mine, theirs in zip(actual, expected):
        assert mine.dtype == theirs.dtype
        assert mine.tolist() == theirs.tolist()


# ----------------------------------------------------------------------
# grid_pairs_in_range
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_grid_pairs_match_binary_search_on_random_clouds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 600))
    side = float(rng.uniform(20.0, 400.0))
    points = rng.uniform(0.0, side, (n, 2))
    _assert_same_pairs(points, float(rng.uniform(2.0, 30.0)))


def test_grid_pairs_with_points_on_cell_edges():
    radius = 10.0
    grid = np.arange(0.0, 60.0, 5.0)  # every other coordinate is a cell edge
    points = np.array([(x, y) for x in grid for y in grid])
    _assert_same_pairs(points, radius)
    _assert_same_pairs(points, 5.0)  # in-range exactly at distance == radius


def test_grid_pairs_with_negative_coordinates():
    rng = np.random.default_rng(11)
    points = rng.uniform(-150.0, 40.0, (300, 2))
    points[:20] = np.floor(points[:20] / 7.5) * 7.5  # on negative cell edges
    _assert_same_pairs(points, 7.5)


def test_grid_pairs_with_every_point_in_one_cell():
    rng = np.random.default_rng(3)
    points = rng.uniform(100.0, 101.0, (50, 2))
    _assert_same_pairs(points, 20.0)
    assert len(grid_pairs_in_range(points, 20.0)[0]) == 50 * 49 // 2


def test_grid_pairs_with_one_point_and_none():
    _assert_same_pairs(np.array([[3.0, 4.0]]), 1.0)
    _assert_same_pairs(np.empty((0, 2)), 1.0)


def test_grid_pairs_on_a_sparse_cloud():
    # the bounding grid has far more cells than points: binary-search lookup
    rng = np.random.default_rng(8)
    points = np.concatenate([rng.uniform(0.0, 5.0, (30, 2)),
                             rng.uniform(1e5, 1e5 + 5.0, (30, 2))])
    _assert_same_pairs(points, 1.0)


# ----------------------------------------------------------------------
# GridRandomWaypointModel.generate_trace
# ----------------------------------------------------------------------
_GRID_CASES = [
    (60, 150.0, 600.0, 30.0, 1),
    (200, 300.0, 610.0, 30.0, 2),     # duration not a multiple of step
    (120, 120.0, 95.0, 10.0, 3),
    (40, 80.0, 301.0, 7.0, 4),
    (2, 30.0, 60.0, 60.0, 5),         # two nodes, two steps
]


@pytest.mark.parametrize("n, side, duration, step, seed", _GRID_CASES)
def test_generate_trace_matches_the_step_loop(n, side, duration, step, seed):
    model = GridRandomWaypointModel(num_nodes=n, width=side, height=side,
                                    radio_range=20.0)
    trace = model.generate_trace(duration, step=step, seed=seed, name="g")
    positions = model.sample_positions(duration, step=step, seed=seed)
    expected = _oracle_grid_trace(positions, 20.0, step, duration, "g")
    assert trace == expected
    assert list(trace) == list(expected)
    assert trace.name == expected.name


@pytest.mark.parametrize("duration", [30.0, 35.0])
def test_generate_trace_pair_in_range_only_at_the_last_step(monkeypatch, duration):
    model = GridRandomWaypointModel(num_nodes=3, width=100.0, height=100.0,
                                    radio_range=10.0)
    positions = np.array([
        [[0.0, 0.0], [50.0, 0.0], [90.0, 90.0]],
        [[0.0, 0.0], [5.0, 0.0], [90.0, 90.0]],
        [[0.0, 0.0], [50.0, 0.0], [90.0, 90.0]],
        [[0.0, 0.0], [50.0, 0.0], [55.0, 0.0]],   # (1, 2) at the last step only
    ])
    monkeypatch.setattr(model, "iter_positions", lambda *args, **kwargs: iter(positions))
    trace = model.generate_trace(duration, step=10.0)
    expected = _oracle_grid_trace(positions, 10.0, 10.0, duration, "rwp-grid-N3")
    assert trace == expected
    assert list(trace) == [Contact(10.0, 20.0, 0, 1), Contact(30.0, duration, 1, 2)]


@pytest.mark.parametrize("n, side, duration, step, seed", _GRID_CASES)
def test_streamed_positions_draw_the_whole_array_loop(n, side, duration, step, seed):
    """Streaming draws exactly the positions (and RNG draws) of the loop
    that filled the whole history: ``sample_positions`` and the stacked
    per-step generator equal it bit for bit."""
    model = GridRandomWaypointModel(num_nodes=n, width=side, height=side,
                                    radio_range=20.0)
    expected = _oracle_grid_positions(model, duration, step, seed)
    streamed = np.stack(list(model.iter_positions(duration, step=step, seed=seed)))
    sampled = model.sample_positions(duration, step=step, seed=seed)
    for positions in (streamed, sampled):
        assert positions.shape == expected.shape
        assert positions.dtype == expected.dtype
        assert positions.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# contacts_from_positions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed, duration, step", [
    (0, 300.0, 10.0), (1, 305.0, 10.0), (2, 120.0, 7.0), (3, 60.0, 5.0)])
def test_contacts_from_positions_matches_the_pair_loop(seed, duration, step):
    model = RandomWaypointModel(num_nodes=14, width=40.0, height=40.0,
                                radio_range=10.0, max_pause=20.0)
    positions = model.sample_positions(duration, step=step, seed=seed)
    for total in (None, duration):
        trace = contacts_from_positions(positions, step, 10.0, duration=total, name="p")
        expected = _oracle_positions_trace(positions, step, 10.0, duration=total, name="p")
        assert len(expected) > 0
        assert trace == expected
        assert list(trace) == list(expected)


def test_contacts_from_positions_pair_in_range_only_at_the_last_step():
    positions = np.array([
        [[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]],
        [[0.0, 0.0], [30.0, 0.0], [35.0, 0.0]],
    ])
    trace = contacts_from_positions(positions, step=10.0, radio_range=10.0)
    assert trace == _oracle_positions_trace(positions, 10.0, 10.0)
    assert list(trace) == [Contact(10.0, 10.0, 1, 2)]
