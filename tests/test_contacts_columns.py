"""The columnar contact trace: ``ContactTrace.from_columns`` against the
``Contact``-list constructor, and the read-only column storage.

A trace stores ``(starts, ends, a, b)`` columns; ``from_columns`` builds
one without creating a ``Contact`` per row.  Both constructors must build
``==`` traces with the same iteration order, columns and queries, and must
reject bad input with the same message.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contacts import Contact, ContactTrace
from repro.forwarding import PoissonMessageWorkload
from repro.routing.registry import protocol_by_name
from repro.sim import DesSimulator, VectorSimulator

_NODES = 6
# few distinct values, so ties, duplicates and zero-duration rows are common
_times = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 7.0])


@st.composite
def contact_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        start = draw(_times)
        end = start + draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]))
        a, b = draw(st.lists(st.integers(0, _NODES - 1), min_size=2,
                             max_size=2, unique=True))  # either order
        rows.append((start, end, a, b))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # duplicates
    return rows


def _columns(rows):
    starts = np.array([r[0] for r in rows], dtype=np.float64)
    ends = np.array([r[1] for r in rows], dtype=np.float64)
    a = np.array([r[2] for r in rows], dtype=np.int64)
    b = np.array([r[3] for r in rows], dtype=np.int64)
    return starts, ends, a, b


def _both(rows, nodes=range(_NODES), duration=20.0):
    by_contacts = ContactTrace([Contact(*row) for row in rows], nodes=nodes,
                               duration=duration, name="t")
    by_columns = ContactTrace.from_columns(*_columns(rows), nodes=nodes,
                                           duration=duration, name="t")
    return by_contacts, by_columns


@settings(max_examples=200, deadline=None)
@given(rows=contact_rows())
def test_from_columns_builds_the_constructor_trace(rows):
    expected, actual = _both(rows)
    assert actual == expected
    assert len(actual) == len(expected) == len(rows)
    assert list(actual) == list(expected)
    assert [actual[i] for i in range(len(actual))] == list(expected)
    for mine, theirs in zip(actual.as_arrays(), expected.as_arrays()):
        assert mine.tolist() == theirs.tolist()
        # (an empty Contact list infers float64 endpoints)
        assert mine.dtype == theirs.dtype or not rows
    for t0, t1 in ((0.0, 1.0), (0.5, 2.5), (2.0, 2.0), (3.0, 100.0), (-1.0, 0.0)):
        assert actual.contacts_starting_in(t0, t1) == expected.contacts_starting_in(t0, t1)
    assert actual.contact_counts() == expected.contact_counts()
    assert actual.nodes == expected.nodes
    assert actual.duration == expected.duration


def test_column_view_holds_plain_python_scalars():
    trace = ContactTrace.from_columns([1.0, 0.0], [2.0, 0.0], [3, 4], [0, 1],
                                      nodes=range(5), duration=10.0)
    assert list(trace) == [Contact(0.0, 0.0, 1, 4), Contact(1.0, 2.0, 0, 3)]
    for contact in trace:
        assert type(contact.start) is float and type(contact.end) is float
        assert type(contact.a) is int and type(contact.b) is int


def test_from_columns_keeps_non_integer_labels():
    rows = [(1.0, 2.0, "b", "a"), (0.0, 3.0, "c", "a")]
    expected = ContactTrace([Contact(*row) for row in rows], nodes="abc",
                            duration=5.0)
    actual = ContactTrace.from_columns(*zip(*rows), nodes="abc", duration=5.0)
    assert actual == expected
    assert list(actual) == list(expected)


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError, match="equal length"):
        ContactTrace.from_columns([0.0, 1.0], [1.0], [0, 1], [1, 2],
                                  nodes=range(3), duration=5.0)


@pytest.mark.parametrize("rows, nodes, duration", [
    ([(0.0, 1.0, 0, 1), (0.0, 1.0, 3, 3)], range(4), 10.0),      # self contact
    ([(0.0, 1.0, 0, 1), (4.0, 2.0, 1, 2), (-1.0, 2.0, 2, 3)], range(4), 10.0),  # end < start
    ([(-0.5, 1.0, 1, 0)], range(4), 10.0),                        # negative start
    ([(2.0, 2.0, 2, 2)], range(4), 10.0),                         # self contact first
    ([(3.0, 4.0, 0, 9), (1.0, 2.0, 7, 1), (0.0, 1.0, 0, 1)], range(4), 10.0),  # unknown nodes
    ([(0.0, 11.5, 0, 1), (1.0, 2.0, 2, 3)], range(4), 10.0),     # duration too short
])
def test_both_constructors_reject_bad_input_with_one_message(rows, nodes, duration):
    with pytest.raises(ValueError) as by_contacts:
        ContactTrace([Contact(*row) for row in rows], nodes=nodes, duration=duration)
    with pytest.raises(ValueError) as by_columns:
        ContactTrace.from_columns(*_columns(rows), nodes=nodes, duration=duration)
    assert str(by_columns.value) == str(by_contacts.value)


@pytest.mark.parametrize("build", ["contacts", "columns", "pickled"])
def test_columns_are_read_only(build):
    by_contacts, by_columns = _both([(0.0, 1.0, 0, 1), (2.0, 3.0, 2, 1)])
    trace = {"contacts": by_contacts, "columns": by_columns,
             "pickled": pickle.loads(pickle.dumps(by_columns))}[build]
    starts, ends, a, b = trace.as_arrays()
    for column, value in ((starts, 9.0), (ends, 9.0), (a, 5), (b, 5)):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = value
    assert list(trace) == [Contact(0.0, 1.0, 0, 1), Contact(2.0, 3.0, 1, 2)]


def test_vector_simulator_runs_on_read_only_columns():
    rng = np.random.default_rng(5)
    count = 400
    starts = rng.uniform(0.0, 900.0, count).round(1)
    a = rng.integers(0, 12, count)
    b = (a + rng.integers(1, 12, count)) % 12
    trace = ContactTrace.from_columns(starts, starts + rng.uniform(0.0, 30.0, count),
                                      a, b, nodes=range(12), duration=1000.0)
    assert not trace.as_arrays()[0].flags.writeable
    messages = PoissonMessageWorkload(rate=0.02).generate(trace, seed=3)
    for name in ("Epidemic", "PRoPHET"):
        vector = VectorSimulator(trace, protocol_by_name(name)).run(messages)
        des = DesSimulator(trace, protocol_by_name(name)).run(messages)
        assert [(o.delivered, o.delivery_time, o.hop_count) for o in vector.outcomes] \
            == [(o.delivered, o.delivery_time, o.hop_count) for o in des.outcomes]
        assert vector.num_delivered > 0
