"""Property suite for the sort-free window construction.

:func:`repro.sim.rounds.build_windows` merges every entry's two sorted
boundary runs by rank.  The lexsort construction it replaced is kept verbatim
in :mod:`build_windows_oracle`; on random rounds the two must return the
same arrays byte for byte — window starts, durations, offsets, counts and all
eight state columns.  A round is drawn in the batch driver's columnar
form: one table list per agent plus ``scan_from``/``horizon``/``limit``
columns, with horizons bounded by :func:`repro.sim.rounds.round_bounds` as
the batch driver bounds them; the oracle reads the same entries as records.  The draws aim at the merge's
edge cases: tables shared by identity (prefix views of one buffer, as one
table compiler hands out) and distinct ones, many distinct one-row constant
tables (frozen agents, on either side), stalled tables (shared by identity
through one stall memo, as in the batch driver), empty in-range runs,
budget-capped horizons at or before ``scan_from``, boundaries at time 0
under ``scan_from == 0``, equal A/B boundary times and duplicate boundaries
inside one table.  Boundaries at time 0 may be drawn as ``-0.0``: equal
times collapse onto one window, and only the A-before-B tie order decides
which of two equal but differently signed zeros that window starts at.
Entries may also hold views of one shared local program under drawn agent
frames (:mod:`view_strategies`), as the batch engine does; the oracle gets
their materialized tables.
"""

import math
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import build_windows_oracle
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    TrajectoryTable,
    constant_table,
)
from repro.sim import rounds
from repro.sim.rounds import StallTransform, build_windows, round_bounds
from view_strategies import agent_specs, local_programs

_MAX_TIME = 1e6
_MAX_SEGMENTS = 10**9

#: Boundary gaps on a coarse dyadic grid (zero included), so that equal
#: times across tables and duplicates inside one table are common and every
#: sum stays exact; an occasional irregular gap keeps the times generic.
_GAPS = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
_TIMES = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)


def _table(start_time, seed, exhausted=True):
    """A table with the given row start times and random positions/velocities."""
    rng = np.random.default_rng(seed)
    rows = start_time.shape[0]
    last = math.inf if exhausted else 1.0
    return TrajectoryTable(
        start_time=start_time,
        duration=np.append(np.diff(start_time), last),
        start_x=rng.uniform(-5.0, 5.0, rows),
        start_y=rng.uniform(-5.0, 5.0, rows),
        vel_x=rng.uniform(-1.0, 1.0, rows),
        vel_y=rng.uniform(-1.0, 1.0, rows),
        exhausted=exhausted,
        segments=rows,
        end_time=float(start_time[-1] + last),
    )


@st.composite
def _start_times(draw, max_rows):
    # Leading zero gaps are zero-duration first rows: boundaries at time 0.
    leading = draw(st.integers(0, 2))
    gaps = [0.0] * leading + draw(st.lists(_GAPS, max_size=max_rows - 1 - leading))
    start_time = np.concatenate(([0.0], np.cumsum(gaps)))
    if draw(st.booleans()):
        start_time[1:][start_time[1:] == 0.0] = -0.0
    return start_time


@st.composite
def _prefix_views(draw, max_rows=24):
    """Distinct tables that are prefix views of one table's columns."""
    full = _table(draw(_start_times(max_rows)), draw(st.integers(0, 2**32 - 1)))
    lengths = draw(
        st.lists(st.integers(1, len(full)), min_size=1, max_size=3, unique=True)
    )
    return [
        TrajectoryTable(
            start_time=full.start_time[:m],
            duration=full.duration[:m],
            start_x=full.start_x[:m],
            start_y=full.start_y[:m],
            vel_x=full.vel_x[:m],
            vel_y=full.vel_y[:m],
            exhausted=m == len(full),
            segments=m,
            end_time=float(full.start_time[m]) if m < len(full) else full.end_time,
        )
        for m in lengths
    ]


@st.composite
def _trajectory_views(draw):
    """Views of one shared local program: prefixes under a few agent frames."""
    builder = LocalProgramBuilder(draw(local_programs(max_rows=24)))
    full = builder.snapshot(math.inf)
    compilers = [IncrementalTableCompiler(draw(agent_specs())) for _ in range(2)]
    views = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, max(len(full), 1)))
        local = full if rows >= len(full) else builder.snapshot(math.inf, max_steps=rows)
        views.append(draw(st.sampled_from(compilers)).table(local))
    return views


class _Record(NamedTuple):
    """One entry as the oracle reads it."""

    table_a: Any
    table_b: Any
    horizon: float
    scan_from: float


def _round(entries):
    """``build_windows``' arguments for ``(table_a, table_b, scan_from, horizon)`` entries.

    Horizons and limits are bounded as the batch driver bounds them: a table
    ending short of its entry's horizon caps it.
    """
    tables_a, tables_b, scan_from, horizon = (list(column) for column in zip(*entries))
    horizon, _, limit, _ = round_bounds(
        tables_a, tables_b, np.array(horizon, dtype=float),
        np.zeros(len(entries), dtype=np.int64), _MAX_SEGMENTS, _MAX_TIME,
    )
    return tables_a, tables_b, np.array(scan_from, dtype=float), horizon, limit


@st.composite
def _side_table(draw, shared, views, stalls, seed, position):
    kind = draw(st.sampled_from(("shared", "own", "view", "frozen", "stalled")))
    if kind == "shared":
        return draw(st.sampled_from(shared))
    if kind == "own":
        return _table(draw(_start_times(12)), seed)
    if kind == "view":
        return draw(st.sampled_from(views))
    if kind == "frozen":
        return constant_table(position)
    # A few onsets and durations on the boundary grid, so that stalled
    # tables share identity through the memo and their rows tie with others.
    return stalls.apply(
        draw(st.sampled_from(shared + views)),
        draw(st.sampled_from((0.0, 0.5, 1.0, 2.5))),
        draw(st.sampled_from((0.25, 1.0, 3.0))),
    )


@st.composite
def _round_inputs(draw):
    shared_a = draw(_prefix_views())
    shared_b = draw(_prefix_views())
    views = draw(_trajectory_views())
    stalls = StallTransform()
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 40))
    entries = []
    for index in range(count):
        table_a = draw(
            _side_table(shared_a, views, stalls, seed + 2 * index, (float(index), -1.0))
        )
        table_b = draw(
            _side_table(shared_b, views, stalls, seed + 2 * index + 1, (float(index), 2.0))
        )
        scan_from = draw(st.one_of(st.just(0.0), _TIMES))
        if draw(st.integers(0, 4)) == 0:
            # A budget cap can land at or before scan_from.
            horizon = draw(st.floats(min_value=0.0, max_value=scan_from))
        else:
            horizon = scan_from + draw(_TIMES)
        entries.append((table_a, table_b, scan_from, horizon))
    return _round(entries)


def _arrays(windows):
    return {
        "starts": windows.starts,
        "durations": windows.durations,
        "offsets": windows.offsets,
        "counts": windows.counts,
        **{f"state{k}": column for k, column in enumerate(windows.states)},
    }


def _oracle_windows(round_inputs):
    """The oracle's windows, fed every entry's materialized tables.

    Each distinct table is materialized once, so tables shared by identity
    stay shared.
    """
    tables_a, tables_b, scan_from, horizon, _ = round_inputs
    explicit = {}

    def table(view):
        if id(view) not in explicit:
            explicit[id(view)] = view.materialize()
        return explicit[id(view)]

    return build_windows_oracle.build_windows(
        [
            _Record(table(table_a), table(table_b), end, start)
            for table_a, table_b, end, start in zip(
                tables_a, tables_b, horizon.tolist(), scan_from.tolist()
            )
        ]
    )


def assert_same_windows(mine, reference):
    theirs = _arrays(reference)
    for name, array in _arrays(mine).items():
        other = theirs[name]
        assert array.dtype == other.dtype, name
        assert array.shape == other.shape, name
        assert array.tobytes() == other.tobytes(), name


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_round_inputs(), st.sampled_from((1, 3, rounds._LONG_RANGE)))
def test_rank_merge_matches_lexsort_oracle(round_inputs, long_range):
    # Views map long row ranges on their own and short ones together; a
    # drawn threshold sends the drawn (short) views down both paths.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounds, "_LONG_RANGE", long_range)
        windows = build_windows(*round_inputs)
    assert_same_windows(windows, _oracle_windows(round_inputs))


def test_ties_put_a_first_and_collapse_onto_one_window():
    # A opens rows at 1 and 2, B at 2 (twice) and 3: the three boundaries at
    # time 2 become one window whose rows count all of them.
    table_a = _table(np.array([0.0, 1.0, 2.0]), 1)
    table_b = _table(np.array([0.0, 2.0, 2.0, 3.0]), 2)
    round_inputs = _round([(table_a, table_b, 0.0, 4.0)])
    windows = build_windows(*round_inputs)
    assert windows.starts.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert windows.durations.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert windows.counts.tolist() == [4]
    # The window at time 2 moves with A's row 2 and B's row 2.
    assert windows.states[2][2] == table_a.vel_x[2]
    assert windows.states[6][2] == table_b.vel_x[2]
    assert_same_windows(windows, _oracle_windows(round_inputs))


def test_boundaries_at_time_zero_keep_the_first_window():
    # Zero-duration first rows put boundaries at 0 == scan_from: the entry's
    # first window stays as a zero-length window ahead of them.
    table_a = _table(np.array([0.0, 0.0, 1.0]), 3)
    table_b = _table(np.array([0.0, 0.0]), 4)
    round_inputs = _round([(table_a, table_b, 0.0, 2.0)])
    windows = build_windows(*round_inputs)
    assert windows.starts.tolist() == [0.0, 0.0, 1.0]
    assert windows.durations.tolist() == [0.0, 1.0, 1.0]
    assert_same_windows(windows, _oracle_windows(round_inputs))


def test_capped_horizon_yields_one_clamped_window():
    table = _table(np.array([0.0, 1.0, 2.0, 3.0]), 5)
    round_inputs = _round([(table, table, 2.5, 1.5), (table, table, 0.5, 2.5)])
    windows = build_windows(*round_inputs)
    assert windows.counts.tolist() == [1, 3]
    assert windows.starts.tolist() == [2.5, 0.5, 1.0, 2.0]
    assert windows.durations.tolist() == [0.0, 0.5, 1.0, 0.5]
    assert_same_windows(windows, _oracle_windows(round_inputs))
