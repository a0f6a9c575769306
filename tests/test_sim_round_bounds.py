"""Property suite for the columnar round bounds.

:func:`repro.sim.rounds.round_bounds` computes a whole round's budget-capped
horizons, budget flags, scan limits and finish times at once.  The
per-instance ``RoundEntry`` it replaced is kept verbatim in
:mod:`round_entry_oracle`; on random rounds every column must equal the
oracle's, entry for entry and bit for bit.  The draws aim at the rules'
edges: entries over the combined segment budget, with and without a frozen
side's extra segments; tables truncated one ulp, a few 1e-9 of the horizon
(where the coverage net's ``math.isclose`` tolerance decides) or a whole
segment short of the horizon; a budget cutoff exactly at ``max_time``; and
horizons at or below ``scan_from``.

The driver's residue — each stopping entry's segment-cursor counts, taken
by one grouped cut per side (:func:`repro.sim.rounds.cursor_segments`), and
the table rows a freeze reads back from the round's gather columns
(:meth:`repro.sim.rounds.RoundWindows.table_rows`) — must equal the
oracle's per-instance ``segments_in_play`` and the scalar row rule on the
materialized tables.  Those draws add stalled explicit sides and a late
wake with tiny durations (long runs of equal absolute times), and put the
stopping time on a budget cutoff at a row start, on a window start, at a
freeze offset equal to the window's duration and at 0.0.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    TrajectoryTable,
    constant_table,
)
from repro.motion.program import ColumnBlock
from repro.sim.rounds import StallTransform, build_windows, cursor_segments, round_bounds
from round_entry_oracle import RoundEntry, entry_state_arrays
from test_sim_build_windows import _start_times, _table
from view_strategies import agent_specs, local_programs

#: One instance serves every oracle entry: the bounds never read it.
_INSTANCE = Instance(r=0.5, x=1.0, y=0.0)

_HORIZONS = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25),
    # Around 1, where the coverage net's relative and absolute tolerances
    # meet.
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e3, max_value=1e7),
)


def _truncated(end, rows, seed):
    """A table cut from a longer program: ``rows`` rows starting before ``end``."""
    rng = np.random.default_rng(seed)
    start_time = np.concatenate(([0.0], np.sort(rng.uniform(0.0, end, rows - 1))))
    return TrajectoryTable(
        start_time=start_time,
        duration=np.append(np.diff(start_time), end - start_time[-1]),
        start_x=rng.uniform(-5.0, 5.0, rows),
        start_y=rng.uniform(-5.0, 5.0, rows),
        vel_x=rng.uniform(-1.0, 1.0, rows),
        vel_y=rng.uniform(-1.0, 1.0, rows),
        exhausted=False,
        segments=rows,
        end_time=end,
    )


@st.composite
def _views(draw):
    """Prefixes of one local program under a few agent frames."""
    builder = LocalProgramBuilder(draw(local_programs(max_rows=24)))
    full = builder.snapshot(math.inf)
    compilers = [IncrementalTableCompiler(draw(agent_specs())) for _ in range(2)]
    views = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(0, len(full)))
        local = full if rows >= len(full) else builder.snapshot(math.inf, max_steps=rows)
        views.append(draw(st.sampled_from(compilers)).table(local))
    return views


@st.composite
def _side(draw, horizon, views, seed, frozen):
    if frozen:
        return constant_table((float(seed % 7), -1.0))
    kind = draw(
        st.sampled_from(("exhausted", "covering", "ulp", "near", "segment", "view"))
    )
    if kind == "exhausted":
        return _table(draw(_start_times(12)), seed)
    if kind == "view":
        return draw(st.sampled_from(views))
    rows = draw(st.integers(1, 12))
    if kind == "covering":
        end = horizon + draw(st.floats(min_value=0.0, max_value=4.0))
    elif kind == "ulp":
        end = float(np.nextafter(horizon, -math.inf))
    elif kind == "near":
        # Inside and around the band where ``math.isclose`` and
        # ``np.isclose`` disagree.
        end = horizon - draw(st.floats(min_value=0.5e-9, max_value=2.5e-9)) * max(
            1.0, horizon
        )
    else:
        end = horizon - draw(st.sampled_from((0.25, 1.0))) * max(1.0, horizon / 8.0)
    return _truncated(max(end, 1e-3), rows, seed)


@st.composite
def _rounds(draw):
    """``(tables_a, tables_b, scan_from, horizon, extra, max_segments, max_time)``."""
    views = draw(_views())
    seed = draw(st.integers(0, 2**32 - 1))
    max_segments = draw(st.one_of(st.integers(1, 30), st.just(10**9)))
    tables_a, tables_b, scan_from, horizon, extra = [], [], [], [], []
    for index in range(draw(st.integers(1, 24))):
        h = draw(_HORIZONS)
        # Only one agent ever freezes, and its pre-freeze count rides along.
        frozen = draw(st.sampled_from((None, None, "A", "B")))
        tables_a.append(draw(_side(h, views, seed + 2 * index, frozen == "A")))
        tables_b.append(draw(_side(h, views, seed + 2 * index + 1, frozen == "B")))
        # An entry over budget has a segment start to cut at (the oracle's
        # domain): extra segments need a live side with segments.
        live = tables_a[-1].segments + tables_b[-1].segments
        extra.append(draw(st.integers(0, 40)) if frozen and live else 0)
        if draw(st.integers(0, 4)) == 0:
            scan_from.append(draw(st.floats(min_value=h, max_value=h + 8.0)))
        else:
            scan_from.append(draw(st.floats(min_value=0.0, max_value=h)))
        horizon.append(h)
    max_time = draw(st.floats(min_value=1.0, max_value=1e8))
    over = [
        k
        for k in range(len(horizon))
        if tables_a[k].segments + tables_b[k].segments + extra[k] > max_segments
    ]
    if over and draw(st.booleans()):
        # Put max_time exactly on one over-budget entry's cutoff.
        k = draw(st.sampled_from(over))
        merged = np.sort(
            np.concatenate(
                (
                    tables_a[k].start_times(tables_a[k].segments),
                    tables_b[k].start_times(tables_b[k].segments),
                )
            )
        )
        max_time = float(merged[max(max_segments - extra[k], 0)])
    return tables_a, tables_b, scan_from, horizon, extra, max_segments, max_time


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rounds())
def test_round_bounds_match_the_round_entry_oracle(drawn):
    tables_a, tables_b, scan_from, horizon, extra, max_segments, max_time = drawn
    entries = [
        RoundEntry(
            k, _INSTANCE, table_a, table_b, h, start, max_segments, max_time,
            extra_segments=e,
        )
        for k, (table_a, table_b, h, start, e) in enumerate(
            zip(tables_a, tables_b, horizon, scan_from, extra)
        )
    ]
    limited, capped, finish = entry_state_arrays(entries)
    limit = np.array([entry.limit for entry in entries])
    columns = round_bounds(
        tables_a, tables_b, np.array(horizon), np.array(extra, dtype=np.int64),
        max_segments, max_time,
    )
    for name, mine, theirs in zip(
        ("horizon", "budget_limited", "limit", "finish"),
        columns,
        (capped, limited, limit, finish),
    ):
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


#: A late wake and 1e-12 durations: about a hundred consecutive rows share
#: each absolute start time.
_LATE_SPEC = Instance(r=0.5, x=1.0, y=0.0, tau=1.0, t=1e6).agent_b()
_LATE_BUILDER = LocalProgramBuilder(
    [ColumnBlock(np.zeros(400), np.zeros(400), np.full(400, 1e-12))]
)


@st.composite
def _late_view(draw):
    """A prefix view of the late-wake program (one compiler per draw)."""
    rows = draw(st.integers(1, 400))
    local = _LATE_BUILDER.snapshot(math.inf, max_steps=rows)
    return IncrementalTableCompiler(_LATE_SPEC).table(local)


@st.composite
def _residue_rounds(draw):
    """A bounded round with stalled and late-wake sides mixed in.

    Empty tables (a prefix of no rows, which the bounds allow) are replaced:
    the driver's tables always hold a row.
    """
    tables_a, tables_b, scan_from, horizon, extra, max_segments, max_time = draw(_rounds())
    stalls = StallTransform()
    for tables in (tables_a, tables_b):
        for k, table in enumerate(tables):
            kind = draw(st.sampled_from(("kept", "kept", "stalled", "late")))
            if kind == "stalled" and table.segments:
                tables[k] = stalls.apply(
                    table,
                    draw(st.sampled_from((0.0, 0.5, 1.0, 2.5))),
                    draw(st.sampled_from((0.25, 1.0, 3.0))),
                )
            elif kind == "late" or not len(table):
                tables[k] = draw(_late_view())
                times = tables[k].start_times(len(tables[k]))
                horizon[k] = draw(
                    st.one_of(st.sampled_from(times.tolist()), st.just(horizon[k]))
                )
                scan_from[k] = min(scan_from[k], horizon[k])
    capped, _, limit, _ = round_bounds(
        tables_a, tables_b, np.array(horizon), np.array(extra, dtype=np.int64),
        max_segments, max_time,
    )
    return tables_a, tables_b, np.array(scan_from), capped, limit, extra, max_segments, max_time


def _scalar_row(table, start, first_window):
    """The row a freeze read before the gather columns: a scalar cut."""
    return 0 if first_window and start <= 0.0 else table.count_boundaries(start)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_residue_rounds(), st.data())
def test_residue_counts_and_freeze_rows_match_the_round_entry_oracle(drawn, data):
    tables_a, tables_b, scan_from, horizon, limit, extra, max_segments, max_time = drawn
    windows = build_windows(tables_a, tables_b, scan_from, horizon, limit)
    offsets = windows.offsets
    explicit = {}

    def materialized(table):
        if id(table) not in explicit:
            explicit[id(table)] = table.materialize()
        return explicit[id(table)]

    n = len(tables_a)
    until = np.empty(n)
    for k in range(n):
        window = data.draw(st.integers(int(offsets[k]), int(offsets[k + 1]) - 1))
        start = float(windows.starts[window])
        stop = data.draw(st.sampled_from(("terminal", "met", "freeze", "end", "zero")))
        if stop == "terminal":
            # A budget-capped horizon lies on a row start.
            until[k] = horizon[k]
        elif stop == "met":
            until[k] = start
        elif stop == "freeze":
            until[k] = start + data.draw(
                st.floats(min_value=0.0, max_value=float(windows.durations[window]))
            )
        elif stop == "end":
            # A freeze at the window's very end: on the next boundary.
            until[k] = start + float(windows.durations[window])
        else:
            until[k] = 0.0
    selected = np.array([data.draw(st.booleans()) for _ in range(n)])
    selected[data.draw(st.integers(0, n - 1))] = True
    counts_a = cursor_segments(windows.side_a, until, selected)
    counts_b = cursor_segments(windows.side_b, until, selected)

    for k in np.flatnonzero(selected).tolist():
        entry = RoundEntry(
            k, _INSTANCE, materialized(tables_a[k]), materialized(tables_b[k]),
            float(horizon[k]), float(scan_from[k]), max_segments, max_time,
            extra_segments=extra[k],
        )
        assert (int(counts_a[k]), int(counts_b[k])) == entry.segments_in_play(until[k])

    # Every window of every entry, so freeze windows of all kinds are among
    # them: the first one at time 0, runs of equal starts, the final one.
    entries = np.repeat(np.arange(n), windows.counts)
    at = np.arange(len(windows))
    rows_a, rows_b = windows.table_rows(at, entries)
    for w, k in enumerate(entries.tolist()):
        start = float(windows.starts[w])
        first_window = w == offsets[k]
        assert rows_a[w] == _scalar_row(materialized(tables_a[k]), start, first_window)
        assert rows_b[w] == _scalar_row(materialized(tables_b[k]), start, first_window)
