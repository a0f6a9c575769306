"""Property suite for trajectory views: rows, row lookups and range cuts.

A :class:`~repro.motion.compiler.TrajectoryView` is one agent's table as the
shared local rows of a :class:`~repro.motion.compiler.LocalProgramBuilder`
seen through the agent's frame.  Pinned here against the explicit table
(:meth:`~repro.motion.compiler.TrajectoryView.materialize`) and the lazy
event-engine compiler: every row equals the lazy segment bit for bit, and
every cut the batch engine takes on a view — the grouped range cuts of
:func:`repro.sim.rounds.build_windows` and of the driver's segment-cursor
counts, over many entries of one builder or over a group of one entry —
equals ``searchsorted`` on the materialized start times, also where rounding
maps long runs of local times onto one absolute time.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    compile_trajectory,
    constant_table,
    exact_counts,
)
from repro.sim import rounds
from view_strategies import agent_specs, local_programs

#: Slow-tier health checks and deadline; the example budget is the active
#: profile's, so the deep CI step runs these properties 1,000 times.
PROPERTY_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

_COLUMNS = ("start_time", "duration", "start_x", "start_y", "vel_x", "vel_y")


def _prefix(builder, draw):
    """A snapshot of the whole program or of a drawn number of its rows."""
    full = builder.snapshot(math.inf)
    if len(full) > 1 and draw(st.booleans()):
        return builder.snapshot(math.inf, max_steps=draw(st.integers(1, len(full) - 1)))
    return full


def _lone_cut(table, time, strict):
    """The grouped range cut of ``table`` at ``time``, as a group of one entry."""
    side = rounds._SideRuns([table], np.zeros(1), np.zeros(1))
    return int(rounds._range_cuts(side, np.array([time]), strict)[0])


def _probe_times(draw, table, count=6):
    """Start times of the table, their neighbouring floats, and random times."""
    times = table.start_time
    picks = []
    for _ in range(count):
        at = float(times[draw(st.integers(0, len(times) - 1))])
        picks.append(float(np.nextafter(at, draw(st.sampled_from((-math.inf, math.inf))))))
        picks.append(at)
    picks.append(draw(st.floats(min_value=0.0, max_value=float(times[-1]) * 1.5 + 1.0)))
    return picks


@PROPERTY_SETTINGS
@given(local_programs(), agent_specs(), st.data())
def test_view_rows_equal_the_lazy_segments(blocks, spec, data):
    builder = LocalProgramBuilder(blocks)
    local = _prefix(builder, data.draw)
    table = IncrementalTableCompiler(spec).table(local).materialize()
    lazy = list(compile_trajectory(spec, blocks))
    assert table.segments <= len(lazy) + 1
    count = table.segments
    for name, values in zip(
        _COLUMNS,
        zip(*((s.start_time, s.duration, *s.start_pos, *s.velocity) for s in lazy[:count])),
    ):
        assert getattr(table, name)[:count].tobytes() == np.array(values).tobytes(), name
    if local.complete:
        assert len(table) == count + 1 and math.isinf(table.duration[-1])
        if lazy:
            assert (table.start_time[-1], table.start_x[-1], table.start_y[-1]) == (
                lazy[-1].end_time, *lazy[-1].end_pos
            )


@PROPERTY_SETTINGS
@given(local_programs(), st.lists(agent_specs(), min_size=1, max_size=4), st.data())
def test_cuts_equal_searchsorted_on_the_materialized_column(blocks, specs, data):
    builder = LocalProgramBuilder(blocks)
    views = [
        IncrementalTableCompiler(spec).table(_prefix(builder, data.draw)) for spec in specs
    ]
    if data.draw(st.booleans()):
        views.append(constant_table((0.5, -1.5)))
    explicit = [view.materialize() for view in views]

    entries, horizons, scan_froms = [], [], []
    for t, (view, table) in enumerate(zip(views, explicit)):
        times = table.start_time
        for bound in _probe_times(data.draw, table):
            # The view alone: a source group of one entry.
            for strict, side in ((True, "left"), (False, "right")):
                assert _lone_cut(view, bound, strict) == times[1:].searchsorted(
                    bound, side=side
                )
            # The raw cut over the local rows, both sides.
            local = times[view.pre :]
            for strict, side in ((True, "left"), (False, "right")):
                cut = exact_counts(
                    view.source.state_columns()[0], np.array([view.rows]),
                    np.array([view.frame[0]]), np.array([view.frame[1]]),
                    np.array([bound]), strict,
                )
                assert cut[0] == local.searchsorted(bound, side=side)
            entries.append(t)
            horizons.append(bound)
            scan_froms.append(
                data.draw(st.one_of(st.just(0.0), st.floats(0.0, max(bound, 0.0))))
            )

    # The grouped cuts build_windows and the driver take: one search over
    # every (selected) entry of the shared builder, each with its own frame.
    horizons, scan_froms = np.array(horizons), np.array(scan_froms)
    side = rounds._SideRuns([views[t] for t in entries], scan_froms, horizons)
    reference = rounds._SideRuns([explicit[t] for t in entries], scan_froms, horizons)
    assert np.array_equal(side.base, reference.base)
    assert np.array_equal(side.counts, reference.counts)
    selected = np.array([data.draw(st.booleans()) for _ in entries])
    for times in (horizons, scan_froms):
        for strict in (True, False):
            for mask in (None, selected):
                assert np.array_equal(
                    rounds._range_cuts(side, times, strict, mask),
                    rounds._range_cuts(reference, times, strict, mask),
                )

    # The mapped rows of any range equal the materialized rows bit for bit,
    # whether a range is mapped on its own or with per-row frames.
    low = np.array([data.draw(st.integers(0, len(view) - 1)) for view in views])
    top = np.array(
        [data.draw(st.integers(lo + 1, len(view))) for lo, view in zip(low, views)]
    )
    long_range = data.draw(st.sampled_from((1, 3, rounds._LONG_RANGE)))
    zeros = np.zeros(len(views))
    for group in rounds._SideRuns(views, zeros, zeros).groups:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rounds, "_LONG_RANGE", long_range)
            mapped = rounds._group_rows([views[t] for t in group], low[group], top[group])
        for c, name in enumerate(("start_time", "start_x", "start_y", "vel_x", "vel_y")):
            expected = np.concatenate(
                [getattr(explicit[t], name)[low[t] : top[t]] for t in group]
            )
            assert mapped[c].tobytes() == expected.tobytes(), name


def test_a_late_wake_and_tiny_durations_make_long_runs_of_equal_times():
    # 2000 rows of 1e-12 local time after a wake of 1e6: about a hundred
    # consecutive rows share each absolute start time, far beyond the one
    # neighbour an estimate-and-step cut would try.
    from repro.core.instance import Instance
    from repro.motion.program import ColumnBlock

    block = ColumnBlock(np.zeros(2000), np.zeros(2000), np.full(2000, 1e-12))
    spec = Instance(r=0.5, x=1.0, y=0.0, tau=1.0, t=1e6).agent_b()
    view = IncrementalTableCompiler(spec).table(LocalProgramBuilder([block]).snapshot(math.inf))
    times = view.materialize().start_time
    runs = np.diff(np.flatnonzero(np.diff(times[1:]) != 0.0))
    assert runs.max() > 50
    for bound in np.unique(times):
        for at in (float(bound), float(np.nextafter(bound, -math.inf))):
            for strict, side in ((True, "left"), (False, "right")):
                assert _lone_cut(view, at, strict) == times[1:].searchsorted(at, side=side)
