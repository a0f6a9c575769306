"""Tests for the bulk (columnar) mode of the motion compiler.

The contract under test: the :class:`TrajectoryView` an
:class:`IncrementalTableCompiler` hands out materializes to exactly the lazy
:func:`compile_trajectory` stream -- the same rows, to the last bit, however
the program is partitioned into blocks and however the prefix grows -- plus a
trailing stationary row for finite programs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from profiles import SLOW_SETTINGS, STANDARD_SETTINGS
from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.base import FunctionAlgorithm
from repro.algorithms.cow_walk import planar_cow_walk
from repro.algorithms.schedules import CompactSchedule
from repro.core.instance import Instance
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    compile_trajectory,
)
from repro.motion.instructions import Move, Wait
from repro.motion.program import ColumnBlock, instruction_blocks
from repro.sim.engine import _AgentCursor
from repro.sim.rounds import ProgramSource
from repro.sim.timebase import FloatTimebase
from repro.util.errors import AlgorithmContractError

# Subnormal components are included: exact equality does not depend on how
# many mantissa bits a value carries.
_coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)

_instruction = st.one_of(
    st.builds(Wait, st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False)),
    st.builds(Move, _coord, _coord),
)
instructions = st.lists(_instruction, max_size=30)

#: The instruction adapter's block size: every partition must give the same rows.
chunks = st.integers(1, 2048)

instance_specs = st.builds(
    Instance,
    r=st.just(0.5),
    x=st.floats(-3.0, 3.0),
    y=st.floats(-3.0, 3.0),
    phi=st.floats(0.0, 6.28),
    tau=st.floats(0.25, 4.0),
    v=st.floats(0.25, 4.0),
    t=st.floats(0.0, 3.0),
    chi=st.sampled_from([-1, 1]),
)


def _local(program, chunk=1024):
    """The whole (finite) instruction program as a builder snapshot."""
    return LocalProgramBuilder(instruction_blocks(program, chunk=chunk)).snapshot(math.inf)


def _table(spec, program, chunk=1024):
    return IncrementalTableCompiler(spec).table(_local(program, chunk)).materialize()


def _agent(instance, role):
    return instance.agent_a() if role == "A" else instance.agent_b()


def _rows(table, count):
    """The first ``count`` rows of a table as ``(t, duration, x, y, vx, vy)`` tuples."""
    columns = (
        table.start_time, table.duration, table.start_x, table.start_y,
        table.vel_x, table.vel_y,
    )
    return list(zip(*(column[:count].tolist() for column in columns)))


def _segment_rows(segments):
    return [
        (s.start_time, s.duration, *s.start_pos, *s.velocity) for s in segments
    ]


class TestLocalProgramBuilder:
    def test_empty_program(self):
        table = _local([])
        assert len(table) == 0 and table.complete
        assert table.total_duration == 0.0

    def test_null_instructions_dropped(self):
        table = _local([Wait(0.0), Move(0.0, 0.0), Wait(1.0), Move(3.0, 4.0)])
        assert len(table) == 2
        assert table.duration[0] == 1.0
        assert table.duration[1] == 5.0  # move length

    def test_budgeted_snapshot_covers_requested_time(self):
        program = [Wait(1.0)] * 20
        builder = LocalProgramBuilder(instruction_blocks(program))
        snap = builder.snapshot(4.5)
        assert snap.total_duration >= 4.5
        assert not snap.complete
        full = builder.snapshot(1e9)
        assert full.complete and len(full) == 20

    def test_snapshot_views_are_stable_across_growth(self):
        def stream():
            k = 0.0
            while True:
                k += 1.0
                yield Wait(k)

        builder = LocalProgramBuilder(instruction_blocks(stream()))
        early = builder.snapshot(1.0)
        early_durations = early.duration.copy()
        builder.ensure_time(1e7)
        assert np.array_equal(early.duration, early_durations)

    def test_max_steps_bound(self):
        builder = LocalProgramBuilder(instruction_blocks(Wait(1.0) for _ in range(10**6)))
        snap = builder.snapshot(1e18, max_steps=100)
        assert len(snap) == 100 and not snap.complete

    @pytest.mark.parametrize("chunk", [1, 1024])
    def test_budget_zero_snapshot_is_the_first_row(self, chunk):
        # The prefix covering local time 0 is the first row, whether or not
        # an earlier request has read rows into the builder.
        program = [Wait(0.0), Move(3.0, 4.0), Wait(1.0), Wait(2.0)]
        fresh = LocalProgramBuilder(instruction_blocks(program, chunk=chunk))
        filled = LocalProgramBuilder(instruction_blocks(program, chunk=chunk))
        filled.snapshot(4.0)
        first, again = fresh.snapshot(0.0), filled.snapshot(0.0)
        assert len(first) == len(again) == 1
        assert first.duration.tolist() == again.duration.tolist() == [5.0]
        assert first.complete == again.complete is False
        assert len(LocalProgramBuilder(()).snapshot(0.0)) == 0


def _sequential_fold(durations):
    total, fold = 0.0, []
    for duration in durations:
        total = total + duration
        fold.append(total)
    return fold


class TestBuilderBlocks:
    @pytest.mark.parametrize("chunk", [1, 7, 1024, 5000])
    def test_cumulative_is_the_sequential_fold_for_any_block_size(self, chunk):
        # Random waits make an unseeded per-block cumsum round differently
        # from the sequential fold on most rows.
        rng = np.random.default_rng(13)
        waits = [Wait(float(d)) for d in rng.uniform(0.0, 10.0, 5000)]
        builder = LocalProgramBuilder(instruction_blocks(waits, chunk=chunk))
        table = builder.snapshot(math.inf)
        assert table.complete and len(table) == 5000
        assert table.cumulative.tolist() == _sequential_fold(w.duration for w in waits)

    def test_null_rows_inside_a_block_are_dropped(self):
        block = ColumnBlock(
            np.array([0.0, 3.0, 0.0]), np.array([0.0, 4.0, 0.0]), np.array([0.0, 5.0, 2.0])
        )
        table = LocalProgramBuilder([block]).snapshot(math.inf)
        assert table.duration.tolist() == [5.0, 2.0]
        assert table.cumulative.tolist() == [5.0, 7.0]
        assert table.dx.tolist() == [3.0, 0.0]

    @pytest.mark.parametrize(
        "dx, dy, duration",
        [
            (math.nan, 0.0, 1.0),
            (0.0, math.inf, 1.0),
            (0.0, 0.0, math.inf),
            (0.0, 0.0, math.nan),
            (0.0, 0.0, -1.0),
        ],
    )
    def test_non_finite_block_is_rejected(self, dx, dy, duration):
        good = ColumnBlock(np.array([1.0]), np.array([0.0]), np.array([1.0]))
        bad = ColumnBlock(np.array([dx]), np.array([dy]), np.array([duration]))
        builder = LocalProgramBuilder([good, bad])
        with pytest.raises(AlgorithmContractError):
            builder.snapshot(math.inf)

    def test_finite_program_is_complete_as_soon_as_its_last_row_is_read(self):
        builder = LocalProgramBuilder(instruction_blocks([Wait(1.0)] * 4, chunk=2))
        table = builder.snapshot(4.0)
        assert len(table) == 4 and table.complete


class TestTrailingRow:
    """The trailing row of a finite program starts where the event engine's
    cursor parks the finished agent: where the last segment ends, at the
    local totals mapped through the agent's frame."""

    INSTANCE = Instance(r=0.5, x=3.0, y=1.0, phi=0.7, tau=1.3, v=0.9, t=2.5, chi=1)

    @staticmethod
    def _program():
        rng = np.random.default_rng(5)
        program = []
        for _ in range(3000):
            if rng.random() < 0.2:
                program.append(Wait(float(rng.uniform(0.1, 3.0))))
            else:
                program.append(Move(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))))
        return program

    @pytest.mark.parametrize("role", ["A", "B"])
    def test_both_compilers_match_the_event_engine_exactly(self, role):
        spec = _agent(self.INSTANCE, role)
        program = self._program()
        cursor = _AgentCursor(spec, instruction_blocks(program), FloatTimebase())
        cursor.advance_past(math.inf)
        assert cursor.exhausted
        expected = (cursor.current.start_time, *cursor.current.start_pos)
        table = _table(spec, program)
        assert table.exhausted and math.isinf(table.duration[-1])
        assert (table.start_time[-1], table.start_x[-1], table.start_y[-1]) == expected
        last = list(compile_trajectory(spec, instruction_blocks(program)))[-1]
        assert (last.end_time, *last.end_pos) == expected

    def test_empty_program_holds_the_start_from_wake_up(self):
        spec = self.INSTANCE.agent_b()
        table = _table(spec, [])
        assert table.start_time[-1] == spec.units.wake_time
        assert (table.start_x[-1], table.start_y[-1]) == spec.start


class TestTableParity:
    @SLOW_SETTINGS
    @given(instance_specs, st.sampled_from(["A", "B"]), instructions, chunks)
    def test_rows_equal_the_lazy_segments(self, instance, role, program, chunk):
        spec = _agent(instance, role)
        lazy = list(compile_trajectory(spec, instruction_blocks(program, chunk=chunk)))
        table = _table(spec, program, chunk)

        # Lazy segments map 1:1 onto table rows (both drop null instructions
        # and both prepend a sleep segment when the agent wakes late), with
        # all six columns equal.
        assert table.segments == len(lazy)
        assert _rows(table, len(lazy)) == _segment_rows(lazy)

        # Finite program: one trailing infinite stationary row at the final
        # position, so the table covers all of time.
        assert table.exhausted
        assert len(table) == len(lazy) + 1
        assert math.isinf(table.duration[-1])
        assert table.vel_x[-1] == 0.0 and table.vel_y[-1] == 0.0
        if lazy:
            assert table.finish_time == lazy[-1].end_time
        # Each segment ends exactly where the next one starts.
        for segment, following in zip(lazy, lazy[1:]):
            assert segment.end_time == following.start_time
            assert segment.end_pos == following.start_pos

    @STANDARD_SETTINGS
    @given(instance_specs, st.sampled_from(["A", "B"]), st.integers(1, 2))
    def test_start_times_and_positions_are_bit_identical_to_lazy(self, instance, role, phase):
        # Algorithm 1's native column blocks (rotated cow-walk sweeps, not
        # instruction rows): both compilers fold from the wake time and start
        # point in the same order, so every row agrees to the last bit.
        spec = _agent(instance, role)
        algorithm = AlmostUniversalRV(CompactSchedule())
        lazy = list(compile_trajectory(spec, algorithm.phase_blocks(phase)))
        local = LocalProgramBuilder(algorithm.phase_blocks(phase)).snapshot(math.inf)
        table = IncrementalTableCompiler(spec).table(local).materialize()
        assert table.segments == len(lazy) > 0
        assert _rows(table, len(lazy)) == _segment_rows(lazy)

    @SLOW_SETTINGS
    @given(
        instance_specs, st.lists(_instruction, min_size=16, max_size=60), chunks,
        st.integers(1, 4),
    )
    def test_rows_do_not_depend_on_prefix_growth(self, instance, program, chunk, step):
        # The batch driver extends one compiler round by round; a table grown
        # ``step`` rows at a time equals the one compiled in a single pass.
        # (Long programs, so most examples extend the compiler many times.)
        spec = instance.agent_b()
        builder = LocalProgramBuilder(instruction_blocks(program, chunk=chunk))
        full = builder.snapshot(math.inf)
        grown = IncrementalTableCompiler(spec)
        for rows in range(step, len(full), step):
            grown.table(builder.snapshot(math.inf, max_steps=rows))
        table = grown.table(full).materialize()
        assert _rows(table, len(table)) == _rows(_table(spec, program), len(table))

    @STANDARD_SETTINGS
    @given(instance_specs, st.floats(0.1, 50.0))
    # Row 2 of this B starts at 1.5 and lasts 1.0000000000000002, which sums
    # to 2.5, while row 3 starts at 2.5000000000000004: time 2.5 lies in no
    # row's [start, start + duration).
    @example(
        Instance(r=0.5, x=0.0, y=0.0, phi=0.0, tau=0.25000000000000006, v=1.0, t=1.0, chi=-1),
        2.5,
    )
    def test_states_at_matches_segment_states(self, instance, when):
        spec = instance.agent_b()
        table = _table(spec, planar_cow_walk(1))
        times = np.array([0.0, when, table.boundaries()[0] if len(table) > 1 else when])
        xs, ys, vxs, vys = table.states_at(times)
        for time, x, y in zip(times, xs, ys):
            # A row holds the times from its start to the next row's start: a
            # row's start + duration can end an ulp before the next one starts.
            segment = None
            for k in range(len(table)):
                if table.start_time[k] <= time:
                    segment = k
            assert segment is not None
            offset = time - table.start_time[segment]
            assert x == pytest.approx(
                table.start_x[segment] + offset * table.vel_x[segment], abs=1e-9
            )
            assert y == pytest.approx(
                table.start_y[segment] + offset * table.vel_y[segment], abs=1e-9
            )


class TestProgramSourceTables:
    """The batch driver's horizon-bounded tables (``ProgramSource.round_tables``)."""

    ALGORITHM = FunctionAlgorithm(lambda *_: planar_cow_walk(3), "walk")

    def _b_table(self, instance, horizon, max_segments):
        source = ProgramSource(self.ALGORITHM, max_segments, [instance], [instance.agents()])
        (table,) = source.round_tables("B", np.array([0]), np.array([horizon]))
        return table

    def test_horizon_coverage(self):
        instance = Instance(r=0.5, x=1.0, y=0.0, t=2.0, tau=2.0)
        table = self._b_table(instance, 50.0, max_segments=None)
        assert table.end_time >= 50.0 and not table.exhausted

    def test_max_segments_truncates(self):
        instance = Instance(r=0.5, x=1.0, y=0.0)
        table = self._b_table(instance, 1e9, max_segments=10)
        assert not table.exhausted
        # Each agent may read two rows past the combined budget, so the exact
        # cutoff can be computed afterwards.
        assert table.segments == 12
