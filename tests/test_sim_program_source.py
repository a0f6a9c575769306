"""The batch engine's trajectory tables: views served by ``ProgramSource``.

Every agent's table is a :class:`~repro.motion.compiler.TrajectoryView` of a
shared :class:`~repro.motion.compiler.LocalProgramBuilder` under the agent's
frame, so a batch run compiles no per-agent rows.  Pinned here: a
non-universal program materializes nothing either, views keep the
identities the window dedup relies on (one view per agent and prefix, one
builder per universal program, one per instance and role otherwise), the
view's scalar lookups (pre-wake row, rows, start times, end and finish
times) equal its explicit table, and a stalled prefix ends where the stalled
program's next row starts.  Universal runs and warm repeats are pinned in
``tests/test_sim_asymmetric_batch_parity.py::TestRepeatedRuns``.
"""

import math

import numpy as np
import pytest

from repro.algorithms.base import FunctionAlgorithm
from repro.algorithms.cow_walk import planar_cow_walk
from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.motion import compiler as motion_compiler
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    absolute_state,
    agent_frame,
    constant_table,
    stalled_table,
)
from repro.motion.instructions import Move, Wait
from repro.motion.program import instruction_blocks
from repro.sim import rounds
from repro.sim.batch import simulate_batch
from repro.sim.rounds import ProgramSource, StallTransform

WALK = FunctionAlgorithm(lambda *_: planar_cow_walk(3), "walk")


@pytest.fixture
def fresh_builders(monkeypatch):
    """Run against an empty builder cache (other suites may have warmed it)."""
    monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})


def _campaign(seed=21, count=4, cls=InstanceClass.TYPE_2):
    return InstanceSampler(seed=seed).batch_of_class(cls, count)


def _view(spec, program, max_steps=None):
    builder = LocalProgramBuilder(instruction_blocks(program))
    local = builder.snapshot(math.inf, max_steps=max_steps)
    return IncrementalTableCompiler(spec).table(local)


_PROGRAM = [Move(1.0, 0.5), Wait(0.75), Move(-2.0, 1.0), Move(0.0, -3.0), Wait(2.0)]
#: Its 4-step prefix ends (at the start of the fifth row) one ulp past the
#: fourth row's start plus duration under ``_LATE``'s B frame.
_ROUNDING = [Move(0.1, 0.2), Wait(0.3), Move(-0.7, 0.1), Move(0.3, -0.3), Wait(1.1)]
_LATE = Instance(r=0.5, x=2.0, y=-1.0, phi=0.9, tau=1.5, v=0.8, t=3.25, chi=-1)
_PROMPT = Instance(r=0.5, x=-1.0, y=2.0, phi=2.1, tau=0.6, v=1.7, t=0.0, chi=1)


class TestViewsCompileNothing:
    def test_non_universal_batch_materializes_no_rows(self):
        before = motion_compiler.rows_compiled_total()
        simulate_batch(_campaign(seed=4, count=2), WALK, max_time=200.0)
        assert motion_compiler.rows_compiled_total() == before

    def test_materialize_counts_every_row(self):
        view = _view(_LATE.agent_b(), _PROGRAM)
        before = motion_compiler.rows_compiled_total()
        view.materialize()
        assert motion_compiler.rows_compiled_total() == before + len(view)


def _source(algorithm, instances, max_segments=None):
    return ProgramSource(
        algorithm, max_segments, instances, [instance.agents() for instance in instances]
    )


def _tables(source, role, rows, horizon):
    """One round's ``role`` tables of instance ``rows``, all at ``horizon``."""
    return source.round_tables(role, np.array(rows), np.full(len(rows), horizon))


def _both_roles(source, horizon):
    """A and B tables of instances 0 and 1, in the order A0, B0, A1, B1."""
    views_a = _tables(source, "A", [0, 1], horizon)
    views_b = _tables(source, "B", [0, 1], horizon)
    return [views_a[0], views_b[0], views_a[1], views_b[1]]


class TestProgramSourceIdentity:
    ALGORITHM = get_algorithm("almost-universal-compact")

    def test_equal_requests_return_one_view(self):
        source = _source(self.ALGORITHM, [_LATE])
        (first,) = _tables(source, "B", [0], 64.0)
        assert _tables(source, "B", [0], 64.0)[0] is first

    def test_agent_a_has_one_view_across_instances(self):
        source = _source(self.ALGORITHM, [_LATE, _PROMPT])
        views = {id(view) for view in _tables(source, "A", [0, 1], 64.0)}
        assert len(views) == 1

    def test_universal_views_share_one_builder(self):
        source = _source(self.ALGORITHM, [_LATE, _PROMPT])
        views = _both_roles(source, 64.0)
        assert len({id(view.source) for view in views}) == 1
        assert len({id(view) for view in views}) == 3  # A's view is shared

    def test_non_universal_builders_are_per_instance_and_role(self):
        source = _source(WALK, [_LATE, _PROMPT])
        views = _both_roles(source, 64.0)
        assert len({id(view.source) for view in views}) == 4
        # A grown horizon extends the builder rather than re-creating it.
        (longer,) = _tables(source, "B", [0], 512.0)
        assert longer.source is views[1].source and len(longer) > len(views[1])

    def test_keyed_builder_is_kept_across_sources(self, fresh_builders):
        first = _source(self.ALGORITHM, [_LATE])
        (view,) = _tables(first, "B", [0], 64.0)
        second = _source(self.ALGORITHM, [_LATE])
        (again,) = _tables(second, "B", [0], 64.0)
        assert again.source is view.source

    def test_views_are_memoized_per_prefix(self):
        builder = LocalProgramBuilder(instruction_blocks(_PROGRAM))
        compiler = IncrementalTableCompiler(_LATE.agent_b())
        short = compiler.table(builder.snapshot(math.inf, max_steps=2))
        assert compiler.table(builder.snapshot(math.inf, max_steps=2)) is short
        full = compiler.table(builder.snapshot(math.inf))
        assert full is not short and full.exhausted and not short.exhausted


class TestViewLookups:
    @pytest.mark.parametrize("instance", [_LATE, _PROMPT], ids=["late", "prompt"])
    def test_rows_and_start_times_equal_the_explicit_table(self, instance):
        view = _view(instance.agent_b(), _PROGRAM)
        table = view.materialize()
        assert len(view) == len(table) and view.segments == table.segments
        for index in range(len(view)):
            assert view.row(index) == table.row(index)
        for count in range(len(view) + 1):
            assert view.start_times(count).tobytes() == table.start_times(count).tobytes()

    def test_late_wake_adds_a_stationary_pre_wake_row(self):
        spec = _LATE.agent_b()
        view = _view(spec, _PROGRAM)
        assert view.pre == 1 and len(view) == len(_PROGRAM) + 2
        assert view.row(0) == (0.0, spec.units.wake_time, *spec.start, 0.0, 0.0)
        assert view.row(1)[0] == spec.units.wake_time

    def test_prompt_agent_has_no_pre_wake_row(self):
        spec = _PROMPT.agent_b()
        view = _view(spec, _PROGRAM)
        assert view.pre == 0 and len(view) == len(_PROGRAM) + 1
        assert view.row(0)[0] == 0.0 and view.row(0)[2:4] == spec.start

    def test_end_and_finish_times(self):
        spec = _LATE.agent_b()
        complete = _view(spec, _PROGRAM)
        table = complete.materialize()
        assert math.isinf(complete.end_time) and complete.end_time == table.end_time
        assert complete.finish_time == table.finish_time is not None
        prefix = _view(spec, _ROUNDING, max_steps=4)
        explicit = prefix.materialize()
        assert not prefix.exhausted and prefix.finish_time is None
        # The start of the row after the prefix, which the explicit table
        # keeps: its last row's start plus duration misses it by an ulp.
        last = explicit.row(len(explicit) - 1)
        assert prefix.end_time == _view(spec, _ROUNDING).row(len(prefix))[0]
        assert prefix.end_time != last[0] + last[1]
        assert explicit.end_time == prefix.end_time

    def test_constant_table_is_one_stationary_row(self):
        view = constant_table((1.5, -2.0))
        table = view.materialize()
        assert len(table) == 1 and table.segments == 0 and table.exhausted
        assert table.row(0) == (0.0, math.inf, 1.5, -2.0, 0.0, 0.0)
        # No boundary, at any time: the grouped cut on a group of one entry.
        side = rounds._SideRuns([view], np.zeros(1), np.zeros(1))
        assert rounds._range_cuts(side, np.array([1e9]), strict=False)[0] == 0
        assert rounds._range_cuts(side, np.array([0.0]), strict=False)[0] == 0
        # Every frozen agent reads the one shared empty program.
        assert constant_table((0.0, 0.0)).source is view.source

    def test_agent_a_frame_is_the_identity(self):
        frame = agent_frame(_LATE.agent_a())
        assert frame == (0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0)

    def test_per_row_frames_map_like_scalar_frames(self):
        rng = np.random.default_rng(11)
        specs = [_LATE.agent_b(), _PROMPT.agent_b(), _LATE.agent_a()]
        state = rng.uniform(-5.0, 5.0, size=(5, 6))
        state[0] = np.abs(state[0])  # local times
        frames = np.array([agent_frame(specs[k % len(specs)]) for k in range(6)])
        mapped = absolute_state(tuple(frames.T), *state)
        for k in range(6):
            scalar = absolute_state(tuple(frames[k]), *(float(v) for v in state[:, k]))
            assert tuple(float(column[k]) for column in mapped) == scalar


class TestStallTransform:
    def test_one_stalled_table_per_source_and_stall(self):
        view = _view(_PROMPT.agent_b(), _PROGRAM)
        stalls = StallTransform()
        stalled = stalls.apply(view, 1.0, 0.5)
        assert stalls.apply(view, 1.0, 0.5) is stalled
        assert stalls.apply(view, 1.0, 0.25) is not stalled
        assert len(stalled) == len(view) + 1 and stalled.segments == view.segments + 1

    def test_stall_past_the_last_row_keeps_the_view(self):
        view = _view(_PROMPT.agent_b(), _PROGRAM)
        before = motion_compiler.rows_compiled_total()
        assert StallTransform().apply(view, 1e9, 0.5) is view
        assert motion_compiler.rows_compiled_total() == before

    def test_a_stalled_prefix_ends_where_the_next_row_starts(self):
        # The next round reads the longer prefix; its row after this prefix
        # starts where this prefix's last window ends, to the bit.
        spec = _LATE.agent_b()
        onset = spec.units.wake_time
        prefix = stalled_table(_view(spec, _ROUNDING, max_steps=4), onset, 0.5)
        complete = stalled_table(_view(spec, _ROUNDING), onset, 0.5)
        assert not prefix.exhausted
        assert prefix.end_time == float(complete.start_time[len(prefix)])
