"""Property suite for whole-round table serving.

:meth:`repro.sim.rounds.ProgramSource.round_tables` serves one agent side of
a whole round: each builder takes one ``snapshot`` at the round's largest
local budget, and one ``searchsorted`` cuts every instance's prefix from it.
The reference is what the batch driver did per instance before: a fresh
builder's ``snapshot`` at the instance's own budget, then
:meth:`~repro.motion.compiler.IncrementalTableCompiler.table`, one instance
at a time in a drawn order.  Over drawn call sequences (rounds, sides,
instance orders) the served views must equal the reference's in rows,
``complete`` and identity — two requests share a view exactly when they do
in the reference, across rounds too.  The draws cover budgets of 0 (late
wakes, horizons at 0), budgets past a finite program's end and budgets
ending exactly on one of its rows, ``max_steps`` caps, infinite programs,
and universal (one shared builder) and non-universal (one builder per
instance and role) algorithms.
"""

import itertools
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.motion.compiler import IncrementalTableCompiler, LocalProgramBuilder
from repro.sim.rounds import ProgramSource
from view_strategies import local_programs


class _Program:
    """One column-block program for every agent; universal unless told not."""

    def __init__(self, blocks, universal, endless):
        self.blocks = blocks
        self.requires_knowledge = not universal
        self.endless = endless

    def program_blocks_for(self, instance, spec, role):
        return itertools.cycle(self.blocks) if self.endless else iter(self.blocks)


@st.composite
def _instances(draw):
    count = draw(st.integers(1, 6))
    return [
        Instance(
            r=0.5,
            x=draw(st.floats(-3.0, 3.0)),
            y=draw(st.floats(-3.0, 3.0)),
            tau=draw(st.sampled_from((1.0, 0.5, 2.0, 0.75))),
            v=draw(st.sampled_from((1.0, 0.5, 2.0))),
            # Late wakes: B's budget is 0 up to its wake time.
            t=draw(st.sampled_from((0.0, 0.0, 0.5, 3.0, 40.0))),
        )
        for _ in range(count)
    ]


@st.composite
def _horizon(draw, row_ends):
    """0, a row's exact end (the last one included), past the end, or any."""
    kind = draw(st.sampled_from(("zero", "row", "past", "free")))
    if kind == "zero":
        return 0.0
    if kind == "row" and row_ends:
        return draw(st.sampled_from(row_ends))
    if kind == "past":
        return (row_ends[-1] if row_ends else 0.0) * 2.0 + 1.0
    return draw(st.floats(min_value=0.0, max_value=60.0))


@st.composite
def _cases(draw):
    blocks = draw(local_programs(max_rows=16))
    endless = draw(st.booleans()) and bool(blocks)
    program = _Program(blocks, draw(st.booleans()), endless)
    instances = draw(_instances())
    # Exact local row ends: agent A (wake 0, rate 1) asks for exactly these.
    probe = LocalProgramBuilder(iter(blocks)).snapshot(math.inf)
    row_ends = probe.cumulative.tolist()
    # An endless program is only ever read under a segment budget.
    budgets = st.integers(1, 12)
    max_segments = draw(budgets if endless else st.one_of(st.none(), budgets))
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        rows = sorted(draw(st.sets(st.integers(0, len(instances) - 1), min_size=1)))
        horizons = [draw(_horizon(row_ends)) for _ in rows]
        roles = draw(st.sampled_from((("A", "B"), ("B", "A"), ("A",), ("B",))))
        for role in roles:
            order = draw(st.permutations(range(len(rows))))
            calls.append((role, rows, horizons, order))
    return program, instances, max_segments, calls


class _Reference:
    """The per-instance snapshot + ``IncrementalTableCompiler.table`` sequence."""

    def __init__(self, program, instances, max_segments):
        self.program = program
        self.instances = instances
        self.max_steps = None if max_segments is None else max_segments + 2
        self.builders = {}
        self.compilers = {}

    def table(self, row, role, horizon):
        spec = self.instances[row].agents()[0 if role == "A" else 1]
        universal = not self.program.requires_knowledge
        key = None if universal else (row, role)
        if key not in self.builders:
            self.builders[key] = LocalProgramBuilder(
                self.program.program_blocks_for(self.instances[row], spec, role)
            )
        local = self.builders[key].snapshot(
            self.budget(row, role, horizon), max_steps=self.max_steps
        )
        compiler_key = spec if universal else (row, role)
        if compiler_key not in self.compilers:
            self.compilers[compiler_key] = IncrementalTableCompiler(spec)
        return self.compilers[compiler_key].table(local)

    def budget(self, row, role, horizon):
        units = self.instances[row].agents()[0 if role == "A" else 1].units
        return max((horizon - units.wake_time) / units.clock_rate, 0.0)


def _rows(view):
    table = view.materialize()
    return tuple(
        column.tobytes()
        for column in (
            table.start_time, table.duration, table.start_x, table.start_y,
            table.vel_x, table.vel_y,
        )
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_round_tables_equal_per_instance_snapshots(case):
    program, instances, max_segments, calls = case
    source = ProgramSource(
        program, max_segments, instances, [instance.agents() for instance in instances]
    )
    reference = _Reference(program, instances, max_segments)
    served, expected = [], []
    for role, rows, horizons, order in calls:
        mine = source.round_tables(role, np.array(rows), np.array(horizons))
        theirs = [None] * len(rows)
        for k in order:
            theirs[k] = reference.table(rows[k], role, horizons[k])
        served += mine
        expected += theirs
    for view, other in zip(served, expected):
        assert len(view) == len(other) and view.rows == other.rows
        assert view.exhausted == other.exhausted
        assert view.segments == other.segments
        assert view.end_time == other.end_time
        assert _rows(view) == _rows(other)
    # Identity: two requests share a view exactly when the reference's do.
    for (i, view), (j, other) in itertools.combinations(enumerate(served), 2):
        assert (view is other) == (expected[i] is expected[j]), (i, j)
