"""Motion layer: the instruction IR, local paths and the trajectory compiler.

The paper's model allows exactly two kinds of actions (Section 1.2):
``go(dir, d)`` — move ``d`` local length units along a straight segment — and
``wait(z)`` — stay idle for ``z`` local time units.  Algorithms emit streams
of such instructions; this package turns those streams into

* :class:`~repro.motion.localpath.LocalPath` objects (time-parametrized
  piecewise-linear paths in the agent's own coordinates and units), which is
  what Algorithm 1 needs for truncation, chunking and backtracking, and
* absolute-time, absolute-coordinate trajectories via the
  :mod:`~repro.motion.compiler`, which is what the simulator consumes.

Both engines read a program in one form, a stream of
:class:`~repro.motion.program.ColumnBlock` s (:func:`instruction_blocks`
adapts an instruction stream): the event engine through the lazy
:func:`compile_trajectory`, the batch engine through one shared
:class:`LocalProgramBuilder` per program, seen by each agent as a
:class:`~repro.motion.compiler.TrajectoryView` (the local rows under the
agent's affine frame).  Both map rows with one formula,
:func:`~repro.motion.compiler.absolute_state`.
"""

from repro.motion.instructions import (
    Instruction,
    Move,
    Wait,
    go,
    go_east,
    go_west,
    go_north,
    go_south,
    move_by,
    wait,
)
from repro.motion.localpath import LocalStep, LocalPath
from repro.motion.program import (
    ColumnBlock,
    instruction_blocks,
    rotate_instructions,
    scale_instructions,
    concat_programs,
    take_local_time,
    replay_path,
    chunked_with_waits,
    limit_instructions,
    program_from_callable,
)
from repro.motion.compiler import (
    LocalProgramBuilder,
    LocalProgramTable,
    TrajectorySegment,
    TrajectoryTable,
    TrajectoryView,
    compile_trajectory,
    sleep_segment,
)

__all__ = [
    "Instruction",
    "Move",
    "Wait",
    "go",
    "go_east",
    "go_west",
    "go_north",
    "go_south",
    "move_by",
    "wait",
    "LocalStep",
    "LocalPath",
    "ColumnBlock",
    "instruction_blocks",
    "rotate_instructions",
    "scale_instructions",
    "concat_programs",
    "take_local_time",
    "replay_path",
    "chunked_with_waits",
    "limit_instructions",
    "program_from_callable",
    "TrajectorySegment",
    "TrajectoryTable",
    "TrajectoryView",
    "LocalProgramBuilder",
    "LocalProgramTable",
    "compile_trajectory",
    "sleep_segment",
]
