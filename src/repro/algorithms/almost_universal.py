"""``AlmostUniversalRV`` — Algorithm 1 of the paper.

The algorithm is a single infinite program executed identically by both
agents; the simulator interrupts it the moment the agents see each other
(distance at most ``r``), which is exactly the "interrupt the execution as
soon as the other agent is seen" of line 1.

Each iteration of the repeat loop (phase ``i``) consists of four blocks, one
per instance type of Section 3.1.1:

* **Block 1 (type 1):** ``PlanarCowWalk(i)`` executed in each of the rotated
  frames ``Rot(j * pi / 2**i)`` for ``j = 1 .. 2**(i+1)``.
* **Block 2 (type 2):** ``wait(2**i)``, run ``Latecomers`` for ``2**i`` local
  time units, then backtrack along the path just followed.
* **Block 3 (type 3):** ``wait(2**(15 i^2))`` then ``PlanarCowWalk(i)``.
* **Block 4 (type 4):** split the solo execution of ``CGKK`` during ``2**i``
  local time units into ``2**(2i)`` chunks of ``2**-i`` each, execute them
  interleaved with waits of ``2**i``, then backtrack along the path followed.

The block sizes come from a :class:`~repro.algorithms.schedules.Schedule`
(default: the paper's literal constants).

The program exists in two forms with identical rows: the instruction stream
of :meth:`AlmostUniversalRV.program` (the authoring form, which tests and
the ``program.columns_parity`` contract compare against) and the column
blocks of :meth:`AlmostUniversalRV.program_blocks`, which both engines read
and where block 1 is one rotation of the cached ``PlanarCowWalk`` columns
per frame.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterator, Optional

import numpy as np

from repro.algorithms.base import UniversalAlgorithm
from repro.algorithms.cgkk import cgkk_program
from repro.algorithms.cow_walk import (
    planar_cow_walk,
    planar_cow_walk_columns,
)
from repro.algorithms.latecomers import latecomers_program
from repro.algorithms.schedules import PaperSchedule, Schedule
from repro.motion.instructions import Instruction, Wait
from repro.motion.program import (
    ColumnBlock,
    chunked_with_waits,
    instruction_blocks,
    replay_path,
    rotate_instructions,
    take_local_time,
)

class AlmostUniversalRV(UniversalAlgorithm):
    """Algorithm 1, parameterized by a phase schedule.

    Parameters
    ----------
    schedule:
        The phase constants (default: the paper's).
    max_phase:
        Optional upper bound on the number of phases generated.  ``None``
        (default) reproduces the paper's infinite loop; a finite bound is
        occasionally convenient in tests that inspect the emitted program
        outside the simulator.
    """

    def __init__(self, schedule: Optional[Schedule] = None, *, max_phase: Optional[int] = None) -> None:
        self.schedule = schedule if schedule is not None else PaperSchedule()
        self.max_phase = max_phase
        self.name = f"almost-universal-rv[{self.schedule.name}]"

    @property
    def program_cache_key(self):
        """The program stream is fully determined by (schedule, max_phase)."""
        if type(self) is not AlmostUniversalRV:
            return None
        try:
            hash(self.schedule)
        except TypeError:
            return None
        return ("almost-universal-rv", self.schedule, self.max_phase)

    # -- the four blocks --------------------------------------------------------------
    def _block1_type1(self, i: int) -> Iterator[Instruction]:
        """Lines 5-7: rotated ``PlanarCowWalk`` sweeps."""
        resolution = self.schedule.planar_resolution(i)
        step = self.schedule.rotation_step(i)
        for j in range(1, self.schedule.rotations(i) + 1):
            yield from _rotated_cow_walk(resolution, j * step)

    def _block2_type2(self, i: int) -> Iterator[Instruction]:
        """Lines 9-12: wait, run ``Latecomers`` for a bounded time, backtrack."""
        yield Wait(self.schedule.block2_wait(i))
        path = take_local_time(latecomers_program(), self.schedule.block2_run(i))
        yield from replay_path(path)
        yield from replay_path(path.backtrack())

    def _block3_type3(self, i: int) -> Iterator[Instruction]:
        """Lines 14-15: the long wait followed by a planar sweep."""
        yield Wait(self.schedule.block3_wait(i))
        yield from planar_cow_walk(self.schedule.planar_resolution(i))

    def _block4_type4(self, i: int) -> Iterator[Instruction]:
        """Lines 17-20: chunked ``CGKK`` interleaved with waits, then backtrack."""
        solo = take_local_time(cgkk_program(), self.schedule.block4_run(i))
        yield from chunked_with_waits(
            solo, self.schedule.block4_chunk(i), self.schedule.block4_wait(i)
        )
        yield from replay_path(solo.backtrack())

    def phase(self, i: int) -> Iterator[Instruction]:
        """The full instruction stream of phase ``i`` (all four blocks)."""
        yield from self._block1_type1(i)
        yield from self._block2_type2(i)
        yield from self._block3_type3(i)
        yield from self._block4_type4(i)

    # -- the algorithm ---------------------------------------------------------------------
    def program(self) -> Iterator[Instruction]:
        i = 1
        while self.max_phase is None or i <= self.max_phase:
            yield from self.phase(i)
            i += 1

    # -- the columnar program -------------------------------------------------------------
    def phase_blocks(self, i: int) -> Iterator[ColumnBlock]:
        """Phase ``i`` as column blocks, row for row the stream of :meth:`phase`.

        Block 1 is one block per rotation: the cached ``PlanarCowWalk``
        columns rotated with ``math.cos`` / ``math.sin`` of the angle, exactly
        the arithmetic of ``Move.rotated``, with ``np.hypot`` lengths standing
        in for ``Move.length`` (``program.columns_parity`` re-derives a sample
        of them through the objects).  Block 3's sweep is the cached walk
        itself.  Blocks 2 and 4 are bounded by ``2**i`` local time and go
        through the instruction adapter.
        """
        resolution = self.schedule.planar_resolution(i)
        walk = planar_cow_walk_columns(resolution)
        step = self.schedule.rotation_step(i)
        for j in range(1, self.schedule.rotations(i) + 1):
            alpha = j * step
            c = math.cos(alpha)
            s = math.sin(alpha)
            dx = c * walk.dx - s * walk.dy
            dy = s * walk.dx + c * walk.dy
            yield ColumnBlock(
                dx, dy, np.hypot(dx, dy),
                reference=partial(_rotated_cow_walk, resolution, alpha),
            )
        yield from instruction_blocks(self._block2_type2(i))
        yield from instruction_blocks([Wait(self.schedule.block3_wait(i))])
        yield walk
        yield from instruction_blocks(self._block4_type4(i))

    def program_blocks(self) -> Iterator[ColumnBlock]:
        """The program as column blocks; see :meth:`phase_blocks`.

        A subclass that overrides how the instruction stream is generated gets
        the instruction adapter over its :meth:`program` instead.
        """
        if any(
            getattr(type(self), name) is not getattr(AlmostUniversalRV, name)
            for name in _STREAM_METHODS
        ):
            return super().program_blocks()
        return self._native_blocks()

    def _native_blocks(self) -> Iterator[ColumnBlock]:
        i = 1
        while self.max_phase is None or i <= self.max_phase:
            yield from self.phase_blocks(i)
            i += 1


#: The methods :meth:`AlmostUniversalRV.phase_blocks` reproduces natively.
_STREAM_METHODS = ("program", "phase", "_block1_type1", "_block3_type3")


def _rotated_cow_walk(resolution: int, alpha: float) -> Iterator[Instruction]:
    """``PlanarCowWalk(resolution)`` executed in the frame ``Rot(alpha)``."""
    return rotate_instructions(planar_cow_walk(resolution), alpha)
