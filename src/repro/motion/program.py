"""Program combinators.

A *program* is any iterable/iterator of :class:`~repro.motion.instructions`
objects.  Algorithms in this library are written as generator functions; the
combinators below let Algorithm 1 compose them the way the pseudocode does:
run a sub-procedure in a rotated frame, run it only for a bounded local time
while recording the followed path, interleave recorded chunks with waits,
backtrack, and so on.

The simulator's engines consume programs in a second, columnar form: a
stream of :class:`ColumnBlock` s, each a run of rows ``(dx, dy, duration)``
as float arrays.  :func:`instruction_blocks` turns any instruction stream into that
form; algorithms whose structure is columnar (Algorithm 1's rotated cow-walk
sweeps) emit blocks directly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from repro.motion.instructions import Instruction, Move, Wait
from repro.motion.localpath import LocalPath, LocalStep
from repro.util.errors import AlgorithmContractError


class ColumnBlock(NamedTuple):
    """A run of program rows as columns: local displacement and local duration.

    ``duration`` is the move length (``Move.length``) for moves and the wait
    time for waits, whose displacement is zero.  Rows of zero duration are
    null instructions and are dropped by the consumer.  ``reference``, when
    set, re-creates the instruction stream the block stands for; natively
    generated blocks carry it so a contract check can re-derive them through
    :class:`Move` (see ``program.columns_parity``).
    """

    dx: np.ndarray
    dy: np.ndarray
    duration: np.ndarray
    reference: Optional[Callable[[], Iterable[Instruction]]] = None


def instruction_blocks(program: Iterable[Instruction], chunk: int = 1024) -> Iterator[ColumnBlock]:
    """Columnar form of an instruction stream, ``chunk`` rows per block.

    The adapter every instruction-emitting program goes through to reach the
    engines.  The stream is consumed lazily, one block at a time, so
    infinite programs stay infinite; a consumer reading the first row of a
    block has pulled up to ``chunk - 1`` instructions beyond it.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    iterator = iter(program)

    def blocks() -> Iterator[ColumnBlock]:
        dx: List[float] = []
        dy: List[float] = []
        duration: List[float] = []
        for instruction in iterator:
            if isinstance(instruction, Move):
                dx.append(instruction.dx)
                dy.append(instruction.dy)
                duration.append(instruction.length)
            elif isinstance(instruction, Wait):
                dx.append(0.0)
                dy.append(0.0)
                duration.append(instruction.duration)
            else:
                raise AlgorithmContractError(f"unknown instruction {instruction!r}")
            if len(duration) == chunk:
                yield ColumnBlock(np.array(dx), np.array(dy), np.array(duration))
                dx, dy, duration = [], [], []
        if duration:
            yield ColumnBlock(np.array(dx), np.array(dy), np.array(duration))

    return blocks()


def rotate_instructions(program: Iterable[Instruction], alpha: float) -> Iterator[Instruction]:
    """Execute ``program`` in the working frame rotated by ``alpha`` (locally ccw).

    Rotating the working frame by ``alpha`` means every move's displacement
    vector is rotated by ``alpha`` before being executed in the original local
    frame; waits are unaffected.  This is the paper's ``Rot(alpha)`` device.
    """
    for instruction in program:
        if isinstance(instruction, Move):
            yield instruction.rotated(alpha)
        else:
            yield instruction


def scale_instructions(program: Iterable[Instruction], factor: float) -> Iterator[Instruction]:
    """Scale every displacement of ``program`` by ``factor`` (waits unchanged)."""
    for instruction in program:
        if isinstance(instruction, Move):
            yield instruction.scaled(factor)
        else:
            yield instruction


def concat_programs(*programs: Iterable[Instruction]) -> Iterator[Instruction]:
    """Run several programs one after the other."""
    for program in programs:
        yield from program


def limit_instructions(program: Iterable[Instruction], max_instructions: int) -> Iterator[Instruction]:
    """Yield at most ``max_instructions`` instructions of ``program``.

    A safety valve for tests and experiments that exercise intentionally
    infinite programs outside the simulator (the simulator has its own
    budget).
    """
    if max_instructions < 0:
        raise ValueError("max_instructions must be non-negative")
    for count, instruction in enumerate(program):
        if count >= max_instructions:
            return
        yield instruction


def take_local_time(program: Iterable[Instruction], duration: float) -> LocalPath:
    """Record the path followed by executing ``program`` for ``duration`` local time.

    This is the "execute P during time T" device of Algorithm 1 (lines 10 and
    17): the program is consumed just far enough to fill ``duration`` local
    time units; the last instruction is split if needed; if the program ends
    early the remainder is a wait (an agent that has nothing left to do stays
    idle).  The returned path has total duration exactly ``duration``.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    steps: List[LocalStep] = []
    remaining = duration
    if remaining == 0.0:
        return LocalPath()
    for instruction in program:
        if isinstance(instruction, Move):
            step = LocalStep(instruction.dx, instruction.dy, instruction.duration)
        elif isinstance(instruction, Wait):
            step = LocalStep(0.0, 0.0, instruction.duration)
        else:  # pragma: no cover - defensive
            raise AlgorithmContractError(f"unknown instruction {instruction!r}")
        if step.duration <= 0.0:
            continue
        if step.duration <= remaining:
            steps.append(step)
            remaining -= step.duration
        else:
            head, _tail = step.split_at(remaining)
            steps.append(head)
            remaining = 0.0
        if remaining <= 0.0:
            break
    if remaining > 0.0:
        steps.append(LocalStep(0.0, 0.0, remaining))
    return LocalPath(steps)


def replay_path(path: LocalPath) -> Iterator[Instruction]:
    """Emit the instructions that replay a recorded local path."""
    for step in path:
        if step.is_wait:
            if step.duration > 0.0:
                yield Wait(step.duration)
        else:
            yield Move(step.dx, step.dy)


def chunked_with_waits(
    path: LocalPath, chunk_duration: float, wait_duration: float
) -> Iterator[Instruction]:
    """Execute a recorded path as chunks separated by waits.

    Implements Algorithm 1 line 18: ``execute S_1 wait(T) ... S_m wait(T)``
    where the ``S_j`` are consecutive chunks of ``chunk_duration`` local time
    units of the recorded solo execution, each followed by a wait of
    ``wait_duration`` local time units.
    """
    if wait_duration < 0.0:
        raise ValueError("wait duration must be non-negative")
    for chunk in path.chunks(chunk_duration):
        yield from replay_path(chunk)
        if wait_duration > 0.0:
            yield Wait(wait_duration)


def program_from_callable(factory: Callable[[], Iterable[Instruction]]) -> Iterator[Instruction]:
    """Defer the construction of a program until it is first iterated."""
    yield from factory()
