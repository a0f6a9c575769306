"""Compile agents' local programs into absolute-time trajectories.

An agent executes its program in its own coordinate system and units; the
simulator needs the resulting motion in absolute coordinates and absolute
time.  Programs reach the compiler in one form, a stream of column blocks
(:class:`~repro.motion.program.ColumnBlock`: rows ``(dx, dy, duration)`` of
local displacement and local duration), and every row translates the same way:

* a row moving ``(dx, dy)`` over ``d`` local units becomes an absolute segment
  lasting ``d * tau`` absolute time units, displaced by ``(dx, dy)`` mapped
  through the agent's frame and scaled by its length unit ``tau * v``;
* a row with zero displacement is a wait: a zero-velocity segment lasting
  ``d * tau`` absolute time units;
* the time before the agent's wake-up is an initial zero-velocity segment
  starting at absolute time 0.

Two compilers share that arithmetic and one block validator
(:func:`_validated_columns`):

* :func:`compile_trajectory`, the event engine's, works lazily, one
  :class:`TrajectorySegment` at a time, so infinite programs can be consumed
  under a budget.  Timestamps go through an optional *timebase* object (see
  :mod:`repro.sim.timebase`): plain floats with the default ``None``,
  ``Fraction`` values with an exact timebase, which keeps event times exact
  even when the paper's algorithms schedule waits of ``2**(15 i^2)`` time
  units next to sub-unit moves.
* :class:`IncrementalTableCompiler`, the batch engine's, turns growing
  prefixes of a :class:`LocalProgramBuilder` (the blocks accumulated into
  columnar arrays, reusable across every instance running the same universal
  program) into a :class:`TrajectoryTable` -- the absolute-time trajectory of
  one agent as plain float arrays -- compiling each row once, with array
  operations.  It is float-timebase only.

The lazy compiler is the reference the table compiler is tested against:
their rows must be equal, exactly, however the program is split into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import PROGRAM_COLUMNS_PARITY, SCENARIO_STALL_SEGMENT
from repro.core.instance import AgentSpec
from repro.geometry.transforms import frame_matrix
from repro.geometry.vec import Vec2, add, scale
from repro.motion.program import ColumnBlock, instruction_blocks
from repro.obs import core as _obs
from repro.util.errors import AlgorithmContractError


@dataclass(frozen=True)
class TrajectorySegment:
    """A maximal interval of constant-velocity motion in absolute terms.

    Attributes
    ----------
    start_time:
        Absolute time at which the segment starts (float or exact value,
        depending on the timebase in use).
    duration:
        Length of the segment in absolute time units, as a float.  Durations
        are always "small" numbers (the duration of one instruction), so a
        float is exact enough even under the exact timebase; only *absolute*
        times need exactness.
    start_pos:
        Absolute position at ``start_time``.
    velocity:
        Constant absolute velocity over the segment (zero for waits/sleep).
    kind:
        ``"move"``, ``"wait"`` or ``"sleep"`` — used for reporting only.
    """

    start_time: Any
    duration: float
    start_pos: Vec2
    velocity: Vec2
    kind: str = "move"

    @property
    def end_pos(self) -> Vec2:
        """Absolute position at the end of the segment."""
        return add(self.start_pos, scale(self.velocity, self.duration))

    def position_at_offset(self, offset: float) -> Vec2:
        """Absolute position ``offset`` time units after the segment start."""
        if offset < 0.0 or offset > self.duration * (1.0 + 1e-12) + 1e-15:
            raise ValueError(f"offset {offset!r} outside segment duration {self.duration!r}")
        return add(self.start_pos, scale(self.velocity, offset))

    @property
    def is_stationary(self) -> bool:
        return self.velocity == (0.0, 0.0)


def sleep_segment(spec: AgentSpec, timebase: Optional[Any] = None) -> Optional[TrajectorySegment]:
    """The pre-wake-up segment of an agent (``None`` when it wakes at time 0)."""
    wake = spec.units.wake_time
    if wake <= 0.0:
        return None
    zero = timebase.lift(0.0) if timebase is not None else 0.0
    return TrajectorySegment(
        start_time=zero,
        duration=wake,
        start_pos=spec.start,
        velocity=(0.0, 0.0),
        kind="sleep",
    )


def _validated_columns(block: ColumnBlock) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked ``(dx, dy, duration)`` columns of one program block.

    The one validator both compilers read blocks through: the columns must
    have equal lengths, finite displacements and finite non-negative
    durations (else :class:`AlgorithmContractError`), and a sample of the
    natively generated blocks is re-derived through the instruction objects
    when contracts are enabled (``program.columns_parity``).  Null rows (zero
    duration) are dropped from the returned columns.
    """
    dx = np.asarray(block.dx, dtype=float)
    dy = np.asarray(block.dy, dtype=float)
    duration = np.asarray(block.duration, dtype=float)
    if not (
        duration.ndim == 1
        and dx.shape == dy.shape == duration.shape
        and np.isfinite(dx).all()
        and np.isfinite(dy).all()
        and ((duration >= 0.0) & (duration < math.inf)).all()
    ):
        raise AlgorithmContractError(
            "program block needs three equal-length columns of finite "
            "displacements and finite non-negative durations"
        )
    if block.reference is not None and _contracts.enabled():
        _check_columns_parity(block)
    if not duration.all():
        keep = duration != 0.0
        dx, dy, duration = dx[keep], dy[keep], duration[keep]
    return dx, dy, duration


def compile_trajectory(
    spec: AgentSpec,
    blocks: Iterable[ColumnBlock],
    *,
    timebase: Optional[Any] = None,
) -> Iterator[TrajectorySegment]:
    """Lazily translate a local program into absolute trajectory segments.

    Parameters
    ----------
    spec:
        The agent (frame + units) executing the program.
    blocks:
        The program as :class:`~repro.motion.program.ColumnBlock` s in the
        agent's local coordinates and units; instruction streams go through
        :func:`~repro.motion.program.instruction_blocks`.  Blocks are pulled
        one at a time, as the segments are consumed.
    timebase:
        Optional timebase object providing ``lift(float)`` and
        ``add(time, float_delta)``; ``None`` uses plain floats.

    Each row takes the arithmetic of :meth:`IncrementalTableCompiler._extend`
    in the same order, so on the float timebase segment ``k`` equals table
    row ``k`` exactly (waits keep a literal zero velocity where the table
    may hold ``-0.0``).
    """
    units = spec.units
    m00, m01, m10, m11 = frame_matrix(spec.frame.phi, spec.frame.chi)
    unit = units.length_unit
    rate = units.clock_rate

    def advance(current, delta: float):
        return timebase.add(current, delta) if timebase is not None else current + delta

    wake = float(units.wake_time)
    current_time = timebase.lift(wake) if timebase is not None else wake
    current_pos: Vec2 = spec.start

    pre_wake = sleep_segment(spec, timebase)
    if pre_wake is not None:
        yield pre_wake

    for block in blocks:
        dxs, dys, local_durations = _validated_columns(block)
        for dx, dy, local in zip(dxs.tolist(), dys.tolist(), local_durations.tolist()):
            duration = local * rate
            if dx == 0.0 and dy == 0.0:
                yield TrajectorySegment(
                    start_time=current_time,
                    duration=duration,
                    start_pos=current_pos,
                    velocity=(0.0, 0.0),
                    kind="wait",
                )
                current_time = advance(current_time, duration)
                continue
            disp_x = (m00 * dx + m01 * dy) * unit
            disp_y = (m10 * dx + m11 * dy) * unit
            if duration == 0.0:
                # A subnormal move length times a clock rate below 1 can
                # underflow to an absolute duration of exactly zero.  No time
                # passes: emit a stationary zero-duration segment (so segment
                # counts match the table row for row) and apply the (at most
                # subnormal-sized) displacement instantaneously instead of
                # dividing by zero.
                yield TrajectorySegment(
                    start_time=current_time,
                    duration=0.0,
                    start_pos=current_pos,
                    velocity=(0.0, 0.0),
                    kind="move",
                )
            else:
                # Divide directly instead of multiplying by the reciprocal: for
                # subnormal durations 1.0/duration overflows to inf even though
                # the component-wise quotients are perfectly representable.
                yield TrajectorySegment(
                    start_time=current_time,
                    duration=duration,
                    start_pos=current_pos,
                    velocity=(disp_x / duration, disp_y / duration),
                    kind="move",
                )
                current_time = advance(current_time, duration)
            current_pos = (current_pos[0] + disp_x, current_pos[1] + disp_y)


# -- bulk (columnar) mode ------------------------------------------------------------


@dataclass(frozen=True)
class LocalProgramTable:
    """A finite prefix of a local program as columnar arrays.

    One row per non-null instruction: ``(dx, dy)`` is the local displacement
    (zero for waits) and ``duration`` the local duration (the move length for
    moves, the wait time for waits).  ``cumulative`` is the running sum of
    durations *after* each row.  ``complete`` records whether the source
    program was fully consumed (finite program) or truncated by a budget.
    """

    dx: np.ndarray
    dy: np.ndarray
    duration: np.ndarray
    cumulative: np.ndarray
    complete: bool

    def __len__(self) -> int:
        return int(self.duration.shape[0])

    @property
    def total_duration(self) -> float:
        """Total local time covered by the rows."""
        return float(self.cumulative[-1]) if len(self) else 0.0


class LocalProgramBuilder:
    """Incrementally consumes a stream of column blocks into columnar arrays.

    The input is a stream of :class:`~repro.motion.program.ColumnBlock` s
    (``Algorithm.program_blocks_for``; instruction streams go through
    :func:`~repro.motion.program.instruction_blocks`).  Blocks are pulled only
    on demand (:meth:`ensure_time`), so infinite programs can be consumed
    under a budget, and :meth:`snapshot` returns array *views* — one builder
    can serve every instance of a batch that runs the same universal program,
    each with its own local-time budget.

    Every block goes through :func:`_validated_columns`, which checks it and
    drops its null rows (zero duration).  A snapshot
    that reaches the end of the buffers looks one block ahead, so it is
    ``complete`` exactly when it holds the whole of a finite program.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self, blocks: Iterable[ColumnBlock]) -> None:
        self._iter = iter(blocks)
        self._size = 0
        self._dx = np.empty(0, dtype=float)
        self._dy = np.empty(0, dtype=float)
        self._duration = np.empty(0, dtype=float)
        self._cumulative = np.empty(0, dtype=float)
        self._lookahead: Optional[ColumnBlock] = None
        self.exhausted = False

    def __len__(self) -> int:
        return self._size

    @property
    def consumed_local_time(self) -> float:
        return float(self._cumulative[self._size - 1]) if self._size else 0.0

    def _ensure_capacity(self, needed: int) -> None:
        """Grow the column buffers geometrically (linear total copying).

        Reallocation leaves the old arrays untouched, so views handed out by
        earlier :meth:`snapshot` calls stay valid; appends only ever write at
        indices beyond any previously snapshotted prefix.
        """
        capacity = self._duration.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(self._INITIAL_CAPACITY, 2 * capacity, needed)
        for name in ("_dx", "_dy", "_duration", "_cumulative"):
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=float)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def _append(self, block: ColumnBlock) -> None:
        dx, dy, duration = _validated_columns(block)
        count = duration.shape[0]
        if not count:
            return
        start = self._size
        end = start + count
        self._ensure_capacity(end)
        self._dx[start:end] = dx
        self._dy[start:end] = dy
        self._duration[start:end] = duration
        # A left fold seeded with the carried total (c_j = c_{j-1} + d_j):
        # the column is the same whatever the block boundaries are.
        fold = np.empty(count + 1)
        fold[0] = self.consumed_local_time
        fold[1:] = duration
        np.cumsum(fold, out=fold)
        self._cumulative[start:end] = fold[1:]
        self._size = end

    def _peek(self) -> None:
        """Fetch the next block without appending it; mark the end if none."""
        if self._lookahead is None and not self.exhausted:
            self._lookahead = next(self._iter, None)
            self.exhausted = self._lookahead is None

    def _pull(self) -> None:
        """Append the next block (or mark the program exhausted)."""
        self._peek()
        if self._lookahead is not None:
            block, self._lookahead = self._lookahead, None
            self._append(block)

    def ensure_time(self, local_time: float, *, max_steps: Optional[int] = None) -> None:
        """Consume until the covered local time reaches ``local_time``.

        Stops early when the program ends or ``max_steps`` rows exist.
        """
        while not self.exhausted and self.consumed_local_time < local_time:
            if max_steps is not None and len(self) >= max_steps:
                return
            self._pull()

    def snapshot(
        self, local_time: Optional[float] = None, *, max_steps: Optional[int] = None
    ) -> LocalProgramTable:
        """Columnar view of the prefix covering ``local_time`` local units.

        ``None`` means "everything consumed so far".  The returned table is
        ``complete`` when it contains the *whole* (finite) program.
        """
        count = len(self)
        if local_time is not None:
            self.ensure_time(local_time, max_steps=max_steps)
            count = (
                int(
                    self._cumulative[: self._size].searchsorted(
                        local_time, side="left"
                    )
                )
                + 1
            )
            count = min(count, len(self))
        if max_steps is not None:
            count = min(count, max_steps)
        if count == len(self):
            self._peek()  # the prefix is everything read: is it the whole program?
        complete = self.exhausted and count == len(self)
        return LocalProgramTable(
            dx=self._dx[:count],
            dy=self._dy[:count],
            duration=self._duration[:count],
            cumulative=self._cumulative[:count],
            complete=complete,
        )


#: Every ``2**_COLUMNS_PARITY_SAMPLE_SHIFT``-th referenced block is re-derived
#: through the instruction objects when contracts are enabled.
_COLUMNS_PARITY_SAMPLE_SHIFT = 3
_columns_parity_calls = 0


def _check_columns_parity(block: ColumnBlock) -> None:
    """``program.columns_parity`` on a sample of natively generated blocks.

    Re-derives the block from the instruction stream it stands for (through
    ``Move.rotated`` / ``Move.length``, via the instruction adapter) and
    requires bit-identical columns, signed zeros included.
    """
    global _columns_parity_calls
    sample = _columns_parity_calls % (1 << _COLUMNS_PARITY_SAMPLE_SHIFT) == 0
    _columns_parity_calls += 1
    if not sample:
        return
    rows = len(block.duration)
    # One block holds the whole stream unless it is longer than this one.
    derived = next(instruction_blocks(block.reference(), chunk=rows + 1), None)
    same = derived is not None and all(
        mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        for mine, theirs in zip(block[:3], derived[:3])
    )
    PROGRAM_COLUMNS_PARITY.check(
        same, f"{len(block.duration)}-row block differs from its instruction stream"
    )


@dataclass(frozen=True)
class TrajectoryTable:
    """The absolute-time trajectory of one agent, as columnar float arrays.

    One row per constant-velocity stretch (the columnar analogue of a run of
    :class:`TrajectorySegment`): absolute ``start_time``, ``duration`` (the
    last row's duration is ``inf`` when the program is finite and fully
    represented), absolute start position and velocity components.

    Attributes
    ----------
    exhausted:
        Whether the table represents the *entire* trajectory (finite program,
        trailing infinite stationary row appended).  When false, the table
        covers exactly ``[0, end_time]`` and says nothing beyond.
    segments:
        Number of rows that correspond to real compiled segments (excludes
        the synthetic trailing row, includes the pre-wake sleep row).
    """

    start_time: np.ndarray
    duration: np.ndarray
    start_x: np.ndarray
    start_y: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray
    exhausted: bool
    segments: int

    def __len__(self) -> int:
        return int(self.start_time.shape[0])

    @property
    def end_time(self) -> float:
        """Absolute time up to which the table describes the motion."""
        if len(self) == 0:
            return 0.0
        return float(self.start_time[-1] + self.duration[-1])

    @property
    def finish_time(self) -> Optional[float]:
        """Absolute time at which the (finite) program ends, if represented."""
        if not self.exhausted or len(self) == 0:
            return None
        return float(self.start_time[-1])

    def boundaries(self) -> np.ndarray:
        """Internal event times (starts of every row but the first)."""
        return self.start_time[1:]

    def states_at(self, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(pos_x, pos_y, vel_x, vel_y)`` arrays at the given absolute times.

        Times must lie within the table's coverage ``[0, end_time]``; each is
        resolved against the row active at (just after) that time.
        """
        # No clamp needed: the first row always starts at 0 and ``times`` lie
        # within the coverage, so the index is already in ``[0, len - 1]``.
        index = np.searchsorted(self.start_time, times, side="right") - 1
        offset = times - self.start_time[index]
        pos_x = self.start_x[index] + self.vel_x[index] * offset
        pos_y = self.start_y[index] + self.vel_y[index] * offset
        return pos_x, pos_y, self.vel_x[index], self.vel_y[index]


def _write_trailing_row(columns, at: int, origin) -> None:
    """Write a finished program's infinite stationary row at index ``at``.

    ``columns`` are the table's ``(start_time, duration, start_x, start_y,
    vel_x, vel_y)`` buffers.  The row starts where row ``at - 1`` ends, derived
    exactly as the event engine's cursor does when a finite program runs out
    (``_AgentCursor.advance_past``): that segment's start time plus its
    duration, at its end position ``start + velocity * duration``.  With no
    row before it the agent never moves and holds ``origin``, its
    ``(wake_time, x, y)``.
    """
    time, duration, x, y, vx, vy = columns
    if at:
        last = at - 1
        span = duration[last]
        time[at] = time[last] + span
        x[at] = x[last] + vx[last] * span
        y[at] = y[last] + vy[last] * span
    else:
        time[at], x[at], y[at] = origin
    duration[at] = math.inf
    vx[at] = 0.0
    vy[at] = 0.0


#: Process-wide count of trajectory rows compiled by every
#: :class:`IncrementalTableCompiler`.  Each row is counted exactly once, when
#: its ``_extend`` pass runs — cache hits (cross-call compiler reuse, memoized
#: snapshots) add nothing, which is what the compiler-cache tests assert.
_ROWS_COMPILED_TOTAL = 0


def rows_compiled_total() -> int:
    """Trajectory rows compiled process-wide (cache hits compile none)."""
    return _ROWS_COMPILED_TOTAL


class IncrementalTableCompiler:
    """Compiles growing prefixes of one agent's local program, incrementally.

    The batch engine's table compiler.  The adaptive-horizon driver
    re-requests the same agent's trajectory with ever longer prefixes (one
    per round); this compiler does each row exactly once, extending shared
    output buffers as the prefix grows.  Rows do not depend on how the prefix
    grew because ``cumsum`` is a sequential left fold: seeding the
    extension's cumsum with the carried fold value reproduces the additions
    of :func:`compile_trajectory` in the same order (``c_j = c_{j-1} + d_j``),
    so every row of every snapshot equals the lazy compiler's segment.

    Returned tables are views into the shared buffers.  Extensions only write
    rows beyond any previously returned view (buffer growth reallocates but
    leaves old arrays untouched), and the trailing infinite row only exists
    once the program is complete — at which point the prefix can no longer
    grow — so earlier tables stay valid for as long as the engines hold them.
    Tables are memoized per ``(rows, complete)``, which also preserves the
    identity-sharing that the flat window construction dedupes by.
    """

    __slots__ = (
        "_m00", "_m01", "_m10", "_m11", "_unit", "_rate", "_wake",
        "_x0", "_y0", "_pre", "_count",
        "_carry_t", "_carry_x", "_carry_y",
        "_time", "_dur", "_x", "_y", "_vx", "_vy",
        "_tables",
    )

    def __init__(self, spec: AgentSpec) -> None:
        units = spec.units
        self._m00, self._m01, self._m10, self._m11 = frame_matrix(
            spec.frame.phi, spec.frame.chi
        )
        self._unit = units.length_unit
        self._rate = units.clock_rate
        self._wake = units.wake_time
        self._x0, self._y0 = spec.start
        self._pre = 1 if self._wake > 0.0 else 0
        self._count = 0
        # Left-fold carries after the last compiled row: the start time and
        # position of the next row (folds seeded with the wake time and start
        # point, exactly like the lazy compiler).
        self._carry_t = self._wake
        self._carry_x = self._x0
        self._carry_y = self._y0
        size = self._pre + 1  # room for the pre-wake row and a tail slot
        self._time = np.empty(size)
        self._dur = np.empty(size)
        self._x = np.empty(size)
        self._y = np.empty(size)
        self._vx = np.empty(size)
        self._vy = np.empty(size)
        if self._pre:
            self._time[0] = 0.0
            self._dur[0] = self._wake
            self._x[0] = self._x0
            self._y[0] = self._y0
            self._vx[0] = 0.0
            self._vy[0] = 0.0
        self._tables: dict = {}

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._time.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(1024, 2 * capacity, needed)
        for name in ("_time", "_dur", "_x", "_y", "_vx", "_vy"):
            old = getattr(self, name)
            grown = np.empty(new_capacity)
            grown[: self._pre + self._count] = old[: self._pre + self._count]
            setattr(self, name, grown)

    @property
    def rows_compiled(self) -> int:
        """Program rows compiled so far (the cross-call cache's row budget unit)."""
        return self._count

    def _extend(self, local: LocalProgramTable, n: int) -> None:
        global _ROWS_COMPILED_TOTAL
        count = self._count
        _ROWS_COMPILED_TOTAL += n - count
        _obs.add("compiler.rows_compiled", n - count)
        self._ensure_capacity(self._pre + n + 1)
        dx = local.dx[count:n]
        dy = local.dy[count:n]
        durations = local.duration[count:n] * self._rate
        disp_x = (self._m00 * dx + self._m01 * dy) * self._unit
        disp_y = (self._m10 * dx + self._m11 * dy) * self._unit
        base = self._pre + count
        grown = n - count
        body = slice(base, base + grown)
        self._dur[body] = durations
        # Zero-displacement rows are waits.  Local durations are strictly
        # positive, but a subnormal duration times a clock rate below 1 can
        # underflow to exactly zero; such rows pass no time and apply their
        # (at most subnormal-sized) displacement instantaneously -- velocity
        # 0 keeps the division well-defined, matching the lazy compiler.  The
        # common all-positive case skips the guard arrays.
        positive = durations > 0.0
        if positive.all():
            np.divide(disp_x, durations, out=self._vx[body])
            np.divide(disp_y, durations, out=self._vy[body])
        else:
            safe_durations = np.where(positive, durations, 1.0)
            self._vx[body] = np.where(positive, disp_x / safe_durations, 0.0)
            self._vy[body] = np.where(positive, disp_y / safe_durations, 0.0)
        # One column-wise cumsum continues all three left folds at once; the
        # leading carry row makes the additions (c_j = c_{j-1} + d_j) land in
        # exactly the from-scratch order.
        extension = np.empty((grown + 1, 3))
        extension[0, 0] = self._carry_t
        extension[0, 1] = self._carry_x
        extension[0, 2] = self._carry_y
        extension[1:, 0] = durations
        extension[1:, 1] = disp_x
        extension[1:, 2] = disp_y
        cums = np.cumsum(extension, axis=0)
        self._time[body] = cums[:-1, 0]
        self._x[body] = cums[:-1, 1]
        self._y[body] = cums[:-1, 2]
        self._carry_t = float(cums[-1, 0])
        self._carry_x = float(cums[-1, 1])
        self._carry_y = float(cums[-1, 2])
        self._count = n

    def table(self, local: LocalProgramTable) -> TrajectoryTable:
        """The compiled table of ``local`` (a prefix no shorter than any before)."""
        n = len(local)
        key = (n, local.complete)
        cached = self._tables.get(key)
        if cached is not None:
            return cached
        if n > self._count:
            self._extend(local, n)
        total = self._pre + n
        if local.complete:
            # One-time tail: the program is complete, so the prefix is final.
            _write_trailing_row(
                (self._time, self._dur, self._x, self._y, self._vx, self._vy),
                total, (self._wake, self._x0, self._y0),
            )
            total += 1
        table = TrajectoryTable(
            start_time=self._time[:total],
            duration=self._dur[:total],
            start_x=self._x[:total],
            start_y=self._y[:total],
            vel_x=self._vx[:total],
            vel_y=self._vy[:total],
            exhausted=local.complete,
            segments=n + self._pre,
        )
        self._tables[key] = table
        return table


def constant_table(position: Vec2) -> TrajectoryTable:
    """A one-row :class:`TrajectoryTable` pinned at ``position`` forever.

    The columnar analogue of an agent that never moves: a single stationary
    row covering all of time (``exhausted`` — there is nothing beyond it, and
    ``segments == 0`` — no compiled program segment backs it).  The
    asymmetric-radius batch engine substitutes this for the frozen agent's
    table: the freeze discards the agent's remaining program, so from the
    freeze time on its trajectory is exactly "stand at the freeze position".
    """
    return TrajectoryTable(
        start_time=np.array([0.0]),
        duration=np.array([math.inf]),
        start_x=np.array([float(position[0])]),
        start_y=np.array([float(position[1])]),
        vel_x=np.array([0.0]),
        vel_y=np.array([0.0]),
        exhausted=True,
        segments=0,
    )


# -- stalling-agent lowering ------------------------------------------------------
#
# The "stall" event kind (repro.sim.events) pauses an agent for a fixed
# interval starting at the *first segment boundary at or after* the onset.
# Snapping to a boundary is the semantics, not an approximation: it needs no
# segment splitting, so the lazy event stream and the columnar table apply the
# identical transform — an inserted zero-velocity row, later rows shifted by
# the stall — and the two engine paths stay bit-identical by construction.
# A program that never reaches the onset (it finishes, or the run's horizon
# cuts first) is returned untouched on both paths.


def stalled_segments(
    segments: Iterable[TrajectorySegment],
    onset: float,
    duration: float,
    timebase: Optional[Any] = None,
) -> Iterator[TrajectorySegment]:
    """Lazily apply the stall transform to a trajectory-segment stream.

    ``onset`` and ``duration`` are absolute time units; ``timebase`` shifts
    the post-stall start times (plain float addition when ``None``).
    """

    def shifted(when):
        return timebase.add(when, duration) if timebase is not None else when + duration

    stalled = False
    for segment in segments:
        if not stalled and segment.start_time >= onset:
            stalled = True
            stall = TrajectorySegment(
                start_time=segment.start_time,
                duration=duration,
                start_pos=segment.start_pos,
                velocity=(0.0, 0.0),
                kind="stall",
            )
            if _contracts.enabled():
                SCENARIO_STALL_SEGMENT.check(
                    stall.is_stationary
                    and stall.duration == duration
                    and stall.start_time >= onset,
                    f"onset={onset} duration={duration} at={stall.start_time}",
                )
            yield stall
        if stalled:
            yield TrajectorySegment(
                start_time=shifted(segment.start_time),
                duration=segment.duration,
                start_pos=segment.start_pos,
                velocity=segment.velocity,
                kind=segment.kind,
            )
        else:
            yield segment


def stalled_table(table: TrajectoryTable, onset: float, duration: float) -> TrajectoryTable:
    """The columnar stall transform: the batch-engine lowering.

    Inserts one zero-velocity row at the first *real* row starting at or
    after ``onset`` and shifts that row and everything after it (including a
    synthetic trailing row) by ``duration``.  Identity when no compiled row
    qualifies — which, by the boundary-snapping semantics, is exactly when the
    stall also never surfaces on the event path within the table's coverage.
    """
    count = int(table.segments)
    insert = int(np.searchsorted(table.start_time[:count], onset, side="left"))
    if insert >= count:
        return table

    def spliced(column: np.ndarray, stall_value: float, shift: float = 0.0) -> np.ndarray:
        out = np.empty(len(column) + 1, dtype=column.dtype)
        out[:insert] = column[:insert]
        out[insert] = stall_value
        out[insert + 1 :] = column[insert:] + shift if shift else column[insert:]
        return out

    stalled = TrajectoryTable(
        start_time=spliced(table.start_time, float(table.start_time[insert]), duration),
        duration=spliced(table.duration, duration),
        start_x=spliced(table.start_x, float(table.start_x[insert])),
        start_y=spliced(table.start_y, float(table.start_y[insert])),
        vel_x=spliced(table.vel_x, 0.0),
        vel_y=spliced(table.vel_y, 0.0),
        exhausted=table.exhausted,
        segments=count + 1,
    )
    if _contracts.enabled():
        SCENARIO_STALL_SEGMENT.check(
            len(stalled) == len(table) + 1
            and stalled.vel_x[insert] == 0.0
            and stalled.vel_y[insert] == 0.0
            and float(stalled.duration[insert]) == duration
            and float(stalled.start_time[insert]) >= onset
            and bool(np.all(stalled.start_time[: insert + 1] == table.start_time[: insert + 1]))
            and bool(
                np.all(stalled.start_time[insert + 1 :] == table.start_time[insert:] + duration)
            ),
            f"onset={onset} duration={duration} insert={insert}",
        )
    return stalled
