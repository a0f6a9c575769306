"""Compile agents' local programs into absolute-time trajectories.

An agent executes its program in its own coordinate system and units; the
simulator needs the resulting motion in absolute coordinates and absolute
time.  Programs reach the compiler in one form, a stream of column blocks
(:class:`~repro.motion.program.ColumnBlock`: rows ``(dx, dy, duration)`` of
local displacement and local duration).  Folding the rows gives the *local*
state of row ``k``: the local time ``T`` and displacement ``C`` accumulated
before it, and its local velocity ``v = (dx, dy) / duration``.  Every agent
running the program sees an affine image of that local state, fixed by its
private attributes (:func:`agent_frame`):

* absolute start time ``wake + rate * T`` (``rate`` is the clock rate ``tau``);
* absolute position ``start + unit * M(phi, chi) * C`` (``unit = tau * v``);
* absolute velocity ``(unit / rate) * M(phi, chi) * v``;
* absolute duration ``rate * duration``;

plus a pre-wake row (zero velocity at the start point from time 0) when the
agent wakes late.  :func:`absolute_state` is the one row formula; both engines
call it, so their rows agree to the last bit by construction:

* :func:`compile_trajectory`, the event engine's, works lazily, one
  :class:`TrajectorySegment` at a time, so infinite programs can be consumed
  under a budget.  Timestamps go through an optional *timebase* object (see
  :mod:`repro.sim.timebase`): plain floats with the default ``None``,
  ``Fraction`` values with an exact timebase, which folds the local durations
  and applies the wake offset and clock rate exactly.
* The batch engine reads a :class:`LocalProgramBuilder` (the blocks folded
  into columnar arrays once, shared by every instance running the same
  universal program) through :class:`TrajectoryView` s: one agent's table as
  the shared local columns plus that agent's frame.  Nothing is compiled per
  agent; :func:`repro.sim.rounds.build_windows` maps only the rows a round
  touches.  :meth:`TrajectoryView.materialize` builds the explicit
  :class:`TrajectoryTable` (tests, the stall transform).

The lazy compiler is the reference the views are tested against: materialized
rows equal its segments, exactly, however the program is split into blocks.
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
    end_time, end_pos:
        Absolute time and position at which the next segment starts (time
        ``None`` for an unbounded segment), so one segment ends exactly where
        the next begins.
    kind:
        ``"move"``, ``"wait"`` or ``"sleep"`` — used for reporting only.
    """

    start_time: Any
    duration: float
    start_pos: Vec2
    velocity: Vec2
    end_time: Any
    end_pos: Vec2
    kind: str = "move"

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
        end_time=timebase.lift(wake) if timebase is not None else wake,
        end_pos=spec.start,
        kind="sleep",
    )


#: An agent's affine frame, as :func:`agent_frame` returns it:
#: ``(wake, rate, x0, y0, p00, p01, p10, p11, q00, q01, q10, q11)`` with
#: ``p = unit * M(phi, chi)`` mapping local displacement and
#: ``q = (unit / rate) * M(phi, chi)`` mapping local velocity.
Frame = Tuple[float, ...]


def agent_frame(spec: AgentSpec) -> Frame:
    """The affine frame taking a program's local state to ``spec``'s absolute one."""
    units = spec.units
    unit = units.length_unit
    rate = units.clock_rate
    m00, m01, m10, m11 = frame_matrix(spec.frame.phi, spec.frame.chi)
    velocity_unit = unit / rate
    x0, y0 = spec.start
    return (
        float(units.wake_time), float(rate), float(x0), float(y0),
        unit * m00, unit * m01, unit * m10, unit * m11,
        velocity_unit * m00, velocity_unit * m01,
        velocity_unit * m10, velocity_unit * m11,
    )


def absolute_time(wake, rate, local_time):
    """The time part of :func:`absolute_state`, for lookups needing no position."""
    time = rate * local_time
    time += wake
    return time


def absolute_state(frame, time, cx, cy, vx, vy):
    """The absolute ``(time, x, y, vx, vy)`` of local row state(s), in one formula.

    ``time``/``cx``/``cy`` are the local time and displacement accumulated
    before the row and ``vx``/``vy`` its local velocity; ``frame`` is
    :func:`agent_frame`'s tuple.  Scalars and arrays alike (a frame of
    per-row arrays maps rows of many agents at once), and with ``Fraction``
    ``wake``/``rate``/``time`` the time is exact.  Every engine path maps
    rows through this function, which is what keeps them bit-identical.
    """
    wake, rate, x0, y0, p00, p01, p10, p11, q00, q01, q10, q11 = frame
    # Accumulate in place where the operands are arrays (IEEE addition
    # commutes, so ``x0 + (a + b)`` and ``(a + b) + x0`` are the same bits).
    x = p00 * cx
    x += p01 * cy
    x += x0
    y = p10 * cx
    y += p11 * cy
    y += y0
    vx_out = q00 * vx
    vx_out += q01 * vy
    vy_out = q10 * vx
    vy_out += q11 * vy
    return absolute_time(wake, rate, time), x, y, vx_out, vy_out


def _validated_columns(block: ColumnBlock) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked ``(dx, dy, duration)`` columns of one program block.

    The one validator both engines read blocks through: the columns must
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

    The local folds run in :class:`LocalProgramBuilder`'s order (local time
    in the timebase) and every row goes through :func:`absolute_state`, so on
    the float timebase segment ``k`` equals row ``k`` of every
    :class:`TrajectoryView` of the program exactly.
    """
    frame = agent_frame(spec)
    rate = frame[1]
    if timebase is not None:
        frame = (timebase.lift(frame[0]), timebase.lift(rate)) + frame[2:]
    local_time = timebase.lift(0.0) if timebase is not None else 0.0
    cx = cy = 0.0

    pre_wake = sleep_segment(spec, timebase)
    if pre_wake is not None:
        yield pre_wake

    start_time, x, y, _, _ = absolute_state(frame, local_time, cx, cy, 0.0, 0.0)
    for block in blocks:
        dxs, dys, local_durations = _validated_columns(block)
        for dx, dy, local in zip(dxs.tolist(), dys.tolist(), local_durations.tolist()):
            local_time = (
                timebase.add(local_time, local) if timebase is not None else local_time + local
            )
            cx = cx + dx
            cy = cy + dy
            end_time, end_x, end_y, vx, vy = absolute_state(
                frame, local_time, cx, cy, dx / local, dy / local
            )
            yield TrajectorySegment(
                start_time=start_time,
                duration=local * rate,
                start_pos=(x, y),
                velocity=(vx, vy),
                end_time=end_time,
                end_pos=(end_x, end_y),
                kind="wait" if dx == 0.0 and dy == 0.0 else "move",
            )
            start_time, x, y = end_time, end_x, end_y


# -- bulk (columnar) mode ------------------------------------------------------------


@dataclass(frozen=True)
class LocalProgramTable:
    """A finite prefix of a local program as columnar arrays.

    One row per non-null instruction: ``(dx, dy)`` is the local displacement
    (zero for waits) and ``duration`` the local duration (the move length for
    moves, the wait time for waits).  ``cumulative`` is the running sum of
    durations *after* each row.  ``complete`` records whether the source
    program was fully consumed (finite program) or truncated by a budget.
    ``source`` is the builder the rows come from (its folded state columns
    back every :class:`TrajectoryView` of the prefix).
    """

    dx: np.ndarray
    dy: np.ndarray
    duration: np.ndarray
    cumulative: np.ndarray
    complete: bool
    source: "LocalProgramBuilder"

    def __len__(self) -> int:
        return int(self.duration.shape[0])

    @property
    def total_duration(self) -> float:
        """Total local time covered by the rows."""
        return float(self.cumulative[-1]) if len(self) else 0.0

    def prefix(self, count: int) -> "LocalProgramTable":
        """The first ``count`` rows: ``complete`` only if that is all of them."""
        if count == len(self):
            return self
        return LocalProgramTable(
            dx=self.dx[:count],
            dy=self.dy[:count],
            duration=self.duration[:count],
            cumulative=self.cumulative[:count],
            complete=False,
            source=self.source,
        )


class LocalProgramBuilder:
    """Incrementally consumes a stream of column blocks into columnar arrays.

    The input is a stream of :class:`~repro.motion.program.ColumnBlock` s
    (``Algorithm.program_blocks_for``; instruction streams go through
    :func:`~repro.motion.program.instruction_blocks`).  Blocks are pulled only
    on demand (:meth:`ensure_time`), so infinite programs can be consumed
    under a budget, and :meth:`snapshot` returns array *views* — one builder
    can serve every instance of a batch that runs the same universal program,
    each with its own local-time budget.

    Besides the input columns the builder keeps the folded local state every
    view maps (:meth:`state_columns`): local time and displacement before
    each row — left folds seeded with the carried totals, so they do not
    depend on block boundaries — and local velocity.  Index ``len(self)``
    holds the totals after the last row; once the program is exhausted it is
    the stationary trailing row (zero velocity, infinite duration).

    Every block goes through :func:`_validated_columns`, which checks it and
    drops its null rows (zero duration).  A snapshot
    that reaches the end of the buffers looks one block ahead, so it is
    ``complete`` exactly when it holds the whole of a finite program.
    """

    _COLUMNS = ("_dx", "_dy", "_duration", "_time", "_cx", "_cy", "_vx", "_vy")

    def __init__(self, blocks: Iterable[ColumnBlock]) -> None:
        self._iter = iter(blocks)
        self._size = 0
        for name in self._COLUMNS:
            setattr(self, name, np.zeros(1))
        self._lookahead: Optional[ColumnBlock] = None
        self.exhausted = False

    def __len__(self) -> int:
        return self._size

    @property
    def consumed_local_time(self) -> float:
        return float(self._time[self._size])

    def state_columns(self) -> Tuple[np.ndarray, ...]:
        """The folded local ``(time, cx, cy, vx, vy)`` columns (all rows read)."""
        return self._time, self._cx, self._cy, self._vx, self._vy

    def _ensure_capacity(self, needed: int) -> None:
        """Grow the column buffers geometrically (linear total copying).

        Reallocation leaves the old arrays untouched, so views handed out by
        earlier :meth:`snapshot` calls stay valid; appends only ever write at
        indices beyond any previously snapshotted prefix.
        """
        capacity = self._duration.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(16, 2 * capacity, needed)
        for name in self._COLUMNS:
            old = getattr(self, name)
            grown = np.empty(new_capacity, dtype=float)
            grown[: self._size + 1] = old[: self._size + 1]
            setattr(self, name, grown)

    def _append(self, block: ColumnBlock) -> None:
        dx, dy, duration = _validated_columns(block)
        count = duration.shape[0]
        if not count:
            return
        start = self._size
        end = start + count
        self._ensure_capacity(end + 1)
        self._dx[start:end] = dx
        self._dy[start:end] = dy
        self._duration[start:end] = duration
        np.divide(dx, duration, out=self._vx[start:end])
        np.divide(dy, duration, out=self._vy[start:end])
        # One column-wise cumsum continues all three left folds at once; the
        # leading carry row makes the additions (c_j = c_{j-1} + d_j) land in
        # exactly the from-scratch order, whatever the block boundaries are.
        fold = np.empty((count + 1, 3))
        fold[0] = self._time[start], self._cx[start], self._cy[start]
        fold[1:, 0] = duration
        fold[1:, 1] = dx
        fold[1:, 2] = dy
        np.cumsum(fold, axis=0, out=fold)
        self._time[start : end + 1] = fold[:, 0]
        self._cx[start : end + 1] = fold[:, 1]
        self._cy[start : end + 1] = fold[:, 2]
        self._size = end

    def _peek(self) -> None:
        """Fetch the next block without appending it; mark the end if none."""
        if self._lookahead is None and not self.exhausted:
            self._lookahead = next(self._iter, None)
            if self._lookahead is None:
                self.exhausted = True
                # The program is final: index ``len`` becomes the trailing row.
                self._vx[self._size] = self._vy[self._size] = 0.0
                self._duration[self._size] = math.inf

    def _pull(self) -> None:
        """Append the next block (or mark the program exhausted)."""
        self._peek()
        if self._lookahead is not None:
            block, self._lookahead = self._lookahead, None
            self._append(block)

    def ensure_time(self, local_time: float, *, max_steps: Optional[int] = None) -> None:
        """Consume until the covered local time reaches ``local_time``.

        At least one row is read, so the row in play at ``local_time`` is
        there even at time 0.  Stops early when the program ends or
        ``max_steps`` rows exist.
        """
        while not self.exhausted and (
            self.consumed_local_time < local_time or not self._size
        ):
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
                    self._time[1 : self._size + 1].searchsorted(
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
            cumulative=self._time[1 : count + 1],
            complete=complete,
            source=self,
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


def exact_counts(time, limit, wake, rate, bound, strict):
    """Per query ``i``: ``#{k < limit[i] : wake[i] + rate[i] * time[k] < bound[i]}``.

    ``<=`` instead of ``<`` when not ``strict``; ``time`` is non-decreasing,
    so the count is a cut.  A ``searchsorted`` of the local times at
    ``(bound - wake) / rate`` guesses it, and a galloping search against the
    absolute times corrects the guess, so the cut equals ``searchsorted`` on
    the materialized column exactly: rounding can map a long run of local
    times onto one absolute time (a late wake, tiny durations), and the
    correction is bounded by that run, not by one neighbour.
    """
    side = "left" if strict else "right"
    guess = time[: int(limit.max(initial=0))].searchsorted((bound - wake) / rate, side=side)
    np.minimum(guess, limit, out=guess)

    def below(queries, rows):
        absolute = absolute_time(wake[queries], rate[queries], time[rows])
        return absolute < bound[queries] if strict else absolute <= bound[queries]

    low = np.zeros_like(guess)  # the count lies in [low, high]
    high = limit.astype(guess.dtype)

    def probe(queries, rows):
        # Tighten [low, high] with one row per query; True where it holds.
        hit = below(queries, rows)
        low[queries[hit]] = np.maximum(low[queries[hit]], rows[hit] + 1)
        high[queries[~hit]] = np.minimum(high[queries[~hit]], rows[~hit])
        return hit

    radius = 1
    open_ = np.arange(guess.shape[0])
    while open_.size:
        # Gallop out from the guess until rows on both sides bracket the cut.
        down = guess[open_] - radius
        lower = down < 0
        lower[~lower] = probe(open_[~lower], down[~lower])
        up = guess[open_] + radius - 1
        upper = up >= high[open_]
        upper[~upper] = ~probe(open_[~upper], up[~upper])
        open_ = open_[~(lower & upper) & (low[open_] < high[open_])]
        radius *= 2
    open_ = np.flatnonzero(low < high)
    while open_.size:
        probe(open_, (low[open_] + high[open_]) // 2)
        open_ = open_[low[open_] < high[open_]]
    return low


@dataclass(frozen=True)
class TrajectoryTable:
    """The absolute-time trajectory of one agent, as explicit columnar arrays.

    One row per constant-velocity stretch (the columnar analogue of a run of
    :class:`TrajectorySegment`): absolute ``start_time``, ``duration`` (the
    last row's duration is ``inf`` when the program is finite and fully
    represented), absolute start position and velocity components.  The
    batch engine works on :class:`TrajectoryView` s; explicit tables are
    their materialization and the stall transform's output, and both answer
    the same row lookups.

    Attributes
    ----------
    exhausted:
        Whether the table represents the *entire* trajectory (finite program,
        trailing infinite stationary row appended).  When false, the table
        covers exactly ``[0, end_time]`` and says nothing beyond.
    segments:
        Number of rows that correspond to real compiled segments (excludes
        the synthetic trailing row, includes the pre-wake sleep row).
    end_time:
        Absolute time up to which the table describes the motion: for a
        table cut from a longer program, the start of the program's next row
        (the last row's start plus duration can miss it by an ulp).
    """

    start_time: np.ndarray
    duration: np.ndarray
    start_x: np.ndarray
    start_y: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray
    exhausted: bool
    segments: int
    end_time: float

    #: Explicit rows need no frame: they are their own source.
    frame = None

    def __len__(self) -> int:
        return int(self.start_time.shape[0])

    @property
    def source(self) -> "TrajectoryTable":
        return self

    def state_columns(self) -> Tuple[np.ndarray, ...]:
        """The absolute ``(time, x, y, vx, vy)`` columns."""
        return self.start_time, self.start_x, self.start_y, self.vel_x, self.vel_y

    @property
    def finish_time(self) -> Optional[float]:
        """Absolute time at which the (finite) program ends, if represented."""
        if not self.exhausted or len(self) == 0:
            return None
        return float(self.start_time[-1])

    def boundaries(self) -> np.ndarray:
        """Internal event times (starts of every row but the first)."""
        return self.start_time[1:]

    def count_boundaries(self, time: float, strict: bool = False) -> int:
        """Boundaries (starts of rows but the first) before ``time``, or at it too."""
        return int(self.boundaries().searchsorted(time, side="left" if strict else "right"))

    def start_times(self, count: int) -> np.ndarray:
        """The start times of the first ``count`` rows."""
        return self.start_time[:count]

    def row(self, index: int) -> Tuple[float, ...]:
        """Row ``index`` as ``(start, duration, x, y, vx, vy)`` floats."""
        return tuple(
            float(column[index])
            for column in (
                self.start_time, self.duration, self.start_x, self.start_y,
                self.vel_x, self.vel_y,
            )
        )

    def materialize(self) -> "TrajectoryTable":
        return self

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


#: Process-wide count of trajectory rows materialized into explicit
#: :class:`TrajectoryTable` s (the batch engine maps view rows without
#: materializing them, so it adds nothing here unless a stall splices a table).
_ROWS_COMPILED_TOTAL = 0


def rows_compiled_total() -> int:
    """Trajectory rows materialized process-wide."""
    return _ROWS_COMPILED_TOTAL


class TrajectoryView:
    """One agent's trajectory table: shared local rows seen through its frame.

    Row ``r`` of the table is the pre-wake row when the agent wakes late
    (``pre == 1``, row 0: time 0, the start point, zero velocity, lasting
    until the wake time), and otherwise local row ``r - pre`` of the
    builder's folded state mapped by :func:`absolute_state`; a complete
    program's trailing stationary row is the builder's row after the last.
    Nothing is stored per agent beyond the frame, so any number of views
    share one builder; :func:`repro.sim.rounds.build_windows` maps the rows
    it touches, and :meth:`materialize` builds the explicit table.

    ``rows`` counts the local rows in the table (the trailing row included),
    ``segments`` the real segments (the pre-wake row included, the trailing
    row not) — the event engine's cursor count.
    """

    __slots__ = (
        "source", "frame", "pre", "rows", "segments", "exhausted",
        "end_time", "finish_time",
    )

    def __init__(self, local: LocalProgramTable, frame: Frame) -> None:
        self.source = local.source
        self.frame = frame
        self.pre = 1 if frame[0] > 0.0 else 0
        self.exhausted = local.complete
        self.rows = len(local) + (1 if local.complete else 0)
        self.segments = self.pre + len(local)
        #: Absolute time up to which the table describes the motion, and the
        #: time the (finite) program ends at, if represented: both the start
        #: of the builder's row after the prefix.
        last = self._time(len(local))
        self.end_time = math.inf if self.exhausted else last
        self.finish_time = last if self.exhausted else None

    def __len__(self) -> int:
        return self.pre + self.rows

    def _time(self, local_row: int) -> float:
        return absolute_time(self.frame[0], self.frame[1], float(self.source._time[local_row]))

    def _count(self, bound: float, strict: bool) -> int:
        """``#{k < rows : absolute time of local row k < bound}`` (``<=`` if not strict)."""
        wake, rate = self.frame[0], self.frame[1]
        time = self.source._time
        rows = self.rows
        side = "left" if strict else "right"
        k = int(time[:rows].searchsorted((bound - wake) / rate, side=side))

        def below(row: int) -> bool:
            absolute = self._time(row)
            return absolute < bound if strict else absolute <= bound

        if (k == 0 or below(k - 1)) and (k == rows or not below(k)):
            return k
        return int(
            exact_counts(
                time, np.array([rows]), np.array([wake]), np.array([rate]),
                np.array([bound]), strict,
            )[0]
        )

    def count_boundaries(self, time: float, strict: bool = False) -> int:
        """Boundaries (starts of rows but the first) before ``time``, or at it too."""
        # Without a pre-wake row, local row 0 is the table's first row.
        return max(self._count(time, strict) - (1 - self.pre), 0)

    def start_times(self, count: int) -> np.ndarray:
        """The start times of the first ``count`` rows."""
        local = max(count - self.pre, 0)
        times = absolute_time(self.frame[0], self.frame[1], self.source._time[:local])
        return np.concatenate(([0.0], times))[:count] if self.pre else times

    def row(self, index: int) -> Tuple[float, ...]:
        """Row ``index`` as ``(start, duration, x, y, vx, vy)`` floats."""
        if index < self.pre:
            return (0.0, self.frame[0], self.frame[2], self.frame[3], 0.0, 0.0)
        k = index - self.pre
        source = self.source
        time, x, y, vx, vy = absolute_state(
            self.frame, *(float(column[k]) for column in source.state_columns())
        )
        return (time, float(source._duration[k]) * self.frame[1], x, y, vx, vy)

    def materialize(self) -> TrajectoryTable:
        """The explicit table of every row (counted by :func:`rows_compiled_total`)."""
        global _ROWS_COMPILED_TOTAL
        source = self.source
        time, x, y, vx, vy = absolute_state(
            self.frame, *(column[: self.rows] for column in source.state_columns())
        )
        columns = (time, source._duration[: self.rows] * self.frame[1], x, y, vx, vy)
        if self.pre:
            columns = tuple(
                np.concatenate(([head], column)) for head, column in zip(self.row(0), columns)
            )
        _ROWS_COMPILED_TOTAL += len(self)
        _obs.add("compiler.rows_compiled", len(self))
        return TrajectoryTable(
            *columns, exhausted=self.exhausted, segments=self.segments, end_time=self.end_time
        )


class IncrementalTableCompiler:
    """Hands out one agent's tables: views of the growing program prefixes.

    The adaptive-horizon driver re-requests the same agent's trajectory with
    ever longer prefixes (one per round); nothing is compiled, the builder
    folded the local rows once for every agent.  Views are memoized per
    ``(builder, rows, complete)``, which preserves the identity-sharing that
    the flat window construction dedupes by.
    """

    __slots__ = ("frame", "_tables")

    def __init__(self, spec: AgentSpec) -> None:
        #: The agent's :func:`agent_frame`, shared by every view handed out.
        self.frame = agent_frame(spec)
        self._tables: dict = {}

    def table(self, local: LocalProgramTable) -> TrajectoryView:
        """The table of ``local`` as seen by this compiler's agent."""
        key = (local.source, len(local), local.complete)
        table = self._tables.get(key)
        if table is None:
            table = TrajectoryView(local, self.frame)
            self._tables[key] = table
        return table


#: The program that never moves: one stationary row from time 0, forever.
_IDLE_PROGRAM = LocalProgramBuilder(()).snapshot(math.inf)


def constant_table(position: Vec2) -> TrajectoryView:
    """A one-row table pinned at ``position`` forever.

    The columnar analogue of an agent that never moves: a single stationary
    row covering all of time (``exhausted`` — there is nothing beyond it, and
    ``segments == 0`` — no compiled program segment backs it), as a view of
    the shared empty program with ``position`` as its start.  The
    asymmetric-radius batch engine substitutes this for the frozen agent's
    table: the freeze discards the agent's remaining program, so from the
    freeze time on its trajectory is exactly "stand at the freeze position".
    """
    x, y = float(position[0]), float(position[1])
    return TrajectoryView(
        _IDLE_PROGRAM, (0.0, 1.0, x, y, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0)
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
                end_time=shifted(segment.start_time),
                end_pos=segment.start_pos,
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
                end_time=shifted(segment.end_time),
                end_pos=segment.end_pos,
                kind=segment.kind,
            )
        else:
            yield segment


def stalled_table(table, onset: float, duration: float):
    """The columnar stall transform: the batch-engine lowering.

    Inserts one zero-velocity row at the first *real* row starting at or
    after ``onset`` and shifts that row and everything after it (including a
    synthetic trailing row) by ``duration``, in the table's explicit form;
    the coverage end shifts with them.
    Identity (the same table object) when no compiled row qualifies — which,
    by the boundary-snapping semantics, is exactly when the stall also never
    surfaces on the event path within the table's coverage.
    """
    count = int(table.segments)
    insert = int(np.searchsorted(table.start_times(count), onset, side="left"))
    if insert >= count:
        return table
    table = table.materialize()

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
        end_time=table.end_time + duration,
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
