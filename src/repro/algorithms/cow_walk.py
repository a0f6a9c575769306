"""``LinearCowWalk`` and ``PlanarCowWalk`` (Algorithms 3 and 2 of the paper).

``LinearCowWalk(i)`` performs the first ``i`` steps of the classic cow-path
linear search along the agent's local x-axis: step ``j`` goes East ``2**j``,
West ``2**(j+1)`` and back East ``2**j``, so every step (and therefore the
whole walk) starts and ends at the same point while visiting every point of
the line at distance at most ``2**j`` from it.

``PlanarCowWalk(i)`` repeats ``LinearCowWalk(i)`` from every point
``(0, k / 2**i)`` with ``|k| <= 2**(2*i)`` of the local y-axis (first sweeping
North, then South, returning to the start in between and at the end), which
lets an agent pass within ``2**-i`` local units of every point of the square
``[-2**i, 2**i]^2`` around its start.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterator, Tuple

import numpy as np

from repro.algorithms.base import UniversalAlgorithm
from repro.motion.instructions import Instruction, go_east, go_north, go_south, go_west
from repro.motion.program import ColumnBlock

#: Walks whose analytic segment count stays below this are memoized as tuples
#: (instance-independent instruction streams: every agent of every batched
#: simulation replays the identical list, so regenerating it is pure waste).
#: Above the limit the lazy generators are used — deep walks are consumed
#: under a budget and rarely to the end, so materializing them would trade
#: unbounded memory for nothing.
MEMO_SEGMENT_LIMIT = 100_000


def _linear_cow_walk_gen(i: int) -> Iterator[Instruction]:
    for j in range(1, i + 1):
        step = float(2**j)
        yield go_east(step)
        yield go_west(2.0 * step)
        yield go_east(step)


@lru_cache(maxsize=64)
def _linear_cow_walk_steps(i: int) -> Tuple[Instruction, ...]:
    return tuple(_linear_cow_walk_gen(i))


def linear_cow_walk(i: int) -> Iterator[Instruction]:
    """Algorithm 3: the first ``i`` steps of the linear cow-path search."""
    if i < 0:
        raise ValueError("LinearCowWalk parameter must be non-negative")
    if linear_cow_walk_segment_count(i) <= MEMO_SEGMENT_LIMIT:
        return iter(_linear_cow_walk_steps(i))
    return _linear_cow_walk_gen(i)


def _planar_cow_walk_gen(i: int) -> Iterator[Instruction]:
    row_step = 1.0 / float(2**i)
    rows = 2 ** (2 * i)
    half_height = float(2**i)

    yield from linear_cow_walk(i)
    for direction in (1, 2):
        for _ in range(rows):
            if direction == 1:
                yield go_north(row_step)
            else:
                yield go_south(row_step)
            yield from linear_cow_walk(i)
        if direction == 1:
            yield go_south(half_height)
        else:
            yield go_north(half_height)


@lru_cache(maxsize=16)
def _planar_cow_walk_steps(i: int) -> Tuple[Instruction, ...]:
    return tuple(_planar_cow_walk_gen(i))


def planar_cow_walk(i: int) -> Iterator[Instruction]:
    """Algorithm 2: parallel linear searches on a dyadic grid of rows."""
    if i < 0:
        raise ValueError("PlanarCowWalk parameter must be non-negative")
    if planar_cow_walk_segment_count(i) <= MEMO_SEGMENT_LIMIT:
        return iter(_planar_cow_walk_steps(i))
    return _planar_cow_walk_gen(i)


@lru_cache(maxsize=3)
def planar_cow_walk_columns(i: int) -> ColumnBlock:
    """``PlanarCowWalk(i)`` as one read-only column block.

    Row for row the instructions of :func:`planar_cow_walk` (``go(E, d)`` is
    ``(d, 0.0)``, ``go(S, d)`` is ``(0.0, -d)``, and so on), built with array
    operations instead of instruction objects.  The block carries the walk as
    its ``reference`` stream.
    """
    if i < 0:
        raise ValueError("PlanarCowWalk parameter must be non-negative")
    steps = 2.0 ** np.arange(1, i + 1)
    linear = np.stack([steps, -2.0 * steps, steps], axis=1).ravel()
    row_step = 1.0 / float(2**i)
    rows = 2 ** (2 * i)
    half_height = float(2**i)
    # One sweep row: the vertical hop, then a linear walk along the new row.
    row_dx = np.concatenate(([0.0], linear))
    row_zeros = np.zeros(row_dx.shape[0] - 1)
    north_dy = np.concatenate(([row_step], row_zeros))
    south_dy = np.concatenate(([-row_step], row_zeros))
    dx = np.concatenate(
        (linear, np.tile(row_dx, rows), [0.0], np.tile(row_dx, rows), [0.0])
    )
    dy = np.concatenate(
        (
            np.zeros(linear.shape[0]),
            np.tile(north_dy, rows),
            [-half_height],
            np.tile(south_dy, rows),
            [half_height],
        )
    )
    duration = np.hypot(dx, dy)
    for column in (dx, dy, duration):
        column.setflags(write=False)
    return ColumnBlock(dx, dy, duration, reference=partial(planar_cow_walk, i))


# -- analytic helpers used by schedules, tests and benchmarks -----------------------


def linear_cow_walk_duration(i: int) -> float:
    """Local time units needed to execute ``LinearCowWalk(i)`` (``= 2**(i+3) - 8``)."""
    return float(sum(4 * 2**j for j in range(1, i + 1)))


def linear_cow_walk_segment_count(i: int) -> int:
    """Number of move instructions emitted by ``LinearCowWalk(i)``."""
    return 3 * i


def planar_cow_walk_duration(i: int) -> float:
    """Local time units needed to execute ``PlanarCowWalk(i)``.

    One leading ``LinearCowWalk(i)``, then for each of the two vertical sweeps
    ``2**(2i)`` rows each costing ``2**-i`` (the vertical hop) plus one
    ``LinearCowWalk(i)``, plus the final vertical return of ``2**i``.
    """
    lcw = linear_cow_walk_duration(i)
    rows = 2 ** (2 * i)
    per_sweep = rows * (1.0 / 2**i + lcw) + 2**i
    return lcw + 2.0 * per_sweep


def planar_cow_walk_segment_count(i: int) -> int:
    """Number of move instructions emitted by ``PlanarCowWalk(i)``."""
    lcw = linear_cow_walk_segment_count(i)
    rows = 2 ** (2 * i)
    return lcw + 2 * (rows * (1 + lcw) + 1)


class LinearCowWalk(UniversalAlgorithm):
    """``LinearCowWalk(i)`` packaged as a (finite) universal algorithm."""

    def __init__(self, i: int) -> None:
        self.i = int(i)
        self.name = f"linear-cow-walk({self.i})"

    @property
    def program_cache_key(self):
        return ("linear-cow-walk", self.i) if type(self) is LinearCowWalk else None

    def program(self) -> Iterator[Instruction]:
        return linear_cow_walk(self.i)


class PlanarCowWalk(UniversalAlgorithm):
    """``PlanarCowWalk(i)`` packaged as a (finite) universal algorithm."""

    def __init__(self, i: int) -> None:
        self.i = int(i)
        self.name = f"planar-cow-walk({self.i})"

    @property
    def program_cache_key(self):
        return ("planar-cow-walk", self.i) if type(self) is PlanarCowWalk else None

    def program(self) -> Iterator[Instruction]:
        return planar_cow_walk(self.i)
