"""The entry-aligned chunked round solve, kept verbatim as a test oracle.

This is :func:`repro.sim.rounds.solve_round` as it stood before the tiled
window pipeline: windows are cut into chunks of whole entries of up to
``KERNEL_CHUNK_WINDOWS`` windows, every chunk reads the eight state columns
over its whole range, and the segmented reductions run per chunk.
``tests/test_sim_solve_round.py`` requires the tiled solve to reproduce every
field of the :class:`RoundSolution` it returns bit for bit.  It reads a
round's state columns through ``RoundWindows.states``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import KERNEL_CHUNK_PARITY
from repro.geometry.closest_approach import (
    fused_window_batch,
    fused_window_batch_dual,
)
from repro.sim.rounds import RoundWindows

#: Upper bound on the number of stacked windows handed to one kernel call.
#: Chunks cap peak memory (each window carries ~10 float64 columns) without
#: changing any result — segmented reductions never cross instances.
KERNEL_CHUNK_WINDOWS = 1 << 21

#: Shared consecutive-integer buffer for segmented index arithmetic; grows on
#: demand and is only ever read through slices, so earlier slices stay valid.
_CONSECUTIVE = np.arange(4096)


def _consecutive(count: int) -> np.ndarray:
    """The integers ``0..count-1`` as a slice of a shared, growing buffer."""
    global _CONSECUTIVE
    if count > _CONSECUTIVE.shape[0]:
        _CONSECUTIVE = np.arange(max(count, 2 * _CONSECUTIVE.shape[0]))
    return _CONSECUTIVE[:count]


class RoundSolution:
    """Per-entry reductions of one solved round.

    ``first_hit[k]`` is the global window index (into the round's flat
    arrays) of the first window whose quadratic has a hit at the primary
    radius — or ``offsets[k + 1]``, one past entry ``k``'s range, when it has
    none — and ``hit_offset[k]`` the hit's offset inside that window.  With a
    second radius column, ``first_hit2``/``hit_offset2`` answer the same
    question for it.  ``group_min``/``min_time`` are the per-entry closest
    approach over the scanned prefix (up to and including the window where
    the earliest hit of either radius occurred) and its absolute time, or
    ``None`` when untracked.
    """

    __slots__ = (
        "first_hit",
        "hit_offset",
        "first_hit2",
        "hit_offset2",
        "group_min",
        "min_time",
    )

    def __init__(self, size: int, dual: bool, track: bool) -> None:
        self.first_hit = np.empty(size, dtype=np.int64)
        self.hit_offset = np.empty(size, dtype=float)
        self.first_hit2 = np.empty(size, dtype=np.int64) if dual else None
        self.hit_offset2 = np.empty(size, dtype=float) if dual else None
        self.group_min = np.full(size, math.inf) if track else None
        self.min_time = np.empty(size, dtype=float) if track else None


def _first_hits(hit, index, local_offsets, local_total):
    """Segmented first-hit reduction: per-group first window index with a hit."""
    masked = np.where(~np.isnan(hit), index, local_total)
    return np.minimum.reduceat(masked, local_offsets)


def _clamp_tracking(window_min, window_t_star, at, limit, rel_x, rel_y, rvel_x, rvel_y):
    """Re-track windows ``at`` over ``[0, limit]``: their motion stops there.

    The clamped ``t*`` is the unconstrained optimum clipped into the
    shortened window — the same arithmetic the event engine runs on its
    clamped window.
    """
    t_star = np.minimum(window_t_star[at], limit)
    at_x = rel_x[at] + t_star * rvel_x[at]
    at_y = rel_y[at] + t_star * rvel_y[at]
    window_min[at] = np.sqrt(at_x * at_x + at_y * at_y)
    window_t_star[at] = t_star


#: Chunk-parity contract sampling: every ``2**_PARITY_SAMPLE_SHIFT``-th
#: eligible ``solve_round`` call (plus the very first) re-solves under an
#: alternative chunk partition and bit-compares — enough to exercise the
#: invariant continuously without doubling test-mode kernel time.
_PARITY_SAMPLE_SHIFT = 4
#: Rounds larger than this many windows are never parity-resampled (the
#: re-solve would dominate the round's own cost).
_PARITY_MAX_WINDOWS = 1 << 16
_parity_calls = 0


def solve_round(
    windows: RoundWindows,
    radius: np.ndarray,
    *,
    track_min_distance: bool,
    second_radius: Optional[np.ndarray] = None,
    clamp_at_second_hit: bool = False,
    _chunk_target: Optional[int] = None,
    _parity_recheck: bool = True,
) -> RoundSolution:
    """Solve all windows of a round with the fused batch kernel, chunked.

    ``radius`` (and the optional ``second_radius``) are per-window columns —
    windows of different instances carry different radii, which is how
    per-agent visibility radii flow through the shared pipeline.  Chunking
    caps peak kernel memory without changing any result: segmented
    reductions never cross instances, and each chunk is one kernel call.

    ``clamp_at_second_hit`` is the Section 5 freeze semantics: a
    second-radius hit that strictly precedes any first-radius hit cancels the
    rest of that window's motion (the larger-radius agent freezes), so the
    closest-approach tracking of that window is clamped to the hit offset —
    the minimum past the freeze would come from motion that never happens.
    """
    counts = windows.counts
    offsets = windows.offsets
    n_entries = int(counts.shape[0])
    dual = second_radius is not None
    solution = RoundSolution(n_entries, dual, track_min_distance)
    if n_entries == 0:
        return solution

    total = int(offsets[-1])
    target = KERNEL_CHUNK_WINDOWS
    if _chunk_target is not None:
        # Private hook of the chunk-parity contract: re-solve the same round
        # under a different partition of the window table.
        target = _chunk_target
    bounds = [0]
    while bounds[-1] < n_entries:
        start = bounds[-1]
        end = int(np.searchsorted(offsets, offsets[start] + target, side="right")) - 1
        bounds.append(min(max(end, start + 1), n_entries))
    chunks = list(zip(bounds[:-1], bounds[1:]))

    for chunk_start, chunk_end in chunks:
        lo = int(offsets[chunk_start])
        hi = int(offsets[chunk_end])
        starts = windows.starts[lo:hi]
        durations = windows.durations[lo:hi]
        pax, pay, vax, vay, pbx, pby, vbx, vby = (
            column[lo:hi] for column in windows.states
        )
        rel_x = pbx - pax
        rel_y = pby - pay
        rvel_x = vbx - vax
        rvel_y = vby - vay

        if dual:
            hit, hit2, window_min, window_t_star = fused_window_batch_dual(
                rel_x, rel_y, rvel_x, rvel_y,
                radius[lo:hi], second_radius[lo:hi], durations,
                track_closest=track_min_distance,
            )
        else:
            hit, window_min, window_t_star = fused_window_batch(
                rel_x, rel_y, rvel_x, rvel_y, radius[lo:hi], durations,
                track_closest=track_min_distance,
            )
            hit2 = None

        local_counts = counts[chunk_start:chunk_end]
        local_offsets = offsets[chunk_start:chunk_end] - lo
        local_total = hi - lo
        index = _consecutive(local_total)
        if track_min_distance and windows.final_durations is not None:
            # Hits stop at the horizon (the next round rescans the cut
            # window), but the closest approach of each final window is
            # tracked to its real end, as the event engine's window runs —
            # or to a freeze past the horizon, which ends the motion there.
            # Otherwise the horizon's cut point would become a result.
            last = local_offsets + local_counts - 1
            final = (rel_x[last], rel_y[last], rvel_x[last], rvel_y[last])
            final_durations = windows.final_durations[chunk_start:chunk_end]
            if dual:
                end_hit, end_hit2, window_min[last], window_t_star[last] = (
                    fused_window_batch_dual(
                        *final, radius[lo:hi][last], second_radius[lo:hi][last],
                        final_durations,
                    )
                )
                if clamp_at_second_hit:
                    frozen = end_hit2 < np.where(np.isnan(end_hit), math.inf, end_hit)
                    _clamp_tracking(
                        window_min, window_t_star, last[frozen], end_hit2[frozen],
                        rel_x, rel_y, rvel_x, rvel_y,
                    )
            else:
                _, window_min[last], window_t_star[last] = fused_window_batch(
                    *final, radius[lo:hi][last], final_durations
                )

        local_first = _first_hits(hit, index, local_offsets, local_total)
        has_hit = local_first < local_total
        bounded_first = np.where(has_hit, local_first, 0)
        solution.first_hit[chunk_start:chunk_end] = np.where(
            has_hit, local_first + lo, offsets[chunk_start + 1 : chunk_end + 1]
        )
        solution.hit_offset[chunk_start:chunk_end] = np.where(
            has_hit, hit[bounded_first], np.nan
        )
        scan_limit = local_first
        if dual:
            local_first2 = _first_hits(hit2, index, local_offsets, local_total)
            has_hit2 = local_first2 < local_total
            bounded2 = np.where(has_hit2, local_first2, 0)
            solution.first_hit2[chunk_start:chunk_end] = np.where(
                has_hit2, local_first2 + lo, offsets[chunk_start + 1 : chunk_end + 1]
            )
            solution.hit_offset2[chunk_start:chunk_end] = np.where(
                has_hit2, hit2[bounded2], np.nan
            )
            # The scan stops at the earliest event of either radius.
            scan_limit = np.minimum(scan_limit, local_first2)
            if clamp_at_second_hit and track_min_distance:
                # Freeze semantics: where the second-radius hit strictly
                # precedes the first-radius one (earlier window, or same
                # window at a smaller offset), the window's motion past the
                # hit never happens: re-derive that one window's tracked
                # minimum over [0, hit2].
                second_wins = has_hit2 & (
                    (local_first2 < local_first)
                    | (
                        (local_first2 == local_first)
                        & (hit2[bounded2] < hit[bounded2])
                    )
                )
                at = bounded2[second_wins]
                _clamp_tracking(
                    window_min, window_t_star, at, hit2[at],
                    rel_x, rel_y, rvel_x, rvel_y,
                )

        if track_min_distance:
            # Only windows up to (and including) the stopping window count,
            # mirroring the event engine, which stops at the meeting (or
            # freeze) window.
            in_prefix = index <= np.repeat(scan_limit, local_counts)
            masked_min = np.where(in_prefix, window_min, math.inf)
            chunk_min = np.minimum.reduceat(masked_min, local_offsets)
            is_chunk_min = masked_min == np.repeat(chunk_min, local_counts)
            chunk_min_index = np.minimum.reduceat(
                np.where(is_chunk_min, index, local_total), local_offsets
            )
            solution.group_min[chunk_start:chunk_end] = chunk_min
            has_min = chunk_min_index < local_total
            bounded_min = np.where(has_min, chunk_min_index, 0)
            solution.min_time[chunk_start:chunk_end] = np.where(
                has_min, starts[bounded_min] + window_t_star[bounded_min], np.nan
            )

    if (
        _parity_recheck
        and n_entries > 1
        and total <= _PARITY_MAX_WINDOWS
        and _contracts.enabled()
    ):
        global _parity_calls
        sample = _parity_calls % (1 << _PARITY_SAMPLE_SHIFT) == 0
        _parity_calls += 1
        if sample:
            # Re-solve under a different chunk partition (single-chunk when
            # this pass was chunked, roughly-halved otherwise) and require a
            # bit-identical solution — the declared contract behind the
            # memory-capped chunking.
            alternative = solve_round(
                windows, radius,
                track_min_distance=track_min_distance,
                second_radius=second_radius,
                clamp_at_second_hit=clamp_at_second_hit,
                _chunk_target=(total if len(chunks) > 1 else max(1, total // 2)),
                _parity_recheck=False,
            )
            same = np.array_equal(solution.first_hit, alternative.first_hit)
            same = same and np.array_equal(
                solution.hit_offset, alternative.hit_offset, equal_nan=True
            )
            if dual:
                same = same and np.array_equal(
                    solution.first_hit2, alternative.first_hit2
                )
                same = same and np.array_equal(
                    solution.hit_offset2, alternative.hit_offset2, equal_nan=True
                )
            if track_min_distance:
                same = same and np.array_equal(
                    solution.group_min, alternative.group_min, equal_nan=True
                )
                same = same and np.array_equal(
                    solution.min_time, alternative.min_time, equal_nan=True
                )
            KERNEL_CHUNK_PARITY.check(
                same,
                f"{total} windows / {n_entries} entries diverged across "
                "chunk partitions",
            )

    return solution
