"""The vectorized batch simulation engine.

The event engine (:mod:`repro.sim.engine`) advances one simulation window at
a time in Python.  This module is the columnar counterpart for Monte-Carlo
campaigns: it reads both agents' trajectories as
:class:`~repro.motion.compiler.TrajectoryView` s (one shared local program
under each agent's affine frame), stacks the merged
event windows of *every instance of the batch* into flat arrays
(:func:`repro.sim.rounds.build_windows`), and solves all window quadratics
one cache-sized tile at a time (:func:`repro.sim.rounds.solve_round`).

One private round driver, :func:`_run_rounds`, serves both public entry
points: :func:`simulate_batch` (shared radius) and
:func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric` (Section 5
per-agent radii, which adds a freeze input).  The driver works through
*adaptive horizons*: every instance is first simulated to a small horizon
derived from its geometry, and only the instances that neither met nor
terminated are retried with a geometrically grown horizon.  Windows are
scanned in time order, so a hit found within a horizon is the global first
one; the horizon schedule never changes a result, it only bounds how much
trajectory is mapped and how many windows are solved.

A round is columns over the pending instance rows plus one table list per
agent, classified at once with numpy masks (met / freeze / grow / terminal)
into the carried columns of :class:`~repro.sim.columns.ResultColumns`.
Every entry that meets, terminates or freezes takes its segment-cursor
counts from one grouped boundary cut per side
(:func:`~repro.sim.rounds.cursor_segments`), and a freeze reads its table
rows from the round's gather columns; per-instance Python runs only at a
freeze, for the freeze position and the frozen agent's one-row table.

Scope and guarantees:

* float timebase only — the event engine stays authoritative for exact-
  timebase runs (S1/S2 boundary experiments, astronomically long waits);
* results are deterministic and independent of the horizon schedule and
  the kernel's tile size;
* per instance, the outcome (``met``, meeting time, termination reason,
  closest-approach *distance*) matches the event engine up to float
  associativity — the parity suites pin this to 1e-9 relative.
  ``min_distance_time`` is best-effort: when several windows attain
  near-equal minima, ulp-level differences can pick a different, equally
  minimal window;
* ``max_segments`` is the event engine's *combined* budget across both
  agents: the driver computes the exact absolute time at which the event
  loop would stop pulling segments and caps the horizon there;
* universal algorithms are consumed **once** per batch through a shared
  :class:`~repro.motion.compiler.LocalProgramBuilder`, and no agent's table
  is compiled: rows are mapped through the agent's frame only where a round
  touches them; non-universal programs are resolved once per
  (instance, agent), like the event engine.
"""

from __future__ import annotations

import math
import time as _time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_result
from repro.core.instance import Instance
from repro.motion.compiler import constant_table
from repro.obs import core as _obs
from repro.sim.columns import (
    MAX_SEGMENTS as _CODE_MAX_SEGMENTS,
    MAX_TIME as _CODE_MAX_TIME,
    PROGRAMS_FINISHED as _CODE_PROGRAMS_FINISHED,
    RENDEZVOUS as _CODE_RENDEZVOUS,
    ResultColumns,
)
from repro.sim.engine import _algorithm_name
from repro.sim.results import SimulationResult
from repro.sim.rounds import (
    GROWTH_FACTOR,
    KERNEL_CHUNK_WINDOWS,
    ProgramSource,
    StallTransform,
    build_windows,
    cursor_segments,
    default_initial_horizon,
    per_instance_option,
    round_bounds,
    solve_round,
    stall_arrays,
    trim_builder_cache,
)
from repro.sim.scenarios import scaled_agents
from repro.util.logging import get_logger

logger = get_logger("sim.batch")

__all__ = [
    "simulate_batch",
    "batch_group_key",
    "GROWTH_FACTOR",
    "KERNEL_CHUNK_WINDOWS",
]


def batch_group_key(algorithm: Any) -> Any:
    """Key under which algorithm objects may share one ``simulate_batch`` call.

    Two tasks can run in the same batch when one algorithm object can stand
    in for the other.  Algorithm classes declare that explicitly through the
    :attr:`~repro.algorithms.base.Algorithm.batch_interchangeable` opt-in
    ("``program_for`` is a pure function of its arguments"): opted-in objects
    group by class, everything else only with itself.  An undeclared stateful
    algorithm therefore degrades to size-1 groups — correct, just slower —
    instead of being silently mixed with lookalikes.
    """
    if getattr(algorithm, "batch_interchangeable", False):
        return type(algorithm)
    return id(algorithm)


def _row_position(table: Any, row: int, when: float) -> Tuple[float, float]:
    """An agent's position at ``when``, inside table row ``row``.

    Computed exactly like the event engine's cursor (``state_at``): from the
    start of the row active at the window start (the round's gather column,
    :meth:`~repro.sim.rounds.RoundWindows.table_rows`), with the offset
    clamped into that row.  Extrapolating from the window-start state instead
    differs by an ulp, which a grazing approach after a freeze amplifies into
    a visibly different meeting time.
    """
    start, duration, x, y, vx, vy = table.row(row)
    offset = min(max(when - start, 0.0), duration)
    return x + vx * offset, y + vy * offset


def _run_rounds(
    instances: List[Instance],
    algorithm: Any,
    radius: np.ndarray,
    *,
    freeze: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    max_time: float,
    max_segments: int,
    radius_slack: float,
    track_min_distance: bool,
    initial_horizon: Optional[float],
    speed_a: Any,
    speed_b: Any,
    stall_agent: Optional[str],
    stall_time: Any,
    stall_duration: Any,
) -> Tuple[ResultColumns, float]:
    """The adaptive-horizon round loop behind both public batch entry points.

    ``radius`` is the per-instance meeting radius column.  ``freeze`` is
    ``(larger_radius, larger_agent)``, two per-instance columns: with it, the
    first hit at the larger radius strictly before any meeting hit freezes
    that agent, which then continues as a one-row
    :func:`~repro.motion.compiler.constant_table` view while its pre-freeze
    segment count keeps feeding the combined budget.  Without it, the kernel
    solves a single radius and nothing ever freezes.  ``radius_slack`` is
    added to both columns.

    Validates every option, also for an empty batch, then returns the filled
    result columns (freeze columns included) and the wall seconds.
    """
    if not (math.isfinite(max_time) and max_time > 0.0):
        raise ValueError("max_time must be positive and finite")
    if max_segments <= 0:
        raise ValueError("max_segments must be positive")
    if not (math.isfinite(radius_slack) and radius_slack >= 0.0):
        raise ValueError("radius_slack must be non-negative and finite")
    if initial_horizon is not None and initial_horizon <= 0.0:
        raise ValueError("initial_horizon must be positive")
    count = len(instances)
    speeds_a = per_instance_option(speed_a, count, "speed_a")
    speeds_b = per_instance_option(speed_b, count, "speed_b")
    stall = stall_arrays(stall_agent, stall_time, stall_duration, count)
    cols = ResultColumns(count)
    if not instances:
        return cols, 0.0

    wall_start = _time.perf_counter()
    with _obs.span("engine.compile"):
        specs = [
            scaled_agents(instance, sa, sb)
            for instance, sa, sb in zip(instances, speeds_a.tolist(), speeds_b.tolist())
        ]
        source = ProgramSource(algorithm, max_segments, instances, specs)
        stall_memo = StallTransform() if stall is not None else None
        meet_radius = radius + radius_slack
        if freeze is not None:
            freeze_radius = freeze[0] + radius_slack
            larger_agent = freeze[1]
        if initial_horizon is None:
            cols.horizon[:] = [
                default_initial_horizon(instance, max_time) for instance in instances
            ]
        else:
            cols.horizon[:] = min(initial_horizon, max_time)
    pending = np.arange(count, dtype=np.int64)
    # The frozen agent's stationary table, built once at the freeze, by row.
    frozen_tables: Dict[int, Any] = {}
    total_windows = 0
    round_number = 0

    def side_tables(role: str, frozen_agent: np.ndarray) -> List[Any]:
        # The frozen agent's stationary table replaces all remaining motion,
        # pending stall included (the event engine clears the frozen cursor's
        # stream); the other agent keeps its stall.
        rows = pending[frozen_agent != role]
        tables = source.round_tables(role, rows, cols.horizon[rows])
        if stall is not None and stall[0] == role:
            onsets, durations = stall[1][rows].tolist(), stall[2][rows].tolist()
            tables = list(map(stall_memo.apply, tables, onsets, durations))
        if rows.size < pending.size:
            served = iter(tables)
            tables = [
                frozen_tables[row] if agent == role else next(served)
                for row, agent in zip(pending.tolist(), frozen_agent.tolist())
            ]
        return tables

    while pending.size:
        round_number += 1
        with _obs.span("engine.compile"):
            frozen_agent = cols.frozen_agent[pending]
            tables_a = side_tables("A", frozen_agent)
            tables_b = side_tables("B", frozen_agent)
            scan_from = cols.scan_from[pending]
            horizon, budget_limited, limit, finish = round_bounds(
                tables_a, tables_b, cols.horizon[pending],
                cols.freeze_segments[pending], max_segments, max_time,
            )
        with _obs.span("engine.build_windows"):
            windows = build_windows(tables_a, tables_b, scan_from, horizon, limit)
            entry_radius = meet_radius[pending]
            entry_large = None
            if freeze is not None:
                # After the freeze only the meeting radius is live; feeding it
                # as the freeze radius too keeps the scan limit (and therefore
                # the closest-approach prefix) at the meeting window.
                pending_frozen = frozen_agent != ""
                entry_large = np.where(pending_frozen, entry_radius, freeze_radius[pending])
        with _obs.span("engine.kernel_solve"):
            solution = solve_round(
                windows,
                entry_radius,
                track_min_distance=track_min_distance,
                second_radius=entry_large,
            )
        total_windows += len(windows)

        with _obs.span("engine.assemble"):
            offsets = windows.offsets
            lo = offsets[:-1]
            hi = offsets[1:]
            first_hit = solution.first_hit
            met = first_hit < hi
            freezes = np.zeros_like(met)
            if freeze is not None:
                # The event engine's rule: the larger-radius agent freezes iff
                # it sees the other one *strictly before* the distance reaches
                # the meeting radius; on a tie the meeting wins.
                freeze_hit = solution.first_hit2
                freezes = (
                    ~pending_frozen
                    & (freeze_hit < hi)
                    & (
                        (first_hit > freeze_hit)
                        | ((first_hit == freeze_hit)
                           & (solution.hit_offset2 < solution.hit_offset))
                    )
                )
                met &= ~freezes

            if track_min_distance:
                # Earlier rounds take precedence on ties, mirroring the event
                # engine's first-window-wins rule.
                cols.fold_round_min(pending, solution.group_min, solution.min_time)

            # Round classification (see round_bounds).
            finished_within = finish <= horizon
            unresolved = (
                ~met
                & ~freezes
                & ~budget_limited
                & ~finished_within
                & (horizon < max_time)
            )
            terminal = ~met & ~freezes & ~unresolved

            # Segment-cursor counts of every entry that stops or freezes this
            # round, one grouped cut per side at its stopping time: the hit
            # window's start, the freeze time (the cursor stops pulling) or
            # the horizon.
            until = np.where(met, windows.starts[np.where(met, first_hit, 0)], horizon)
            if np.any(freezes):
                freeze_start = windows.starts[np.where(freezes, freeze_hit, 0)]
                freeze_time = freeze_start + solution.hit_offset2
                until = np.where(freezes, freeze_time, until)
            in_play = [
                cursor_segments(side, until, ~unresolved)
                for side in (windows.side_a, windows.side_b)
            ]

            if np.any(freezes):
                # A small per-freeze Python pass (at most one per instance
                # per run).
                positions = np.flatnonzero(freezes)
                rows = pending[positions]
                hit_index = freeze_hit[positions]
                agents = larger_agent[rows]
                rows_a, rows_b = windows.table_rows(hit_index, positions)
                distances = []
                for k, row, agent, when, row_a, row_b in zip(
                    positions.tolist(),
                    rows.tolist(),
                    agents.tolist(),
                    freeze_time[positions].tolist(),
                    rows_a.tolist(),
                    rows_b.tolist(),
                ):
                    pos_a = _row_position(tables_a[k], row_a, when)
                    pos_b = _row_position(tables_b[k], row_b, when)
                    distances.append(math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1]))
                    frozen_tables[row] = constant_table(pos_a if agent == "A" else pos_b)
                cols.frozen_agent[rows] = agents
                cols.freeze_time[rows] = freeze_time[positions]
                cols.freeze_distance[rows] = distances
                cols.freeze_segments[rows] = np.where(
                    agents == "A", in_play[0][positions], in_play[1][positions]
                )
                # Resume scanning at the freeze time with the frozen agent
                # stationary; same horizon.  The freeze window's tracking was
                # clamped at the freeze, so it needs no full-length rescan.
                cols.scan_from[rows] = freeze_time[positions]
                cols.windows_before[rows] += (hit_index - lo[positions]) + 1

            if np.any(unresolved):
                grow = pending[unresolved]
                cols.horizon[grow] = np.minimum(
                    cols.horizon[grow] * GROWTH_FACTOR, max_time
                )
                # The final window was cut at the horizon; the next round
                # re-scans it from its start, at full length.
                cols.scan_from[grow] = windows.starts[hi[unresolved] - 1]
                cols.windows_before[grow] += (hi - lo)[unresolved] - 1

            if np.any(terminal):
                rows = pending[terminal]
                code = np.full(rows.shape[0], _CODE_MAX_TIME, dtype=np.int8)
                code[budget_limited[terminal]] = _CODE_MAX_SEGMENTS
                code[
                    ~budget_limited[terminal]
                    & finished_within[terminal]
                    & (finish[terminal] < max_time)
                ] = _CODE_PROGRAMS_FINISHED
                cols.termination[rows] = code
                cols.windows_processed[rows] = (
                    cols.windows_before[rows] + (hi - lo)[terminal]
                )
                # The event loop reports the capped horizon on a budget stop
                # and the full time budget otherwise.
                cols.simulated_time[rows] = np.where(
                    budget_limited[terminal], horizon[terminal], max_time
                )

            if np.any(met):
                rows = pending[met]
                hit_index = first_hit[met]
                offset = solution.hit_offset[met]
                meeting_time = windows.starts[hit_index] + offset
                pax, pay, vax, vay, pbx, pby, vbx, vby = windows.states_at(hit_index)
                cols.met[rows] = True
                cols.termination[rows] = _CODE_RENDEZVOUS
                cols.meeting_time[rows] = meeting_time
                cols.meet_ax[rows] = pax + vax * offset
                cols.meet_ay[rows] = pay + vay * offset
                cols.meet_bx[rows] = pbx + vbx * offset
                cols.meet_by[rows] = pby + vby * offset
                cols.simulated_time[rows] = meeting_time
                cols.windows_processed[rows] = (
                    cols.windows_before[rows] + (hit_index - lo[met]) + 1
                )

            resolved = np.flatnonzero(met | terminal)
            if resolved.size:
                rows = pending[resolved]
                # A cursor frozen in an earlier round kept its count then.
                kept = cols.freeze_segments[rows]
                for role, counts, column in zip(
                    "AB", in_play, (cols.segments_a, cols.segments_b)
                ):
                    frozen = frozen_agent[resolved] == role
                    column[rows] = np.where(frozen, kept, counts[resolved])

            pending = pending[unresolved | freezes]

    trim_builder_cache()
    elapsed = _time.perf_counter() - wall_start
    logger.debug(
        "batch rounds: %d instances, %d windows over %d rounds, %.3fs",
        count,
        total_windows,
        round_number,
        elapsed,
    )
    return cols, elapsed


def simulate_batch(
    instances: Sequence[Instance],
    algorithm: Any,
    *,
    max_time: float = 1e9,
    max_segments: int = 2_000_000,
    radius_slack: float = 0.0,
    track_min_distance: bool = True,
    initial_horizon: Optional[float] = None,
    speed_a: Any = 1.0,
    speed_b: Any = 1.0,
    stall_agent: Optional[str] = None,
    stall_time: Any = None,
    stall_duration: Any = None,
) -> List[SimulationResult]:
    """Simulate ``algorithm`` on every instance with the vectorized engine.

    Parameters
    ----------
    instances:
        The instances to simulate, all under the same ``algorithm`` object.
    algorithm:
        Anything the event engine accepts: an object with
        ``program_for(instance, spec, role)`` or a bare callable with that
        signature.
    max_time:
        Simulated-time budget in absolute time units (must be finite: the
        float timebase caps how far a horizon can reach).  Mirrors
        :class:`~repro.sim.engine.RendezvousSimulator`.
    max_segments:
        Combined per-run budget on trajectory segments across *both* agents —
        exactly the event engine's stopping rule, reproduced by capping the
        horizon at the start time of the first over-budget segment.
    radius_slack:
        Additive tolerance (absolute length units, finite and non-negative)
        on the visibility radius, used only for meeting detection; see the
        event engine.
    track_min_distance:
        With ``False`` the closest-approach bookkeeping is skipped entirely
        (results carry ``min_distance = inf``), the fastest mode for
        campaigns that only need the verdict.
    initial_horizon:
        Overrides the per-instance starting horizon of the adaptive round
        loop.  Results never depend on it — only performance does.
    speed_a, speed_b:
        Heterogeneous-speed scenario (:mod:`repro.sim.scenarios`): positive
        finite speed factors for agents A and B, each a scalar applied to the
        whole batch or a per-instance sequence.  Defaults to the paper's
        homogeneous model.
    stall_agent, stall_time, stall_duration:
        Stalling-agent scenario: ``stall_agent`` (``"A"`` or ``"B"``, one
        agent for the whole batch) pauses for ``stall_duration`` time units
        at the first segment boundary at or after ``stall_time``; the time
        and duration may be per-instance sequences.  All three must be given
        together or not at all.

    Returns one :class:`SimulationResult` per instance, in input order, with
    ``met``, the meeting time (1e-9 relative parity with the event engine),
    the termination reason and the closest approach.  Every option is
    validated, also for an empty batch.
    """
    instances = list(instances)
    cols, elapsed = _run_rounds(
        instances,
        algorithm,
        np.array([instance.r for instance in instances], dtype=float),
        max_time=max_time,
        max_segments=max_segments,
        radius_slack=radius_slack,
        track_min_distance=track_min_distance,
        initial_horizon=initial_horizon,
        speed_a=speed_a,
        speed_b=speed_b,
        stall_agent=stall_agent,
        stall_time=stall_time,
        stall_duration=stall_duration,
    )
    if not instances:
        return []
    with _obs.span("engine.assemble"):
        results = cols.build_results(
            instances,
            _algorithm_name(algorithm),
            elapsed_wall_seconds=elapsed / len(instances),
        )
        if _contracts.enabled():
            for result in results:
                check_result(result, max_time=max_time)
    return results
