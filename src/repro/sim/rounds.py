"""Round/horizon building blocks of the vectorized batch driver.

The batch driver (:func:`repro.sim.batch._run_rounds`, behind both
:func:`repro.sim.batch.simulate_batch` and
:func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric`) runs one outer
loop: read trajectory prefixes up to an adaptive horizon, stack the merged
event windows of every unresolved instance into flat arrays, solve all window
quadratics one cache-sized tile at a time, and retry the instances that
neither met nor terminated with a geometrically grown horizon.  This module
holds that loop's building blocks:

* :class:`ProgramSource` — serves one agent side of a whole round while
  consuming each program's column blocks only once (shared builders for
  universal algorithms, kept across engine calls in the bounded LRU
  ``_BUILDER_CACHE``); a table is a
  :class:`~repro.motion.compiler.TrajectoryView` — the shared local rows
  under one agent's frame — so nothing is compiled per agent;
* :func:`round_bounds` — a round's budget-capped horizons, budget flags,
  scan limits and finish times as columns over its entries, including the
  exact reproduction of the event engine's ``max_segments`` stopping rule;
* :func:`build_windows` — the *flat*, sort-free cross-instance window
  construction: range cuts grouped per shared local program (each entry
  searching with its own frame, corrected to the exact materialized cut),
  one affine mapping of only the table rows a round can touch, a rank merge
  of every entry's two sorted boundary runs (one ``searchsorted`` per
  distinct A table places every B boundary, A's fill the rest), active rows
  written straight from merge positions and one entry-grouped deduplication
  pass produce window starts, durations and both agents' active rows as
  single flat arrays with per-instance offsets — no sort, and Python loops only
  over source groups and distinct tables, never over windows (the first
  engine generation called ``np.unique``/``states_at`` per instance, the
  second rank-merged each entry in a Python loop, the third ran one stable
  ``lexsort`` over every event of the round);
* :func:`solve_round` — the tiled fused-kernel pass: per tile of
  ``KERNEL_CHUNK_WINDOWS`` windows, both agents' states are gathered from
  their active rows and solved by one kernel call against the per-entry
  radius expanded over the tile, optionally with a *second* per-entry radius
  (the Section 5 freeze radius); the segmented first-hit and minimum
  reductions then run once per round.

Nothing in here depends on the meeting semantics: the driver interprets the
per-entry first-hit indices (meeting, and with per-agent radii also freeze)
and assembles results into flat columns (:mod:`repro.sim.columns`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import KERNEL_CHUNK_PARITY
from repro.core.instance import AgentSpec, Instance
from repro.geometry.closest_approach import solve_windows
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    TrajectoryView,
    absolute_state,
    exact_counts,
    stalled_table,
)
from repro.obs import core as _obs
from repro.sim.engine import _resolve_blocks

#: Horizon multiplier between rounds.  Scanning resumes at ``scan_from``, so
#: the dominant waste is not re-scanning but *overshoot*: the resolving round
#: scans to the first horizon past the meeting time, an expected factor of
#: ``(g - 1) / ln g`` beyond it for log-uniform meeting times (~3.4 at g = 8,
#: ~1.8 at g = 3).  The extra rounds a small factor costs are cheap (a round
#: only extends the shared builder and maps the rows it touches), so 3
#: measures ~15-20% faster end-to-end on the stratified campaign than the
#: original 8, with bit-identical results (the horizon schedule is a pure
#: performance knob; 2 loses again to per-round overhead).
GROWTH_FACTOR = 3.0

#: Windows per tile of :func:`solve_round`: each tile forms its windows'
#: relative motion and solves it with one kernel call, so the kernel's
#: temporaries (about 20 float64 columns) stay cache-sized.  Tiles need not
#: line up with entries and change no result.  ``1 << 14`` was the fastest
#: of 8K/16K/32K/64K in place on the section5-sweep passes.
KERNEL_CHUNK_WINDOWS = 1 << 14


def _is_universal(algorithm: Any) -> bool:
    """Whether the algorithm's program is independent of instance and role."""
    return getattr(algorithm, "requires_knowledge", None) is False


#: Builders of universal programs, shared across batch-engine calls.
#: Keyed by the algorithm's ``program_cache_key`` (an opt-in declaration that
#: two algorithm objects with equal keys emit identical instruction streams),
#: so repeated campaigns stop re-consuming the same stream from scratch.
#: Bounded in entries and (approximately — builders keep growing after
#: insertion) in retained rows; eviction is LRU, one entry at a time, and a
#: single entry whose rows alone exceed the budget is evicted as well.
_BUILDER_CACHE: Dict[Any, LocalProgramBuilder] = {}
_BUILDER_CACHE_LIMIT = 8
_BUILDER_CACHE_ROW_LIMIT = 2_000_000  # x 8 float64 columns ~= 128 MB


def trim_builder_cache() -> None:
    """Evict least-recently-used builders until both bounds hold.

    Unlike a plain LRU trim, the *last* entry is not exempt: one huge builder
    (user-supplied ``max_segments`` in the tens of millions) exceeding the row
    budget on its own is dropped instead of pinning hundreds of MB for the
    process lifetime.  The engine run that inserted it keeps its direct
    reference; only the cross-call cache declines to retain it.  Builders
    keep growing *after* insertion, so the batch driver also calls this once
    per run, to evict entries that outgrew the budget meanwhile.
    """
    while _BUILDER_CACHE and (
        len(_BUILDER_CACHE) > _BUILDER_CACHE_LIMIT
        or sum(len(b) for b in _BUILDER_CACHE.values()) > _BUILDER_CACHE_ROW_LIMIT
    ):
        del _BUILDER_CACHE[next(iter(_BUILDER_CACHE))]
        _obs.add("builder_cache.evictions")


class ProgramSource:
    """Serves one agent side of a whole round, consuming each program only once.

    Every program reaches its builder as column blocks
    (:func:`~repro.sim.engine._resolve_blocks`, the event engine's resolver
    too).  Universal algorithms share a single
    :class:`LocalProgramBuilder` across every agent of every instance;
    non-universal programs get one builder per (instance, role), created on
    first use and *extended* (never re-created) as the adaptive horizon grows.
    ``specs`` holds each instance's ``(spec_a, spec_b)``.
    """

    def __init__(
        self,
        algorithm: Any,
        max_segments: Optional[int],
        instances: Sequence[Instance],
        specs: Sequence[Tuple[AgentSpec, AgentSpec]],
    ) -> None:
        self.algorithm = algorithm
        # ``max_segments`` is the combined budget across both agents (event
        # engine semantics); each builder may overshoot it slightly so the
        # exact combined cutoff time can be computed afterwards.
        self.max_steps = None if max_segments is None else max_segments + 2
        self._universal = _is_universal(algorithm)
        self._cache_key = (
            getattr(algorithm, "program_cache_key", None) if self._universal else None
        )
        self._instances = instances
        self._specs = specs
        # Universal: one builder under the key None; otherwise per (row, role).
        self._builders: Dict[Any, LocalProgramBuilder] = {}
        # One table compiler per distinct trajectory, memoizing one view per
        # prefix: a universal program's table is a pure function of the
        # agent spec, so its compilers key by spec — agent A (the canonical
        # reference with one spec across *all* instances) collapses onto a
        # single compiler, which keeps table identity for the flat window
        # construction's dedup.  Non-universal programs get one per (row,
        # role).  Listed per side and row, with each row's (wake, rate) clock.
        shared: Dict[AgentSpec, IncrementalTableCompiler] = {}

        def compiler(spec: AgentSpec) -> IncrementalTableCompiler:
            if not self._universal:
                return IncrementalTableCompiler(spec)
            if spec not in shared:
                shared[spec] = IncrementalTableCompiler(spec)
            return shared[spec]

        self._compilers = tuple([compiler(pair[side]) for pair in specs] for side in range(2))
        self._clocks = tuple(
            np.array([compiler.frame[:2] for compiler in side]).T for side in self._compilers
        )

    def _builder(self, row: int, role: str) -> LocalProgramBuilder:
        key = None if self._universal else (row, role)
        builder = self._builders.get(key)
        if builder is None:
            cache_key = self._cache_key
            if cache_key is not None:
                builder = _BUILDER_CACHE.pop(cache_key, None)
            if builder is None:
                spec = self._specs[row]["AB".index(role)]
                builder = LocalProgramBuilder(
                    _resolve_blocks(self.algorithm, self._instances[row], spec, role)
                )
            if cache_key is not None:
                # (Re-)insert at the back: dict order is the LRU order.
                _BUILDER_CACHE[cache_key] = builder
                trim_builder_cache()
            self._builders[key] = builder
        return builder

    def round_tables(
        self, role: str, rows: np.ndarray, horizons: np.ndarray
    ) -> List[TrajectoryView]:
        """Agent ``role``'s tables of instance ``rows``, covering ``horizons``.

        Each builder takes one ``snapshot``, at the largest local budget of
        the rows it serves; one ``searchsorted`` then cuts every row's
        prefix from it — the row count the builder's own snapshot at the
        row's budget returns, ``max_steps`` and ``complete`` included, since
        a snapshot's count depends only on rows already read.
        """
        rows_list = rows.tolist()
        if not rows_list:
            return []
        side = "AB".index(role)
        wake, rate = self._clocks[side][:, rows]
        budgets = np.maximum((horizons - wake) / rate, 0.0)
        groups = (
            [(rows_list[0], np.arange(len(rows_list)))]
            if self._universal
            else [(row, np.array([k])) for k, row in enumerate(rows_list)]
        )
        compilers = self._compilers[side]
        tables: List[Any] = [None] * len(rows_list)
        for row, at in groups:
            wanted = budgets[at]
            local = self._builder(row, role).snapshot(
                float(wanted.max()), max_steps=self.max_steps
            )
            counts = np.minimum(local.cumulative.searchsorted(wanted) + 1, len(local))
            prefixes: Dict[int, Any] = {}
            for k, count in zip(at.tolist(), counts.tolist()):
                prefix = prefixes.get(count)
                if prefix is None:
                    prefix = prefixes[count] = local.prefix(count)
                tables[k] = compilers[rows_list[k]].table(prefix)
        return tables


def default_initial_horizon(instance: Instance, max_time: float) -> float:
    """A first simulated-time horizon with a real chance of containing the meeting.

    The agents cannot meet before the later one wakes *and* before their
    combined top speed could close the gap.  The universal algorithm pays an
    enumeration overhead of well over an order of magnitude on top of that
    lower bound, so start generously above it (a too-small first horizon costs
    a whole extra round; a too-large one only some extra
    windows).  Snapping to powers of the growth factor keeps the set of
    distinct horizons per round small, so instances share table views.
    """
    closing_speed = 1.0 + max(instance.v, 0.0)
    lower_bound = max(instance.initial_distance - instance.r, 0.0) / closing_speed
    raw = max(8.0, 8.0 * lower_bound, 8.0 * instance.t)
    snapped = GROWTH_FACTOR ** math.ceil(math.log(raw, GROWTH_FACTOR))
    return min(max(snapped, raw), max_time)


def per_instance_option(
    value: Any, count: int, label: str, *, allow_zero: bool = False
) -> np.ndarray:
    """Broadcast a scalar-or-sequence simulator option to a float column.

    The shared shape and domain rule of the batch driver's per-instance
    options (asymmetric radii, speed factors, stall schedules): a scalar
    applies to every instance, a sequence must match the batch length
    exactly, and every given value must be finite and positive (or zero,
    with ``allow_zero``) — checked before broadcasting, so an empty batch
    rejects a bad scalar too.
    """
    array = np.asarray(value, dtype=float)
    in_domain = array >= 0.0 if allow_zero else array > 0.0
    if not bool(np.all(np.isfinite(array) & in_domain)):
        bound = ">= 0" if allow_zero else "positive"
        raise ValueError(f"{label} must be {bound} and finite")
    if array.ndim == 0:
        return np.full(count, float(array))
    if array.shape != (count,):
        raise ValueError(
            f"{label} must be a scalar or a sequence of length {count}, "
            f"got shape {array.shape}"
        )
    return array


def stall_arrays(
    stall_agent: Any, stall_time: Any, stall_duration: Any, count: int
) -> Optional[Tuple[str, np.ndarray, np.ndarray]]:
    """Validate and broadcast the stall trio for one batch (``None`` = inactive).

    Mirrors :func:`repro.sim.scenarios.stall_schedule` for the batch driver,
    where ``stall_time`` / ``stall_duration`` may be per-instance
    columns (``stall_agent`` is one agent for the whole batch).
    """
    if stall_agent is None and stall_time is None and stall_duration is None:
        return None
    if stall_agent not in ("A", "B") or stall_time is None or stall_duration is None:
        raise ValueError(
            "stall_agent ('A'/'B'), stall_time and stall_duration must be "
            "given together"
        )
    times = per_instance_option(stall_time, count, "stall_time", allow_zero=True)
    durations = per_instance_option(stall_duration, count, "stall_duration")
    return str(stall_agent), times, durations


class StallTransform:
    """Memoized columnar stall transform for one batch-driver call.

    :meth:`ProgramSource.round_tables` returns memoized views (one per prefix),
    so keying the splice on the table's identity both avoids re-splicing per
    round and preserves table sharing — instances with an identical source
    table and identical stall parameters keep receiving one shared stalled
    table, which the window merge's identity-based dedup
    (:class:`_SideRuns`) relies on.  The memo holds the source table too,
    so an identity it keys on is never recycled while the memo lives.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: Dict[Tuple[int, float, float], Tuple[Any, Any]] = {}

    def apply(self, table: Any, onset: float, duration: float) -> Any:
        key = (id(table), float(onset), float(duration))
        cached = self._memo.get(key)
        if cached is None:
            cached = (table, stalled_table(table, float(onset), float(duration)))
            self._memo[key] = cached
        return cached[1]


def round_bounds(
    tables_a: Sequence[Any],
    tables_b: Sequence[Any],
    horizon: np.ndarray,
    extra_segments: np.ndarray,
    max_segments: int,
    max_time: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(horizon, budget_limited, limit, finish)`` columns of one round.

    Entry ``k`` pairs ``tables_a[k]`` with ``tables_b[k]`` under the
    requested ``horizon[k]``.  ``extra_segments`` are segments the event
    engine's cursors pulled that are *not* table rows (a frozen agent's
    pre-freeze count; its one-row table has none).  Returned: the
    budget-capped horizon, whether a budget capped it, ``limit`` (how far
    the final window may be scanned past the horizon: ``max_time``, or not
    past a budget stop) and ``finish``, when *both* programs have ended
    (``inf`` while either runs or is not fully represented).  A miss is a
    ``max_segments`` stop when budget-limited, a ``programs-finished`` stop
    when both programs ended within the horizon, a ``max-time`` stop at
    ``max_time``, and otherwise retried with a grown horizon.
    """
    horizon = np.array(horizon, dtype=float)
    budget_limited = np.zeros(horizon.shape[0], dtype=bool)
    segments_a = np.array([table.segments for table in tables_a], dtype=np.int64)
    segments_b = np.array([table.segments for table in tables_b], dtype=np.int64)
    # The event engine stops when the *combined* number of segments pulled
    # by both cursors exceeds ``max_segments``, which happens at the start
    # time of the (max_segments + 1)-th segment in the merged timeline.
    # Capping the horizon there reproduces its stopping rule exactly.
    # (``partition`` extracts that order statistic in linear time; the value
    # is identical to a full sort's.)
    over = segments_a + segments_b + extra_segments > max_segments
    for k in np.flatnonzero(over).tolist():
        table_a, table_b = tables_a[k], tables_b[k]
        merged_starts = np.concatenate(
            (
                table_a.start_times(table_a.segments),
                table_b.start_times(table_b.segments),
            )
        )
        kth = max(max_segments - int(extra_segments[k]), 0)
        cutoff = float(np.partition(merged_starts, kth)[kth])
        # A cutoff at exactly max_time still terminates as MAX_TIME: the
        # event loop checks the time horizon before the segment budget.
        if cutoff <= horizon[k] and cutoff < max_time:
            horizon[k] = cutoff
            budget_limited[k] = True
    # Safety net: coverage falling short of the horizon (a table truncated
    # by its per-agent overshoot cap) is also a budget stop.  Coverage is
    # requested in *local* time (horizon / clock_rate) and the table's end
    # maps back through the same factor, so for clock rates != 1 the end can
    # land an ulp short of the horizon it fully covers — only a macroscopic
    # shortfall (at least a whole segment) means truncation.  A's net runs
    # first and B's sees the horizon it left.
    for tables in (tables_a, tables_b):
        end = np.array([table.end_time for table in tables], dtype=float)
        exhausted = np.array([table.exhausted for table in tables], dtype=bool)
        for k in np.flatnonzero(~exhausted & (end < horizon)).tolist():
            if not math.isclose(end[k], horizon[k], rel_tol=1e-9, abs_tol=1e-9):
                horizon[k] = end[k]
                budget_limited[k] = True
    horizon = np.where(horizon < 0.0, 0.0, horizon)
    limit = np.where(budget_limited, horizon, max_time)
    finish_a, finish_b = (
        np.array(
            [math.inf if table.finish_time is None else table.finish_time for table in tables],
            dtype=float,
        )
        for tables in (tables_a, tables_b)
    )
    # ``max(a, b)``'s own rule (``a`` unless ``b > a``), which keeps the sign
    # of a zero where ``np.maximum`` would not.
    return horizon, budget_limited, limit, np.where(finish_b > finish_a, finish_b, finish_a)


class RoundWindows:
    """The stacked windows of one round, as flat arrays with per-entry offsets.

    ``starts``/``durations`` are parallel over the concatenated windows of all
    entries; entry ``k`` owns the range ``[offsets[k], offsets[k + 1])`` of
    ``counts[k]`` windows.  Agent states are not stored per window:
    ``gather_a``/``gather_b`` hold each window's active row as an index into
    that agent's side's mapped rows (:class:`_SideRuns`, kept for the
    driver's :func:`cursor_segments`), and :meth:`relative_motion` and
    :meth:`states_at` form the states of any slice or index set of windows
    on demand — :func:`solve_round` does so one tile at a time.  An entry's
    final window is cut at the round's horizon, which is not a segment boundary;
    ``final_durations[k]`` is how long that window really lasts — to the
    next boundary of either agent, capped at the entry's ``limit`` — over
    which :func:`solve_round` tracks its closest approach (``None``: as cut).
    """

    __slots__ = (
        "starts", "durations", "offsets", "counts", "final_durations",
        "gather_a", "gather_b", "side_a", "side_b",
    )

    def __init__(
        self,
        starts: np.ndarray,
        durations: np.ndarray,
        offsets: np.ndarray,
        counts: np.ndarray,
        final_durations: Optional[np.ndarray],
        gather_a: np.ndarray,
        gather_b: np.ndarray,
        side_a: "_SideRuns",
        side_b: "_SideRuns",
    ) -> None:
        self.starts = starts
        self.durations = durations
        self.offsets = offsets
        self.counts = counts
        self.final_durations = final_durations
        self.gather_a = gather_a
        self.gather_b = gather_b
        self.side_a = side_a
        self.side_b = side_b

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def states_at(self, at: Any) -> Tuple[np.ndarray, ...]:
        """``(pax, pay, vax, vay, pbx, pby, vbx, vby)`` at the windows ``at``.

        ``at`` is a slice or an index array; both agents' positions and
        velocities at those window starts.
        """
        starts = self.starts[at]
        return _window_states(
            self.side_a.columns, self.gather_a[at], starts
        ) + _window_states(self.side_b.columns, self.gather_b[at], starts)

    def table_rows(self, at: np.ndarray, entries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Both agents' table rows at windows ``at`` of ``entries``.

        Each counts its boundaries at or before the window start (the merge
        keeps the last of equal starts); a first window at time 0 has row 0.
        """
        return (
            self.gather_a[at] - self.side_a.entry_shift[entries],
            self.gather_b[at] - self.side_b.entry_shift[entries],
        )

    @property
    def states(self) -> Tuple[np.ndarray, ...]:
        """The eight state columns over every window (tests and oracles only)."""
        return self.states_at(slice(None))

    def relative_motion(self, at: Any) -> Tuple[np.ndarray, ...]:
        """B's position and velocity relative to A's at the windows ``at``.

        The same values as subtracting :meth:`states_at`'s columns, with the
        differences formed in place.
        """
        pax, pay, vax, vay, rel_x, rel_y, rvel_x, rvel_y = self.states_at(at)
        rel_x -= pax
        rel_y -= pay
        rvel_x -= vax
        rvel_y -= vay
        return rel_x, rel_y, rvel_x, rvel_y


#: Shared consecutive-integer buffer for segmented index arithmetic; grows on
#: demand and is only ever read through slices, so earlier slices stay valid.
_CONSECUTIVE = np.arange(4096)


def _consecutive(count: int) -> np.ndarray:
    """The integers ``0..count-1`` as a slice of a shared, growing buffer."""
    global _CONSECUTIVE
    if count > _CONSECUTIVE.shape[0]:
        _CONSECUTIVE = np.arange(max(count, 2 * _CONSECUTIVE.shape[0]))
    return _CONSECUTIVE[:count]


def _range_cuts(
    side: "_SideRuns",
    times: np.ndarray,
    strict: bool,
    selected: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per entry of ``side``, its table's boundaries before ``times[k]``.

    Boundaries are the start times of every row but the first; ``strict``
    counts those strictly before the entry's time, otherwise those at it
    too.  Only the entries of the ``selected`` mask are searched (all when
    ``None``); the others read 0.  One vectorized search serves every
    selected entry of a source group, with each entry's own frame: a view's
    cut searches the shared local times at ``(t - wake) / rate`` and is then
    corrected against the absolute times
    (:func:`~repro.motion.compiler.exact_counts`), so it equals the cut on
    the materialized column exactly; an explicit table cuts its own
    boundaries, and a group of one entry searches like any other.
    """
    cuts = np.zeros(len(side.slot), dtype=np.int64)
    for group in side.groups:
        sel = np.concatenate([side.members[t] for t in group]).astype(np.int64)
        if selected is not None:
            sel = sel[selected[sel]]
            if not sel.size:
                continue
        first = side.distinct[group[0]]
        if first.frame is None:
            cuts[sel] = first.boundaries().searchsorted(
                times[sel], side="left" if strict else "right"
            )
            continue
        tables = [side.distinct[t] for t in group]
        # Each entry's table in the group (a group lists its tables in order).
        which = np.searchsorted(group, side.slot[sel])
        wake, rate = np.array([table.frame[:2] for table in tables]).T[:, which]
        rows = np.array([table.rows for table in tables], dtype=np.int64)[which]
        # Without a pre-wake row, local row 0 is the table's first row: no
        # boundary.
        lead = np.array([1 - table.pre for table in tables], dtype=np.int64)[which]
        time = first.source.state_columns()[0]
        cut = exact_counts(time, rows, wake, rate, times[sel], strict)
        cuts[sel] = np.maximum(cut - lead, 0)
    return cuts


def cursor_segments(side: "_SideRuns", until: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Per ``selected`` entry, the segments its event cursor pulled by ``until``.

    The rows starting at or before ``until``, at most the table's real
    segments; the other entries hold no meaningful count.
    """
    segments = np.array([table.segments for table in side.distinct], dtype=np.int64)
    return np.minimum(
        _range_cuts(side, until, strict=False, selected=selected) + 1, segments[side.slot]
    )


#: The table columns a window's state is gathered from.
_STATE_COLUMNS = 5

#: A view whose touched rows number at least this many is mapped on its own,
#: through its frame's scalars; shorter ranges share one call with per-row
#: frames, which copy every frame value once per row.  Each path is the
#: faster one where this sends it (measured in docs/ARCHITECTURE.md).
_LONG_RANGE = 256


def _group_rows(
    tables: Sequence[Any], low: np.ndarray, top: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Absolute ``(time, x, y, vx, vy)`` of rows ``[low[i], top[i])`` of each table.

    ``tables`` share one source.  An explicit table's rows are slices of its
    own columns.  A view's table row ``r`` is local row ``r - pre``, mapped
    through the view's frame by :func:`~repro.motion.compiler.absolute_state`
    (one call per long range, one call with per-row frames for all the short
    ones); pre-wake rows are written directly.
    """
    first = tables[0]
    state = first.source.state_columns()
    if first.frame is None:
        lo, hi = int(low[0]), int(top[0])
        return tuple(column[lo:hi] for column in state)
    spans = top - low
    begin = np.cumsum(spans) - spans
    pre = np.array([table.pre for table in tables], dtype=np.int64)
    mapped = tuple(np.empty(int(spans.sum())) for _ in range(_STATE_COLUMNS))
    # Each range's first local row, and where it lands in ``mapped``.
    first_local = np.maximum(low - pre, 0)
    start = begin + first_local - (low - pre)
    long = spans >= _LONG_RANGE
    for i in np.flatnonzero(long).tolist():
        rows = slice(int(first_local[i]), int(top[i] - pre[i]))
        at = slice(int(start[i]), int(begin[i] + spans[i]))
        values = absolute_state(tables[i].frame, *(column[rows] for column in state))
        for column, value in zip(mapped, values):
            column[at] = value
    short = np.flatnonzero(~long)
    if short.size:
        counts = top[short] - pre[short] - first_local[short]
        at = _consecutive(int(counts.sum())) + np.repeat(
            start[short] - (np.cumsum(counts) - counts), counts
        )
        local = at + np.repeat(first_local[short] - start[short], counts)
        frame = tuple(
            np.repeat(np.array(values), counts)
            for values in zip(*(tables[i].frame for i in short.tolist()))
        )
        values = absolute_state(frame, *(column[local] for column in state))
        for column, value in zip(mapped, values):
            column[at] = value
    woke = np.flatnonzero((pre == 1) & (low == 0))
    if woke.size:
        at = begin[woke]
        start = np.array([tables[i].frame[2:4] for i in woke.tolist()])
        for column, value in zip(mapped, (0.0, start[:, 0], start[:, 1], 0.0, 0.0)):
            column[at] = value
    return mapped


class _SideRuns:
    """One agent's side of a round: its tables, range cuts and boundary runs.

    ``distinct`` holds the side's tables once each by identity (universal
    campaigns share one A table across a round), ``members[t]`` the entries
    reading ``distinct[t]``, ``slot[k]`` entry ``k``'s, and ``groups`` the
    distinct tables by the source whose rows they read: all views of one
    builder form one group, an explicit table is its own; first-seen order.
    ``base[k]``/``counts[k]`` are entry ``k``'s active-row count at its
    ``scan_from`` (0 at a ``scan_from`` of 0.0, even with boundaries at time
    0) and its number of in-range boundaries (:func:`_range_cuts`);
    ``offsets[k]`` is where that run starts in the flat, entry-grouped runs
    (:meth:`runs`).  Rows are indices
    into ``columns``, the side's absolute ``(time, x, y, vx, vy)`` rows: per
    distinct table, only the rows its entries can touch — from the lowest
    member ``base`` to the highest opened row — mapped once
    (:func:`_group_rows`), source group by source group.  Table row ``r`` of
    distinct table ``t`` is column index ``r + shift[t]`` (``entry_shift`` is
    the same per entry), and ``[low[t], top[t])`` is the row range present.
    """

    __slots__ = (
        "distinct", "members", "slot", "groups", "base", "counts", "offsets", "columns",
        "shift", "entry_shift", "low", "top", "row_ends",
    )

    def __init__(
        self,
        tables: Sequence[Any],
        scan_froms: np.ndarray,
        horizons: np.ndarray,
    ) -> None:
        slots: Dict[int, int] = {}
        distinct: List[Any] = []
        self.members: List[List[int]] = []
        self.slot = np.empty(len(tables), dtype=np.int64)
        for k, table in enumerate(tables):
            t = slots.setdefault(id(table), len(distinct))
            if t == len(distinct):
                distinct.append(table)
                self.members.append([])
            self.members[t].append(k)
            self.slot[k] = t
        by_source: Dict[int, List[int]] = {}
        for t, table in enumerate(distinct):
            by_source.setdefault(id(table.source), []).append(t)
        self.distinct = distinct
        self.groups = groups = list(by_source.values())
        base = _range_cuts(self, scan_froms, strict=False, selected=scan_froms > 0.0)
        high = _range_cuts(self, horizons, strict=True)
        # A budget-capped horizon can fall at or before scan_from; the
        # in-range run is then empty (the raw ``base`` stays the active-row
        # count).
        counts = np.maximum(high - base, 0)
        self.base = base
        self.counts = counts
        self.offsets = np.cumsum(counts) - counts

        low = np.full(len(distinct), np.iinfo(np.int64).max)
        np.minimum.at(low, self.slot, base)
        top = np.zeros(len(distinct), dtype=np.int64)
        np.maximum.at(top, self.slot, base + counts + 1)
        self.low = low
        self.top = top
        # One row more where the table has it: its start ends the last
        # window's row.  Rows are laid out source group by source group.
        lengths = np.array([len(table) for table in distinct], dtype=np.int64)
        reach = np.minimum(top + 1, lengths)
        order = np.array([t for group in groups for t in group], dtype=np.int64)
        spans = (reach - low)[order]
        start = np.empty(len(distinct), dtype=np.int64)
        start[order] = np.cumsum(spans) - spans
        self.shift = start - low
        parts = [
            _group_rows([distinct[t] for t in group], low[group], reach[group])
            for group in groups
        ]
        self.columns = (
            parts[0]
            if len(parts) == 1
            else tuple(
                np.concatenate([part[c] for part in parts])
                for c in range(_STATE_COLUMNS)
            )
        )
        self.entry_shift = self.shift[self.slot]
        # Where each entry's last active row (``base + counts``) ends: the
        # next row's start, or the table's own end past its last row.
        after = base + counts + 1
        inside = after < lengths[self.slot]
        ends = np.array([table.end_time for table in distinct])[self.slot]
        next_start = self.columns[0][np.where(inside, after, after - 1) + self.entry_shift]
        self.row_ends = np.where(inside, next_start, ends)

    def runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The flat boundary runs: the row each boundary opens, and its time.

        Boundary ``j`` of entry ``k`` opens table row ``base[k] + 1 + j``.
        Formed on demand: the round's windows keep the side, not its runs.
        """
        total = int(self.counts.sum())
        first_row = self.base + 1 + self.entry_shift
        rows = _consecutive(total) + np.repeat(first_row - self.offsets, self.counts)
        return rows, self.columns[0][rows]


def _a_rows_at_b(side_a: _SideRuns, side_b: _SideRuns, values_b: np.ndarray) -> np.ndarray:
    """Agent A's active row (a ``side_a.columns`` index) at every B boundary.

    The row active at B boundary ``v`` counts A's boundaries at or before
    ``v`` (``searchsorted(side="right")``: A goes first on equal times), and
    that count minus the entry's ``base`` is the boundary's rank in the
    entry's A run.  One ``searchsorted`` per distinct A table covers every
    member entry, over only the rows present in ``side_a.columns``: rows up
    to ``low`` end at or before every member's ``scan_from``, and rows past
    the touched range start at or after every member's horizon.  Tables
    whose members have no A run or no B run are skipped — most of them are
    frozen agents' one-row tables — and their entries keep the base row.
    """
    rows = np.repeat(side_a.base + side_a.entry_shift, side_b.counts)
    time = side_a.columns[0]
    slot = side_a.slot
    n_distinct = len(side_a.members)
    with_a = np.bincount(slot, weights=side_a.counts, minlength=n_distinct) > 0
    with_b = np.bincount(slot, weights=side_b.counts, minlength=n_distinct) > 0
    for t in np.flatnonzero(with_a & with_b).tolist():
        low = int(side_a.low[t])
        shift = int(side_a.shift[t])
        bounds = time[low + 1 + shift : int(side_a.top[t]) + shift]
        group = side_a.members[t]
        at: Any
        if n_distinct == 1:
            at = slice(None)
        elif len(group) == 1:
            start = int(side_b.offsets[group[0]])
            at = slice(start, start + int(side_b.counts[group[0]]))
        else:
            sel = np.array(group, dtype=np.int64)
            sel_counts = side_b.counts[sel]
            at = _consecutive(int(sel_counts.sum())) + np.repeat(
                side_b.offsets[sel] - (np.cumsum(sel_counts) - sel_counts),
                sel_counts,
            )
        rows[at] = bounds.searchsorted(values_b[at], side="right") + (low + shift)
    return rows


def _window_states(
    columns: Tuple[np.ndarray, ...], gather: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """One agent's ``(px, py, vx, vy)`` at the starts of the windows gathered.

    Each position is formed in place as ``p = v * offset; p += s`` — IEEE
    addition commutes, so this equals ``s + v * offset`` bit for bit.
    """
    time, sx, sy, vx, vy = (column[gather] for column in columns)
    offset = np.subtract(starts, time, out=time)
    px = vx * offset
    px += sx
    py = vy * offset
    py += sy
    return px, py, vx, vy


def build_windows(
    tables_a: Sequence[Any],
    tables_b: Sequence[Any],
    scan_from: np.ndarray,
    horizon: np.ndarray,
    limit: np.ndarray,
) -> RoundWindows:
    """Stack the merged event windows of every entry into flat arrays.

    Entry ``k`` scans ``tables_a[k]`` against ``tables_b[k]`` from
    ``scan_from[k]`` to ``horizon[k]``; ``limit[k]`` caps how far its final
    window's closest approach is tracked (see :func:`round_bounds`).

    The flat, sort-free formulation of the per-instance window construction.
    Each side's in-range boundaries are cut with grouped ``searchsorted``
    calls and gathered into one flat, entry-grouped run, copying only the
    table rows a round can touch (:class:`_SideRuns`).  The two runs of every
    entry are already sorted, so they are merged by *rank*, not by sort: one
    ``searchsorted`` per distinct A table ranks every B boundary among its
    entry's A run (ties A-before-B), which fixes B's merged position as
    ``run offset + j + rank``; A's boundaries fill the remaining positions in
    order.  Both agents' active rows at every window start follow directly
    from those positions — a B boundary opens B row ``base + j + 1`` with A
    at its rank, an A boundary opens A row ``base + i + 1`` with B at the
    number of B boundaries placed before it — with no cumulative sums.  Equal
    times inside an entry collapse onto the last window of the run (most
    rounds have none and skip the compress copies).  States are not formed
    here: each window keeps both agents' active rows as gather indices into
    the mapped rows, and :func:`solve_round` forms states tile by tile.
    Python loops run over distinct tables
    only; a universal program's A side has one to three per symmetric round.
    Views are mapped row by row before any of this (:class:`_SideRuns`), so
    the windows and states are bit-identical to the per-instance formulation
    on the materialized tables: the merge order, every comparison and every
    float value are the same (the earlier engine generations called
    ``np.unique`` per instance, then one stable ``lexsort`` over all events).
    """
    n_entries = len(tables_a)
    entry_ids = np.arange(n_entries)
    side_a = _SideRuns(tables_a, scan_from, horizon)
    side_b = _SideRuns(tables_b, scan_from, horizon)

    # Window layout: entry k owns one window starting at its scan_from, at
    # ``first[k]``, then one window per boundary of either agent, in merge
    # order; each window's active rows are stored as gather indices.
    counts = side_a.counts + side_b.counts + 1
    first = np.cumsum(counts) - counts
    total = int(counts.sum())
    rows_a, values_a = side_a.runs()
    rows_b, values_b = side_b.runs()
    a_rows = _a_rows_at_b(side_a, side_b, values_b)
    # B boundary j of entry k: window ``first[k] + 1 + j + rank`` with
    # rank = A row - base_a.
    b_windows = (_consecutive(a_rows.shape[0]) + a_rows) + np.repeat(
        side_a.offsets - side_a.base - side_a.entry_shift + entry_ids + 1,
        side_b.counts,
    )
    placed = np.zeros(total, dtype=bool)
    placed[first] = True
    placed[b_windows] = True
    a_windows = np.flatnonzero(~placed)
    # A boundary i of entry k at window w has ``w - first[k] - 1 - i`` B
    # boundaries before it.
    b_rows = (a_windows - _consecutive(a_windows.shape[0])) + np.repeat(
        side_b.base + side_b.entry_shift - side_b.offsets - entry_ids - 1,
        side_a.counts,
    )

    starts = np.empty(total)
    starts[first] = scan_from
    starts[b_windows] = values_b
    starts[a_windows] = values_a
    gather_a = np.empty(total, dtype=np.int64)
    gather_a[first] = side_a.base + side_a.entry_shift
    gather_a[b_windows] = a_rows
    gather_a[a_windows] = rows_a
    gather_b = np.empty(total, dtype=np.int64)
    gather_b[first] = side_b.base + side_b.entry_shift
    gather_b[b_windows] = rows_b
    gather_b[a_windows] = b_rows

    # Deduplicate equal boundary times within an entry, keeping the *last*
    # window of the run: its rows already count every boundary at that time.
    # An entry's first window (at scan_from) and its last never take part,
    # which also confines the comparison within entries.
    duplicate = np.zeros(total, dtype=bool)
    np.equal(starts[:-1], starts[1:], out=duplicate[:-1])
    duplicate[first] = False
    duplicate[first[1:] - 1] = False
    if duplicate.any():
        keep = ~duplicate
        starts = starts[keep]
        gather_a = gather_a[keep]
        gather_b = gather_b[keep]
        dropped = np.searchsorted(first, np.flatnonzero(duplicate), side="right") - 1
        counts = counts - np.bincount(dropped, minlength=n_entries)
        total = starts.shape[0]

    # Each window ends where the next one of its entry starts; the last ends
    # at the horizon.  A budget-capped horizon can fall at or before
    # scan_from (everything up to it was already scanned); such an entry
    # degenerates to one clamped, zero-length window, exactly like the
    # per-instance formulation.
    offsets = np.concatenate(([0], np.cumsum(counts)))
    last = offsets[1:] - 1
    durations = np.empty(total)
    np.subtract(starts[1:], starts[:-1], out=durations[:-1])
    durations[last] = np.maximum(horizon, scan_from) - starts[last]
    np.maximum(durations, 0.0, out=durations)
    # Every agent's active row at the final window's start is ``base +
    # counts``; the window really ends where the first of those rows does.
    final_end = np.minimum(np.minimum(side_a.row_ends, side_b.row_ends), limit)
    final_durations = np.maximum(final_end - starts[last], durations[last])
    return RoundWindows(
        starts, durations, offsets, counts, final_durations,
        gather_a, gather_b, side_a, side_b,
    )


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


def _first_true(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per entry, the first window index where ``mask`` holds, else its end.

    Entry ``k`` owns windows ``[offsets[k], offsets[k + 1])``; an entry
    without a true window gets ``offsets[k + 1]``, one past its range.
    """
    found = np.flatnonzero(mask)
    first = np.append(found, offsets[-1])[found.searchsorted(offsets[:-1])]
    return np.minimum(first, offsets[1:])


def _entry_column_at(
    column: np.ndarray, offsets: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """A per-entry column expanded over windows ``[lo, hi)``.

    The same values as ``np.repeat(column, counts)[lo:hi]`` without the
    round-length repeat: only the entries overlapping the tile are expanded,
    each over its windows inside the tile (entries own at least one window,
    so ``offsets`` is strictly increasing).
    """
    first = int(np.searchsorted(offsets, lo, side="right")) - 1
    stop = int(np.searchsorted(offsets, hi, side="left"))
    spans = np.minimum(offsets[first + 1:stop + 1], hi) - np.maximum(
        offsets[first:stop], lo
    )
    return np.repeat(column[first:stop], spans)


def _clamp_tracking(window_min, window_t_star, at, limit, relative):
    """Re-track windows ``at`` over ``[0, limit]``: their motion stops there.

    ``relative`` is the windows' ``(rel_x, rel_y, rvel_x, rvel_y)``.  The
    clamped ``t*`` is the unconstrained optimum clipped into the shortened
    window — the same arithmetic the event engine runs on its clamped
    window.
    """
    rel_x, rel_y, rvel_x, rvel_y = relative
    t_star = np.minimum(window_t_star[at], limit)
    at_x = rel_x + t_star * rvel_x
    at_y = rel_y + t_star * rvel_y
    window_min[at] = np.sqrt(at_x * at_x + at_y * at_y)
    window_t_star[at] = t_star


#: Tile-parity contract sampling: every ``2**_PARITY_SAMPLE_SHIFT``-th
#: eligible ``solve_round`` call (plus the very first) re-solves under an
#: alternative tile size and bit-compares — enough to exercise the
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
    _tile_size: Optional[int] = None,
    _parity_recheck: bool = True,
) -> RoundSolution:
    """Solve all windows of a round with the fused batch kernel, tile by tile.

    ``radius`` (and the optional ``second_radius``) are per-entry columns —
    entries of different instances carry different radii, which is how
    per-agent visibility radii flow through the shared pipeline.  The
    windows are cut into tiles of ``KERNEL_CHUNK_WINDOWS``, which need not
    line up with entries: each tile expands the radii over its windows,
    forms both agents' relative motion (:meth:`RoundWindows.relative_motion`),
    solves it with one kernel call and writes its hits and closest
    approaches into round-length columns, and the per-entry reductions run
    once over those columns.  Every window is solved on its own, so the tile
    size changes no result.

    A ``second_radius`` carries the Section 5 freeze semantics: a
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
    durations = windows.durations
    # The public kernels' input checks, once per round rather than per tile.
    if np.any(radius < 0.0) or (dual and np.any(second_radius < 0.0)):
        raise ValueError("radius must be non-negative")
    if np.any(durations < 0.0):
        raise ValueError("durations must be non-negative")
    tile = KERNEL_CHUNK_WINDOWS
    if _tile_size is not None:
        # Private hook of the tile-parity contract: re-solve the same round
        # under a different tile size.
        tile = _tile_size

    hit = np.empty(total)
    hit2 = np.empty(total) if dual else None
    window_min = np.empty(total) if track_min_distance else None
    window_t_star = np.empty(total) if track_min_distance else None
    outputs = (hit, hit2, window_min, window_t_star)
    for lo in range(0, total, tile):
        hi = min(lo + tile, total)
        at = slice(lo, hi)
        solved = solve_windows(
            *windows.relative_motion(at),
            _entry_column_at(radius, offsets, lo, hi),
            _entry_column_at(second_radius, offsets, lo, hi) if dual else None,
            durations[at],
            track_min_distance,
        )
        for column, values in zip(outputs, solved):
            if column is not None:
                column[at] = values

    if track_min_distance and windows.final_durations is not None:
        # Hits stop at the horizon (the next round rescans the cut window),
        # but the closest approach of each final window is tracked to its
        # real end, as the event engine's window runs — or to a freeze past
        # the horizon, which ends the motion there.  Otherwise the horizon's
        # cut point would become a result.
        last = offsets[1:] - 1
        final = windows.relative_motion(last)
        # Every entry has at least one window, so ``last`` is one per entry.
        end_hit, end_hit2, window_min[last], window_t_star[last] = solve_windows(
            *final, radius, second_radius, windows.final_durations, True,
        )
        if dual:
            frozen = end_hit2 < np.where(np.isnan(end_hit), math.inf, end_hit)
            _clamp_tracking(
                window_min, window_t_star, last[frozen], end_hit2[frozen],
                tuple(column[frozen] for column in final),
            )

    ends = offsets[1:]
    first = _first_true(~np.isnan(hit), offsets)
    has_hit = first < ends
    bounded_first = np.where(has_hit, first, 0)
    solution.first_hit[:] = first
    solution.hit_offset[:] = np.where(has_hit, hit[bounded_first], np.nan)
    scan_limit = first
    if dual:
        first2 = _first_true(~np.isnan(hit2), offsets)
        has_hit2 = first2 < ends
        bounded2 = np.where(has_hit2, first2, 0)
        solution.first_hit2[:] = first2
        solution.hit_offset2[:] = np.where(has_hit2, hit2[bounded2], np.nan)
        # The scan stops at the earliest event of either radius.
        scan_limit = np.minimum(scan_limit, first2)
        if track_min_distance:
            # Freeze semantics: where the second-radius hit strictly
            # precedes the first-radius one (earlier window, or same window
            # at a smaller offset), the window's motion past the hit never
            # happens: re-derive that one window's tracked minimum over
            # [0, hit2].
            second_wins = has_hit2 & (
                (first2 < first)
                | ((first2 == first) & (hit2[bounded2] < hit[bounded2]))
            )
            at = bounded2[second_wins]
            _clamp_tracking(
                window_min, window_t_star, at, hit2[at], windows.relative_motion(at)
            )
    # The hit columns are read; free them before the minimum's temporaries.
    del hit, hit2, outputs

    if track_min_distance:
        # Only windows up to (and including) the stopping window count,
        # mirroring the event engine, which stops at the meeting (or freeze)
        # window: each entry's minimum runs over its windows
        # ``[offsets[k], min(scan_limit[k] + 1, offsets[k + 1]))``, the even
        # slots of one interleaved ``reduceat`` (a cut at the round's end is
        # left out: the last slot runs to the end anyway).
        cuts = np.column_stack((offsets[:-1], np.minimum(scan_limit + 1, ends))).ravel()
        if cuts[-1] == total:
            cuts = cuts[:-1]
        group_min = np.minimum.reduceat(window_min, cuts)[::2]
        # The first window attaining the minimum lies inside the prefix.
        min_index = _first_true(window_min == np.repeat(group_min, counts), offsets)
        solution.group_min[:] = group_min
        has_min = min_index < ends
        bounded_min = np.where(has_min, min_index, 0)
        solution.min_time[:] = np.where(
            has_min,
            windows.starts[bounded_min] + window_t_star[bounded_min],
            np.nan,
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
            # Re-solve under a different tile size (one tile when this pass
            # was tiled, roughly halves otherwise) and require a
            # bit-identical solution — the declared contract behind the
            # tiling.
            alternative = solve_round(
                windows, radius,
                track_min_distance=track_min_distance,
                second_radius=second_radius,
                _tile_size=(total if total > tile else max(1, total // 2)),
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
                "tile sizes",
            )

    return solution
