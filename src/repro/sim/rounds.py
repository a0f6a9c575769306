"""Round/horizon building blocks of the vectorized batch driver.

The batch driver (:func:`repro.sim.batch._run_rounds`, behind both
:func:`repro.sim.batch.simulate_batch` and
:func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric`) runs one outer
loop: compile trajectory prefixes up to an adaptive horizon, stack the merged
event windows of every unresolved instance into flat arrays, solve all window
quadratics with one chunked fused-kernel pass, and retry the instances that
neither met nor terminated with a geometrically grown horizon.  This module
holds that loop's building blocks:

* :class:`ProgramSource` — serves trajectory tables while consuming each
  program's column blocks only once (shared builders for universal algorithms)
  and compiling each trajectory row only once *per process*
  (:class:`~repro.motion.compiler.IncrementalTableCompiler` per distinct
  trajectory, extended as the adaptive horizon grows); both the consumed
  instruction prefixes and the compiled tables persist across engine calls
  through the bounded LRU caches below (``_BUILDER_CACHE`` /
  ``_COMPILER_CACHE``), so repeated campaigns recompile nothing;
* :class:`RoundEntry` — one instance's tables, horizon and budget state for
  one round, including the exact reproduction of the event engine's
  ``max_segments`` stopping rule (:func:`entry_state_arrays` is the column
  form the driver classifies whole rounds with);
* :func:`build_windows` — the *flat* cross-instance window construction:
  grouped ``searchsorted`` range cuts, one stable lexsort merging every
  entry's two boundary runs at once, one entry-grouped deduplication pass and
  shared scatter index arrays produce window starts, durations and both
  agents' states as single flat arrays with per-instance offsets — no
  per-entry Python runs anywhere in the merge (the first engine generation
  called ``np.unique``/``states_at`` per instance; the second still rank-
  merged each entry's runs in a Python loop);
* :func:`solve_round` — the chunked fused-kernel pass (one kernel call per
  chunk, serially) with segmented first-hit/minimum reductions, optionally
  solving every window against a *second* per-window radius column in the
  same pass (the Section 5 freeze radius).

Nothing in here depends on the meeting semantics: the driver interprets the
per-entry first-hit indices (meeting, and with per-agent radii also freeze)
and assembles results into flat columns (:mod:`repro.sim.columns`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import KERNEL_CHUNK_PARITY
from repro.core.instance import AgentSpec, Instance
from repro.geometry.closest_approach import (
    closest_approach_moving_points,
    fused_window_batch,
    fused_window_batch_dual,
)
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    TrajectoryTable,
)
from repro.motion.program import instruction_blocks
from repro.obs import core as _obs
from repro.sim.engine import _resolve_program
from repro.sim.results import TerminationReason

#: Horizon multiplier between rounds.  Scanning resumes at ``scan_from``, so
#: the dominant waste is not re-scanning but *overshoot*: the resolving round
#: scans to the first horizon past the meeting time, an expected factor of
#: ``(g - 1) / ln g`` beyond it for log-uniform meeting times (~3.4 at g = 8,
#: ~1.8 at g = 3).  The extra rounds a small factor costs are cheap now that
#: trajectory prefixes compile incrementally (each row once per batch), so 3
#: measures ~15-20% faster end-to-end on the stratified campaign than the
#: original 8, with bit-identical results (the horizon schedule is a pure
#: performance knob; 2 loses again to per-round overhead).
GROWTH_FACTOR = 3.0

#: Upper bound on the number of stacked windows handed to one kernel call.
#: Chunks cap peak memory (each window carries ~10 float64 columns) without
#: changing any result — segmented reductions never cross instances.
KERNEL_CHUNK_WINDOWS = 1 << 21


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
_BUILDER_CACHE_ROW_LIMIT = 4_000_000  # x 4 float64 columns ~= 128 MB


def _trim_builder_cache() -> None:
    """Evict least-recently-used builders until both bounds hold.

    Unlike a plain LRU trim, the *last* entry is not exempt: one huge builder
    (user-supplied ``max_segments`` in the tens of millions) exceeding the row
    budget on its own is dropped instead of pinning hundreds of MB for the
    process lifetime.  The engine run that inserted it keeps its direct
    reference; only the cross-call cache declines to retain it.
    """
    while _BUILDER_CACHE and (
        len(_BUILDER_CACHE) > _BUILDER_CACHE_LIMIT
        or sum(len(b) for b in _BUILDER_CACHE.values()) > _BUILDER_CACHE_ROW_LIMIT
    ):
        del _BUILDER_CACHE[next(iter(_BUILDER_CACHE))]
        _obs.add("builder_cache.evictions")


def trim_builder_cache() -> None:
    """Re-apply the builder-cache bounds after a batch run.

    Builders keep growing *after* insertion (the cache stores them before the
    adaptive rounds consume the program), so the insertion-time trim cannot
    see their final size; the batch driver calls this once per run to evict
    entries that outgrew the budget meanwhile.
    """
    _trim_builder_cache()


#: Incremental table compilers of universal programs, shared across
#: batch-engine calls.  Keyed by ``(program_cache_key, spec)`` — the compiled
#: table is a pure function of the instruction stream (declared identical for
#: equal cache keys) and the agent spec — so a repeated campaign (BatchRunner
#: re-runs, sweep grids, CLI experiments) re-uses every trajectory row it
#: already compiled instead of recompiling from scratch.  Bounds mirror the
#: builder cache: an entry cap sized for whole campaigns (one entry per
#: distinct B-side spec), an approximate retained-row budget, LRU eviction
#: one entry at a time, and a single over-budget entry is evicted rather than
#: pinned.  Insertions enforce only the entry cap (O(1) amortized — summing
#: rows per insert would make the hot path O(cache size)); compilers keep
#: growing after insertion anyway, so the row budget is applied by the
#: batch driver's once-per-run re-trim (:func:`trim_compiler_cache`).
_COMPILER_CACHE: Dict[Any, IncrementalTableCompiler] = {}
_COMPILER_CACHE_LIMIT = 4096
_COMPILER_CACHE_ROW_LIMIT = 4_000_000  # x 6 float64 columns ~= 192 MB


def _trim_compiler_cache() -> None:
    """Evict least-recently-used compilers until both bounds hold."""
    while _COMPILER_CACHE and (
        len(_COMPILER_CACHE) > _COMPILER_CACHE_LIMIT
        or sum(c.rows_compiled for c in _COMPILER_CACHE.values())
        > _COMPILER_CACHE_ROW_LIMIT
    ):
        del _COMPILER_CACHE[next(iter(_COMPILER_CACHE))]
        _obs.add("compiler_cache.evictions")


def trim_compiler_cache() -> None:
    """Re-apply the compiler-cache bounds after a batch run.

    Same contract as :func:`trim_builder_cache`: compilers extend their shared
    buffers while the adaptive rounds run, so only a post-run trim sees their
    final row counts.
    """
    _trim_compiler_cache()


def compiler_cache_entry_limit() -> int:
    """The entry cap of the cross-call compiler cache (read at call time)."""
    return _COMPILER_CACHE_LIMIT


#: Whether ``_COMPILER_CACHE`` currently admits only agent A's compilers.
#: Direct engine calls admit every universal compiler with a
#: ``program_cache_key`` (repeated sweeps re-use their B-side rows too);
#: campaign shards whose B-side specs no later shard asks for again run
#: under :func:`compiler_cache_admission`, so single-use compilers do not
#: evict the one entry every shard re-uses.
_SHARED_ONLY = False


@contextmanager
def compiler_cache_admission() -> Iterator[None]:
    """Admit only agent A's compiler to the cross-call cache, for one scope.

    Inside the scope :class:`ProgramSource` bypasses ``_COMPILER_CACHE`` for
    every spec except agent A's (``spec.name == "A"``), the canonical
    reference spec every instance of every campaign shares; B-side compilers
    stay local to their run.  Results never depend on it — only which rows
    are *recompiled* across calls does.  The previous setting is restored on
    exit, so nested scopes compose.
    """
    global _SHARED_ONLY
    previous = _SHARED_ONLY
    _SHARED_ONLY = True
    try:
        yield
    finally:
        _SHARED_ONLY = previous


def _resolve_blocks(algorithm: Any, instance: Instance, spec: AgentSpec, role: str):
    """The column blocks of one agent's program (the batch engine's input).

    Algorithm objects provide them through ``program_blocks_for``; bare
    callables and duck-typed objects go through the instruction adapter.
    """
    hook = getattr(algorithm, "program_blocks_for", None)
    if hook is not None:
        return hook(instance, spec, role)
    return instruction_blocks(_resolve_program(algorithm, instance, spec, role))


class ProgramSource:
    """Serves trajectory tables, consuming each program only once.

    Every program reaches its builder as column blocks
    (``program_blocks_for``).  Universal algorithms share a single
    :class:`LocalProgramBuilder` across every agent of every instance;
    non-universal programs get one builder per (instance, role), created on
    first use and *extended* (never re-created) as the adaptive horizon grows.
    """

    def __init__(self, algorithm: Any, max_segments: Optional[int]) -> None:
        self.algorithm = algorithm
        # ``max_segments`` is the combined budget across both agents (event
        # engine semantics); each builder may overshoot it slightly so the
        # exact combined cutoff time can be computed afterwards.
        self.max_steps = None if max_segments is None else max_segments + 2
        self._universal = _is_universal(algorithm)
        self._cache_key = (
            getattr(algorithm, "program_cache_key", None) if self._universal else None
        )
        self._shared: Optional[LocalProgramBuilder] = None
        self._builders: Dict[Tuple[int, str], LocalProgramBuilder] = {}
        # One incremental compiler per distinct trajectory: every adaptive
        # round re-requests a longer prefix of the same agent's table, and
        # the compiler extends in place instead of recompiling from scratch.
        # A universal program's table is a pure function of the agent spec,
        # so its compilers key by spec — agent A (the canonical reference
        # with one spec across *all* instances) collapses onto a single
        # compiler whose per-(rows, complete) memoization also preserves
        # table identity for the flat window construction's dedup — and,
        # when the algorithm declares a ``program_cache_key``, persist in the
        # cross-call ``_COMPILER_CACHE`` so repeated campaigns skip
        # recompilation entirely.  Non-universal programs key per (instance,
        # role) and never outlive the run.
        self._compilers: Dict[Any, IncrementalTableCompiler] = {}

    def table_for(
        self, index: int, instance: Instance, spec: AgentSpec, role: str, horizon: float
    ) -> TrajectoryTable:
        units = spec.units
        local_budget = max((horizon - units.wake_time) / units.clock_rate, 0.0)
        if self._universal:
            if self._shared is None:
                cache_key = self._cache_key
                if cache_key is not None:
                    self._shared = _BUILDER_CACHE.pop(cache_key, None)
                if self._shared is None:
                    self._shared = LocalProgramBuilder(
                        _resolve_blocks(self.algorithm, instance, spec, role)
                    )
                if cache_key is not None:
                    # (Re-)insert at the back: dict order is the LRU order.
                    _BUILDER_CACHE[cache_key] = self._shared
                    _trim_builder_cache()
            builder = self._shared
        else:
            key = (index, role)
            builder = self._builders.get(key)
            if builder is None:
                builder = LocalProgramBuilder(
                    _resolve_blocks(self.algorithm, instance, spec, role)
                )
                self._builders[key] = builder
        local = builder.snapshot(local_budget, max_steps=self.max_steps)
        compiler_key: Any = spec if self._universal else (index, role)
        compiler = self._compilers.get(compiler_key)
        if compiler is None:
            # Inside a compiler_cache_admission() scope, only agent A's spec —
            # the canonical reference shared by every instance — may consult
            # or populate the cross-call cache; per-instance B specs compile
            # locally and die with the run instead of churning the LRU.
            admitted = not _SHARED_ONLY or spec.name == "A"
            if self._universal and self._cache_key is not None and admitted:
                global_key = (self._cache_key, spec)
                compiler = _COMPILER_CACHE.pop(global_key, None)
                if compiler is None:
                    _obs.add("compiler_cache.misses")
                    compiler = IncrementalTableCompiler(spec)
                else:
                    _obs.add("compiler_cache.hits")
                # (Re-)insert at the back: dict order is the LRU order.  The
                # run keeps its direct reference either way; eviction only
                # means the cross-call cache declines to retain the entry.
                # Only the entry cap is enforced here (O(1) amortized in the
                # hot path); the row budget is meaningless at insertion time
                # anyway — compilers grow *after* insertion — and is applied
                # by the batch driver's post-run trim_compiler_cache().
                _COMPILER_CACHE[global_key] = compiler
                while len(_COMPILER_CACHE) > _COMPILER_CACHE_LIMIT:
                    del _COMPILER_CACHE[next(iter(_COMPILER_CACHE))]
                    _obs.add("compiler_cache.evictions")
            else:
                compiler = IncrementalTableCompiler(spec)
            self._compilers[compiler_key] = compiler
        return compiler.table(local)


def default_initial_horizon(instance: Instance, max_time: float) -> float:
    """A first simulated-time horizon with a real chance of containing the meeting.

    The agents cannot meet before the later one wakes *and* before their
    combined top speed could close the gap.  The universal algorithm pays an
    enumeration overhead of well over an order of magnitude on top of that
    lower bound, so start generously above it (a too-small first horizon costs
    a whole extra round of compilation; a too-large one only some extra
    windows).  Snapping to powers of the growth factor keeps the set of
    distinct horizons per round small, which feeds the shared-table cache.
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

    :meth:`ProgramSource.table_for` returns cached table objects (one per
    compiler growth state), so keying the splice on the table's identity both
    avoids re-splicing per round and preserves table sharing — instances with
    an identical source table and identical stall parameters keep receiving
    one shared stalled table, which the window merge's identity-based dedup
    (:func:`_dedup_tables`) relies on.
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: Dict[Tuple[int, int, float, float], TrajectoryTable] = {}

    def apply(self, table: TrajectoryTable, onset: float, duration: float) -> TrajectoryTable:
        from repro.motion.compiler import stalled_table  # local: avoids re-export churn

        key = (id(table), len(table), float(onset), float(duration))
        cached = self._memo.get(key)
        if cached is None:
            cached = stalled_table(table, float(onset), float(duration))
            self._memo[key] = cached
        return cached


class RoundEntry:
    """One instance's tables, horizon and budget state for one round.

    ``extra_segments`` counts trajectory segments that the event engine's
    cursors have already pulled but that are *not* rows of the tables handed
    in — the driver passes a frozen agent's pre-freeze segment count here (its synthetic table has ``segments == 0``), so the combined
    ``max_segments`` stopping rule keeps matching the event loop exactly.
    """

    __slots__ = (
        "index",
        "instance",
        "table_a",
        "table_b",
        "horizon",
        "budget_limited",
        "scan_from",
        "extra_segments",
    )

    def __init__(
        self,
        index: int,
        instance: Instance,
        table_a: TrajectoryTable,
        table_b: TrajectoryTable,
        horizon: float,
        scan_from: float,
        max_segments: int,
        max_time: float,
        *,
        extra_segments: int = 0,
    ) -> None:
        self.index = index
        self.instance = instance
        self.table_a = table_a
        self.table_b = table_b
        self.scan_from = scan_from
        self.extra_segments = extra_segments

        # The event engine stops when the *combined* number of segments pulled
        # by both cursors exceeds ``max_segments``, which happens at the start
        # time of the (max_segments + 1)-th segment in the merged timeline.
        # Capping the horizon there reproduces its stopping rule exactly.
        # (``partition`` extracts that order statistic in linear time; the
        # value is identical to a full sort's.)
        self.budget_limited = False
        if table_a.segments + table_b.segments + extra_segments > max_segments:
            merged_starts = np.concatenate(
                (
                    table_a.start_time[: table_a.segments],
                    table_b.start_time[: table_b.segments],
                )
            )
            kth = max(max_segments - extra_segments, 0)
            cutoff = float(np.partition(merged_starts, kth)[kth])
            # A cutoff at exactly max_time still terminates as MAX_TIME: the
            # event loop checks the time horizon before the segment budget.
            if cutoff <= horizon and cutoff < max_time:
                horizon = cutoff
                self.budget_limited = True
        # Safety net: coverage falling short of the horizon (a table truncated
        # by its per-agent overshoot cap) is also a budget stop.  Coverage is
        # requested in *local* time (horizon / clock_rate) and the table's end
        # maps back through the same factor, so for clock rates != 1 the end
        # can land an ulp short of the horizon it fully covers — only a
        # macroscopic shortfall (at least a whole segment) means truncation.
        for table in (table_a, table_b):
            end = table.end_time
            if (
                not table.exhausted
                and end < horizon
                and not math.isclose(end, horizon, rel_tol=1e-9, abs_tol=1e-9)
            ):
                horizon = end
                self.budget_limited = True
        self.horizon = max(horizon, 0.0)

    def true_window_end(self, start: float, max_time: float) -> float:
        """Where the event engine's window beginning at ``start`` really ends.

        The last window of a round is cut at the adaptive horizon, which is
        not a segment boundary; the event engine's window runs to the next
        boundary of either agent (capped at ``max_time``).
        """
        end = max_time
        for table in (self.table_a, self.table_b):
            idx = int(np.searchsorted(table.start_time, start, side="right")) - 1
            idx = min(max(idx, 0), len(table) - 1)
            row_end = float(table.start_time[idx] + table.duration[idx])
            if row_end < end:
                end = row_end
        return end

    def segments_in_play(self, until: float) -> Tuple[int, int]:
        """Per-agent counts of segments starting by ``until`` (event-cursor analogue)."""
        return (
            int(
                self.table_a.start_time[: self.table_a.segments].searchsorted(
                    until, side="right"
                )
            ),
            int(
                self.table_b.start_time[: self.table_b.segments].searchsorted(
                    until, side="right"
                )
            ),
        )

    def resolves_without_hit(self, max_time: float) -> Optional[TerminationReason]:
        """Termination reason if no window of this round contains a hit.

        ``None`` means the instance is unresolved at this horizon and must be
        retried with a larger one.  The batch driver applies the same rule
        in bulk over :func:`entry_state_arrays` columns; this scalar
        form is the readable reference (and serves unit tests).
        """
        if self.budget_limited:
            return TerminationReason.MAX_SEGMENTS
        finish_a = self.table_a.finish_time
        finish_b = self.table_b.finish_time
        if (
            finish_a is not None
            and finish_b is not None
            and max(finish_a, finish_b) <= self.horizon
        ):
            # Both programs ended within the scanned range and the agents did
            # not meet: they are stationary forever, nothing can change.
            if max(finish_a, finish_b) < max_time:
                return TerminationReason.PROGRAMS_FINISHED
            return TerminationReason.MAX_TIME
        if self.horizon >= max_time:
            return TerminationReason.MAX_TIME
        return None


def entry_state_arrays(
    entries: Sequence["RoundEntry"],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(budget_limited, horizon, finish)`` columns over one round's entries.

    The array form of the per-entry state that
    :meth:`RoundEntry.resolves_without_hit` consults, letting the driver
    classify a whole round's misses with masks: ``budget_limited`` and the
    (possibly budget-capped) effective ``horizon`` per entry, and ``finish``
    — the absolute time at which *both* programs have ended (``inf`` when
    either is still running or not fully represented).
    """
    n = len(entries)
    budget_limited = np.empty(n, dtype=bool)
    horizon = np.empty(n)
    finish = np.empty(n)
    for k, entry in enumerate(entries):
        budget_limited[k] = entry.budget_limited
        horizon[k] = entry.horizon
        finish_a = entry.table_a.finish_time
        finish_b = entry.table_b.finish_time
        finish[k] = (
            math.inf
            if finish_a is None or finish_b is None
            else max(finish_a, finish_b)
        )
    return budget_limited, horizon, finish


class RoundWindows:
    """The stacked windows of one round, as flat arrays with per-entry offsets.

    ``starts``/``durations`` are parallel over the concatenated windows of all
    entries; entry ``k`` owns the range ``[offsets[k], offsets[k + 1])`` of
    ``counts[k]`` windows.  ``states`` holds the eight per-window state
    columns ``(pax, pay, vax, vay, pbx, pby, vbx, vby)``: both agents'
    positions and velocities at each window start.
    """

    __slots__ = ("starts", "durations", "states", "offsets", "counts")

    def __init__(
        self,
        starts: np.ndarray,
        durations: np.ndarray,
        states: Tuple[np.ndarray, ...],
        offsets: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.starts = starts
        self.durations = durations
        self.states = states
        self.offsets = offsets
        self.counts = counts

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def state_at(self, window: int) -> Tuple[float, ...]:
        """The eight state scalars of one (global) window index."""
        return tuple(float(column[window]) for column in self.states)


#: Shared consecutive-integer buffer for segmented index arithmetic; grows on
#: demand and is only ever read through slices, so earlier slices stay valid.
_CONSECUTIVE = np.arange(4096)


def _consecutive(count: int) -> np.ndarray:
    """The integers ``0..count-1`` as a slice of a shared, growing buffer."""
    global _CONSECUTIVE
    if count > _CONSECUTIVE.shape[0]:
        _CONSECUTIVE = np.arange(max(count, 2 * _CONSECUTIVE.shape[0]))
    return _CONSECUTIVE[:count]


def _segment_arange(counts: np.ndarray, total: int) -> np.ndarray:
    """``0..counts[k]-1`` within each segment, concatenated (length ``total``)."""
    starts = np.cumsum(counts) - counts
    return _consecutive(total) - np.repeat(starts, counts)


def _dedup_tables(tables: Sequence[TrajectoryTable]):
    """Deduplicate tables by identity: distinct list, member lists, slot column.

    Universal campaigns share one A-side table across every instance of a
    round; deduplicating once serves both the grouped range cuts and the
    concatenated column gathers.
    """
    slots: Dict[int, int] = {}
    distinct: List[TrajectoryTable] = []
    members: List[List[int]] = []
    table_of_entry = np.empty(len(tables), dtype=np.int64)
    for k, table in enumerate(tables):
        key = id(table)
        slot = slots.get(key)
        if slot is None:
            slot = len(distinct)
            slots[key] = slot
            distinct.append(table)
            members.append([])
        members[slot].append(k)
        table_of_entry[k] = slot
    return distinct, members, table_of_entry


def _flat_table_columns(
    distinct: Sequence[TrajectoryTable], table_of_entry: np.ndarray
):
    """Concatenated state columns of the distinct tables, plus per-entry bases.

    A side collapsing to a *single* distinct table (late rounds of a
    universal campaign) skips the concatenation entirely and gathers straight
    from the table's own columns (``None`` base: rows index the table's own
    columns directly, with no per-window base offsets).
    """
    names = ("start_time", "start_x", "start_y", "vel_x", "vel_y")
    if len(distinct) == 1:
        table = distinct[0]
        return tuple(getattr(table, name) for name in names), None
    lengths = np.array([len(table) for table in distinct], dtype=np.int64)
    row_offsets = np.concatenate(([0], np.cumsum(lengths)))
    columns = tuple(
        np.concatenate([getattr(table, name) for table in distinct])
        for name in names
    )
    return columns, row_offsets[table_of_entry]


def _range_cuts(
    distinct: Sequence[TrajectoryTable],
    members: Sequence[Sequence[int]],
    scan_froms: np.ndarray,
    horizons: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-entry ``(low, high)`` boundary cuts into each table's event times.

    ``low`` counts the boundaries at or before the entry's ``scan_from``
    (doubling as the base row count there), ``high`` those strictly before
    its horizon.  Entries sharing a table *by identity* — every instance of a
    universal campaign shares the A-side table of its horizon — are cut with
    one vectorized ``searchsorted`` per distinct table instead of two scalar
    calls per entry.
    """
    low = np.zeros(n, dtype=np.int64)
    high = np.empty(n, dtype=np.int64)
    for table, group in zip(distinct, members):
        bounds = table.boundaries()
        if len(group) == 1:
            k = group[0]
            high[k] = bounds.searchsorted(horizons[k], side="left")
            if scan_froms[k] > 0.0:
                low[k] = bounds.searchsorted(scan_froms[k], side="right")
        else:
            sel = np.array(group, dtype=np.int64)
            high[sel] = bounds.searchsorted(horizons[sel], side="left")
            froms = scan_froms[sel]
            # scan_from == 0.0 keeps the base at 0 even when boundaries sit
            # at time 0 (zero-duration first segments), exactly like the
            # scalar formulation's guarded cut.
            low[sel] = np.where(
                froms > 0.0, bounds.searchsorted(froms, side="right"), 0
            )
    return low, high


def _boundary_values(
    time_column: np.ndarray,
    table_base: Optional[np.ndarray],
    base: np.ndarray,
    counts: np.ndarray,
    total: int,
) -> np.ndarray:
    """One side's in-range boundary times, flat and entry-grouped.

    Boundary ``j`` (0-based within the entry's in-range run) of entry ``k``
    is row ``base[k] + 1 + j`` of the entry's table — boundaries are the
    start times of every row but the first — shifted by the entry's
    concatenation base when the side has several distinct tables.
    """
    first_row = base + 1 if table_base is None else base + 1 + table_base
    gather = np.repeat(first_row, counts) + _segment_arange(counts, total)
    return time_column[gather]


def build_windows(entries: Sequence[RoundEntry]) -> RoundWindows:
    """Stack the merged event windows of every entry into flat arrays.

    The flat formulation of the per-instance window construction: all entries'
    segment boundaries are filtered with grouped ``searchsorted`` cuts and
    gathered into two flat entry-grouped runs, one stable lexsort merges every
    entry's A/B runs at once, duplicates fall to one entry-grouped pass,
    per-entry window layouts are derived from segmented counts, and both
    agents' states at every window start come from two fancy-indexing gathers
    instead of per-instance ``states_at`` calls.  No per-entry Python runs in
    the merge.  Produces bit-identical windows and states to the per-instance
    formulation (same comparisons, same float values — only the order in
    which the merge discovers them differs).
    """
    n_entries = len(entries)
    entry_ids = np.arange(n_entries)
    horizons = np.array([entry.horizon for entry in entries])
    scan_froms = np.array([entry.scan_from for entry in entries])

    # In-range boundary runs per entry and table — boundaries are sorted, so
    # the ``(scan_from, horizon)`` range is a pair of searchsorted cuts, and
    # the lower cut doubles as the base row count at the entry's scan_from.
    distinct_a, members_a, slot_a = _dedup_tables([e.table_a for e in entries])
    distinct_b, members_b, slot_b = _dedup_tables([e.table_b for e in entries])
    base_a, high_a = _range_cuts(distinct_a, members_a, scan_froms, horizons, n_entries)
    base_b, high_b = _range_cuts(distinct_b, members_b, scan_froms, horizons, n_entries)
    columns_a, table_base_a = _flat_table_columns(distinct_a, slot_a)
    columns_b, table_base_b = _flat_table_columns(distinct_b, slot_b)

    # A budget-capped horizon can fall at or before scan_from; the in-range
    # run is then empty (the raw ``base`` stays the active-row count).
    counts_a = np.maximum(high_a - base_a, 0)
    counts_b = np.maximum(high_b - base_b, 0)
    total_a = int(counts_a.sum())
    total_b = int(counts_b.sum())
    values_a = _boundary_values(columns_a[0], table_base_a, base_a, counts_a, total_a)
    values_b = _boundary_values(columns_b[0], table_base_b, base_b, counts_b, total_b)

    # Merge each entry's two sorted boundary runs into one flat, entry-grouped
    # event array with a single stable lexsort over (entry, time): within an
    # entry the sort interleaves the two already-sorted runs, and stability
    # breaks ties A-before-B (every A event precedes its entry's B events in
    # the concatenated input) so that the keep-last deduplication below sees
    # equal times adjacent — exactly the order the old per-entry rank merge
    # produced.
    events_per_entry = counts_a + counts_b
    segment_offsets = np.concatenate(([0], np.cumsum(events_per_entry)))
    total_events = int(segment_offsets[-1])
    cat_value = np.concatenate((values_a, values_b))
    cat_entry = np.concatenate(
        (np.repeat(entry_ids, counts_a), np.repeat(entry_ids, counts_b))
    )
    cat_is_a = np.zeros(total_events, dtype=bool)
    cat_is_a[:total_a] = True
    order = np.lexsort((cat_value, cat_entry))
    event_value = cat_value[order]
    event_is_a = cat_is_a[order]
    event_entry = cat_entry[order]
    # Inclusive per-entry running counts of A-/B-side events: the number of
    # boundaries of that agent at or before each event time (within range).
    a_cumulative = np.cumsum(event_is_a)
    b_cumulative = np.cumsum(~event_is_a)
    prefix = np.concatenate(([0], a_cumulative))[segment_offsets[:-1]]
    a_count = a_cumulative - np.repeat(prefix, events_per_entry)
    prefix = np.concatenate(([0], b_cumulative))[segment_offsets[:-1]]
    b_count = b_cumulative - np.repeat(prefix, events_per_entry)

    # Deduplicate equal times within an entry, keeping the *last* occurrence:
    # its counts already include every boundary at that time.  Equal adjacent
    # values never straddle entries by construction, so clearing the mask at
    # every entry's final event confines the comparison within entries; most
    # rounds have no duplicates at all and skip the compress copies entirely.
    duplicate_of_next = np.zeros(total_events, dtype=bool)
    if total_events > 1:
        np.equal(
            event_value[:-1], event_value[1:], out=duplicate_of_next[:-1]
        )
        duplicate_of_next[segment_offsets[1:-1] - 1] = False
    if duplicate_of_next.any():
        keep = ~duplicate_of_next
        kept_value = event_value[keep]
        kept_a = a_count[keep]
        kept_b = b_count[keep]
        kept_per_entry = np.bincount(event_entry[keep], minlength=n_entries)
    else:
        kept_value = event_value
        kept_a = a_count
        kept_b = b_count
        kept_per_entry = events_per_entry

    # Window layout: entry k has kept_per_entry[k] interior events and
    # therefore kept_per_entry[k] + 1 windows, the first starting at its
    # scan_from and the last ending at its horizon.  Kept event ``j`` (global,
    # entry ``k``) *ends* window ``j + k`` and *starts* window ``j + k + 1``
    # — each earlier entry contributes exactly one leading window — so two
    # shared index arrays scatter every column without any boolean masks.
    counts = kept_per_entry + 1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    kept_total = kept_value.shape[0]
    first_positions = offsets[:-1]
    last_positions = offsets[1:] - 1
    end_positions = _consecutive(kept_total) + np.repeat(entry_ids, kept_per_entry)
    start_positions = end_positions + 1

    starts = np.empty(total)
    starts[first_positions] = scan_froms
    starts[start_positions] = kept_value
    ends = np.empty(total)
    ends[end_positions] = kept_value
    # A budget-capped horizon can fall at or before scan_from (everything up
    # to it was already scanned); such an entry degenerates to one clamped,
    # zero-length window, exactly like the per-instance formulation.
    ends[last_positions] = np.maximum(horizons, scan_froms)
    durations = np.maximum(ends - starts, 0.0)

    # Active row of each agent's table at each window start: the number of
    # boundaries at or before that time.  Interior windows get the base count
    # (boundaries at or before scan_from) plus the running in-range count;
    # first windows get the base count alone.
    row_a = np.empty(total, dtype=np.int64)
    row_a[first_positions] = base_a
    row_a[start_positions] = np.repeat(base_a, kept_per_entry) + kept_a
    row_b = np.empty(total, dtype=np.int64)
    row_b[first_positions] = base_b
    row_b[start_positions] = np.repeat(base_b, kept_per_entry) + kept_b

    entry_of_window = (
        np.repeat(entry_ids, counts)
        if table_base_a is not None or table_base_b is not None
        else None
    )
    gather_a = (
        row_a
        if table_base_a is None
        else row_a + table_base_a[entry_of_window]
    )
    gather_b = (
        row_b
        if table_base_b is None
        else row_b + table_base_b[entry_of_window]
    )

    time_a, sx_a, sy_a, vx_a, vy_a = (column[gather_a] for column in columns_a)
    time_b, sx_b, sy_b, vx_b, vy_b = (column[gather_b] for column in columns_b)
    offset_a = starts - time_a
    offset_b = starts - time_b
    states = (
        sx_a + vx_a * offset_a,
        sy_a + vy_a * offset_a,
        vx_a,
        vy_a,
        sx_b + vx_b * offset_b,
        sy_b + vy_b * offset_b,
        vx_b,
        vy_b,
    )
    return RoundWindows(starts, durations, states, offsets, counts)


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
                # hit never happens.  Re-derive that one window's tracked
                # minimum over [0, hit2]: the clamped t* is the unconstrained
                # optimum clipped into the shortened window — the same
                # arithmetic the event engine runs on its clamped window.
                second_wins = has_hit2 & (
                    (local_first2 < local_first)
                    | (
                        (local_first2 == local_first)
                        & (hit2[bounded2] < hit[bounded2])
                    )
                )
                if np.any(second_wins):
                    at = bounded2[second_wins]
                    limit = hit2[at]
                    t_star = np.minimum(window_t_star[at], limit)
                    at_x = rel_x[at] + t_star * rvel_x[at]
                    at_y = rel_y[at] + t_star * rvel_y[at]
                    window_min[at] = np.sqrt(at_x * at_x + at_y * at_y)
                    window_t_star[at] = t_star

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


def full_final_window_min(
    entry: RoundEntry,
    windows: RoundWindows,
    hit_index: int,
    max_time: float,
) -> Optional[Tuple[float, float]]:
    """Closest approach of a horizon-cut stopping window, re-scanned full-length.

    When the meeting (or freeze) falls into a round's final window — which is
    cut at the adaptive horizon rather than at a segment boundary — the event
    engine scans that window to its real end (even past the hit).  Returns
    ``(min_distance, absolute_time)`` of the full-length closest approach
    when the true end extends past the horizon, ``None`` when the cut was
    already a real boundary.
    """
    start = float(windows.starts[hit_index])
    true_end = entry.true_window_end(start, max_time)
    if true_end <= entry.horizon:
        return None
    pax, pay, vax, vay, pbx, pby, vbx, vby = windows.state_at(hit_index)
    approach = closest_approach_moving_points(
        (pax, pay), (vax, vay), (pbx, pby), (vbx, vby), true_end - start
    )
    return approach.min_distance, start + approach.time_offset
