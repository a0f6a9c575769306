"""The lexsort window construction, kept verbatim as a test oracle.

This is :func:`repro.sim.rounds.build_windows` as it stood before the
sort-free rank merge: every entry's two boundary runs are concatenated and
merged with one stable ``np.lexsort`` over (entry, time), and every distinct
table is concatenated in full.  ``tests/test_sim_build_windows.py`` requires
the production merge to reproduce every array it returns byte for byte.
Only its container changed: the production ``RoundWindows`` forms states on
demand, so the oracle returns its own tuple of the same arrays.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.motion.compiler import TrajectoryTable


class RoundWindows(NamedTuple):
    """The oracle's windows: the arrays the production construction returns,
    with the eight state columns stored rather than formed on demand."""

    starts: np.ndarray
    durations: np.ndarray
    states: Tuple[np.ndarray, ...]
    offsets: np.ndarray
    counts: np.ndarray


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


def build_windows(entries: Sequence[Any]) -> RoundWindows:
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
