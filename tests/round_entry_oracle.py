"""The per-instance round bounds, kept verbatim as a test oracle.

This is ``RoundEntry`` (and ``entry_state_arrays``, its column form) as it
stood in :mod:`repro.sim.rounds` before the batch driver held each round as
columns: one object per pending instance carrying its tables, its
budget-capped horizon, its budget flag and its scan limit.
``tests/test_sim_round_bounds.py`` requires
:func:`repro.sim.rounds.round_bounds` to reproduce every value it computes.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Tuple

import numpy as np

from repro.core.instance import Instance


class RoundEntry:
    """One instance's tables, horizon and budget state for one round.

    Tables are :class:`~repro.motion.compiler.TrajectoryView` s or explicit
    :class:`~repro.motion.compiler.TrajectoryTable` s; every row lookup goes
    through their shared methods (``start_times``, ``end_time``), except
    :meth:`segments_in_play`, which takes explicit tables' ``count_boundaries``
    (a view has no scalar cut).
    ``extra_segments`` counts trajectory segments that the event engine's
    cursors have already pulled but that are *not* rows of the tables handed
    in — the driver passes a frozen agent's pre-freeze segment count here
    (its synthetic table has ``segments == 0``), so the combined
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
        "limit",
    )

    def __init__(
        self,
        index: int,
        instance: Instance,
        table_a: Any,
        table_b: Any,
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
                    table_a.start_times(table_a.segments),
                    table_b.start_times(table_b.segments),
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
        # How far the event engine could scan past the horizon inside the
        # round's final window: to ``max_time``, or not past a budget stop.
        self.limit = self.horizon if self.budget_limited else max_time

    def segments_in_play(self, until: float) -> Tuple[int, int]:
        """Per-agent counts of segments starting by ``until`` (event-cursor analogue)."""
        return (
            min(self.table_a.count_boundaries(until) + 1, self.table_a.segments),
            min(self.table_b.count_boundaries(until) + 1, self.table_b.segments),
        )


def entry_state_arrays(
    entries: Sequence["RoundEntry"],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(budget_limited, horizon, finish)`` columns over one round's entries.

    The per-entry state the driver classifies a whole round's misses with,
    as masks: ``budget_limited`` and the (possibly budget-capped) effective
    ``horizon`` per entry, and ``finish`` — the absolute time at which *both*
    programs have ended (``inf`` when either is still running or not fully
    represented).  A miss is a ``max_segments`` stop when budget-limited; a
    ``programs-finished`` stop (``max-time`` from ``max_time`` on) when both
    programs ended within the horizon, since the agents stand still forever;
    a ``max-time`` stop when the horizon reached ``max_time``; and otherwise
    unresolved, retried with a grown horizon.
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
