"""Flat result columns of the vectorized batch driver.

The batch driver (:mod:`repro.sim.batch`) resolves instances round by round,
but builds no per-instance Python objects while rounds are running: every
outcome field lives in a preallocated numpy column indexed by instance
position, written with masked assignments as whole rounds classify at once.  :class:`ResultColumns` is that struct — the columns
of the eventual :class:`~repro.sim.results.SimulationResult` list plus the
carried per-instance round state (requested horizon, scan resume point,
window counts, partial closest approach, the Section 5 freeze) that the
first engine generation kept in dicts.  Only :meth:`ResultColumns.build_results` touches Python
objects, once per batch, after the last round.

Sentinel conventions: ``NaN`` encodes ``None`` in float columns (meeting
time/positions, closest-approach time), ``inf`` the "never tracked" closest
approach, and termination is stored as an index into
:data:`TERMINATION_BY_CODE`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.instance import Instance
from repro.sim.results import SimulationResult, TerminationReason

__all__ = [
    "ResultColumns",
    "TERMINATION_BY_CODE",
    "RENDEZVOUS",
    "MAX_TIME",
    "MAX_SEGMENTS",
    "PROGRAMS_FINISHED",
]

#: Termination reasons by column code; positions are the codes.
TERMINATION_BY_CODE = (
    TerminationReason.RENDEZVOUS,
    TerminationReason.MAX_TIME,
    TerminationReason.MAX_SEGMENTS,
    TerminationReason.PROGRAMS_FINISHED,
)
RENDEZVOUS, MAX_TIME, MAX_SEGMENTS, PROGRAMS_FINISHED = range(4)


class ResultColumns:
    """Preallocated per-instance outcome and round-state columns.

    One row per instance of the batch, in input order.  The driver writes
    rows with masked fancy-indexed assignments (never per-instance Python);
    rows of instances still pending keep their initial sentinels until the
    round that resolves them.
    """

    __slots__ = (
        "met",
        "termination",
        "meeting_time",
        "meet_ax",
        "meet_ay",
        "meet_bx",
        "meet_by",
        "min_distance",
        "min_distance_time",
        "simulated_time",
        "segments_a",
        "segments_b",
        "windows_processed",
        "horizon",
        "scan_from",
        "windows_before",
        "frozen_agent",
        "freeze_time",
        "freeze_distance",
        "freeze_segments",
    )

    def __init__(self, size: int) -> None:
        self.met = np.zeros(size, dtype=bool)
        self.termination = np.full(size, MAX_TIME, dtype=np.int8)
        self.meeting_time = np.full(size, np.nan)
        self.meet_ax = np.full(size, np.nan)
        self.meet_ay = np.full(size, np.nan)
        self.meet_bx = np.full(size, np.nan)
        self.meet_by = np.full(size, np.nan)
        self.min_distance = np.full(size, np.inf)
        self.min_distance_time = np.full(size, np.nan)
        self.simulated_time = np.zeros(size)
        self.segments_a = np.zeros(size, dtype=np.int64)
        self.segments_b = np.zeros(size, dtype=np.int64)
        self.windows_processed = np.zeros(size, dtype=np.int64)
        # Carried round state (dict-free): the horizon *requested* for the
        # next round (a budget stop may cap the round's effective horizon
        # below this), where the next round resumes scanning, and how many
        # windows lie fully before that point.  min_distance/min_distance_time
        # double as the carried partial closest approach while an instance is
        # pending.
        self.horizon = np.zeros(size)
        self.scan_from = np.zeros(size)
        self.windows_before = np.zeros(size, dtype=np.int64)
        # The Section 5 freeze: the frozen agent ("" while none is), when, at
        # what distance, and its cursor's segments by then (still budgeted).
        self.frozen_agent = np.full(size, "", dtype="<U1")
        self.freeze_time = np.full(size, np.nan)
        self.freeze_distance = np.full(size, np.nan)
        self.freeze_segments = np.zeros(size, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.met.shape[0])

    def fold_round_min(
        self, indices: np.ndarray, round_min: np.ndarray, round_time: np.ndarray
    ) -> None:
        """Merge one round's per-entry closest approaches into the carried columns.

        Strict ``<`` keeps the earlier round's window on ties, mirroring the
        event engine's first-window-wins rule.  ``indices`` are instance rows
        parallel to ``round_min``/``round_time``; rows whose round tracked
        nothing carry ``inf``/``NaN`` and never win.
        """
        better = round_min < self.min_distance[indices]
        if np.any(better):
            rows = indices[better]
            self.min_distance[rows] = round_min[better]
            self.min_distance_time[rows] = round_time[better]

    def build_results(
        self,
        instances: Sequence[Instance],
        algorithm_name: Union[str, Sequence[str]],
        *,
        elapsed_wall_seconds: float = 0.0,
    ) -> List[SimulationResult]:
        """Materialize the columns into :class:`SimulationResult`s, input order.

        The one per-instance Python pass of a batch run.  ``algorithm_name``
        is a single shared name or one name per instance
        (:func:`~repro.sim.batch_asymmetric.simulate_batch_asymmetric` embeds
        per-instance radii in the name).
        """
        names = (
            [algorithm_name] * len(self)
            if isinstance(algorithm_name, str)
            else list(algorithm_name)
        )
        met_list = self.met.tolist()
        termination = [TERMINATION_BY_CODE[code] for code in self.termination.tolist()]
        meeting_time = self.meeting_time.tolist()
        ax, ay = self.meet_ax.tolist(), self.meet_ay.tolist()
        bx, by = self.meet_bx.tolist(), self.meet_by.tolist()
        # min_distance_time == NaN means "nothing tracked": the distance
        # column then reports inf regardless of any partial value.
        tracked = ~np.isnan(self.min_distance_time)
        min_distance = np.where(tracked, self.min_distance, np.inf).tolist()
        min_time = self.min_distance_time.tolist()
        simulated = self.simulated_time.tolist()
        segments_a = self.segments_a.tolist()
        segments_b = self.segments_b.tolist()
        windows = self.windows_processed.tolist()
        tracked_list = tracked.tolist()

        results: List[SimulationResult] = []
        for k, instance in enumerate(instances):
            met = met_list[k]
            time: Optional[float] = meeting_time[k] if met else None
            results.append(
                SimulationResult(
                    instance=instance,
                    algorithm_name=names[k],
                    met=met,
                    termination=termination[k],
                    meeting_time=time,
                    meeting_point_a=(ax[k], ay[k]) if met else None,
                    meeting_point_b=(bx[k], by[k]) if met else None,
                    min_distance=min_distance[k],
                    min_distance_time=min_time[k] if tracked_list[k] else None,
                    simulated_time=simulated[k],
                    segments_a=segments_a[k],
                    segments_b=segments_b[k],
                    windows_processed=windows[k],
                    elapsed_wall_seconds=elapsed_wall_seconds,
                    timebase_name="float",
                    meeting_time_exact=time,
                )
            )
        return results
