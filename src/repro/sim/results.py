"""Result objects returned by the rendezvous simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.instance import Instance
from repro.geometry.polyline import Polyline
from repro.geometry.vec import Vec2, dist


class TerminationReason(enum.Enum):
    """Why a simulation stopped."""

    #: The agents came within distance ``r`` of each other.
    RENDEZVOUS = "rendezvous"
    #: The simulated-time budget ``max_time`` was exhausted first.
    MAX_TIME = "max-time"
    #: The segment budget ``max_segments`` was exhausted first.
    MAX_SEGMENTS = "max-segments"
    #: Both programs terminated (finite programs) without rendezvous; the
    #: agents are stationary forever, so the distance can no longer change.
    PROGRAMS_FINISHED = "programs-finished"


@dataclass
class SimulationResult:
    """Outcome of simulating one algorithm on one instance.

    ``met`` is the headline answer; the remaining fields quantify *how* the
    run went (when and where the meeting happened, how close the agents ever
    got, how much work the simulation did), which is what the experiments
    aggregate.
    """

    instance: Instance
    algorithm_name: str
    met: bool
    termination: TerminationReason
    meeting_time: Optional[float] = None
    meeting_point_a: Optional[Vec2] = None
    meeting_point_b: Optional[Vec2] = None
    min_distance: float = float("inf")
    min_distance_time: Optional[float] = None
    simulated_time: float = 0.0
    segments_a: int = 0
    segments_b: int = 0
    windows_processed: int = 0
    elapsed_wall_seconds: float = 0.0
    timebase_name: str = "float"
    trace_a: Optional[Polyline] = None
    trace_b: Optional[Polyline] = None
    meeting_time_exact: Optional[Any] = field(default=None, repr=False)

    # -- derived -----------------------------------------------------------------
    @property
    def meeting_distance(self) -> Optional[float]:
        """Distance between the agents at the meeting time (``<= r`` when met)."""
        if self.meeting_point_a is None or self.meeting_point_b is None:
            return None
        return dist(self.meeting_point_a, self.meeting_point_b)

    @property
    def segments_total(self) -> int:
        return self.segments_a + self.segments_b

    @property
    def success(self) -> bool:
        """Alias of :attr:`met` (reads better in experiment code)."""
        return self.met

    def approach_ratio(self) -> float:
        """``min_distance / r``: 1.0 means "only ever exactly at the radius"."""
        return self.min_distance / self.instance.r

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.met:
            return (
                f"[{self.algorithm_name}] rendezvous at t={self.meeting_time:.6g} "
                f"(distance {self.meeting_distance:.6g} <= r={self.instance.r:g}, "
                f"{self.segments_total} segments)"
            )
        return (
            f"[{self.algorithm_name}] no rendezvous ({self.termination.value}); "
            f"closest approach {self.min_distance:.6g} at t={self.min_distance_time} "
            f"after {self.segments_total} segments, simulated time {self.simulated_time:.6g}"
        )

    def as_record(self) -> Dict[str, Any]:
        """Flat dictionary for CSV/JSON experiment output."""
        record: Dict[str, Any] = {
            "algorithm": self.algorithm_name,
            "met": self.met,
            "termination": self.termination.value,
            "meeting_time": self.meeting_time,
            "meeting_distance": self.meeting_distance,
            "min_distance": self.min_distance,
            "min_distance_time": self.min_distance_time,
            "simulated_time": self.simulated_time,
            "segments_a": self.segments_a,
            "segments_b": self.segments_b,
            "windows": self.windows_processed,
            "wall_seconds": self.elapsed_wall_seconds,
            "timebase": self.timebase_name,
        }
        record.update({f"instance_{k}": v for k, v in self.instance.as_dict().items()})
        return record


@dataclass
class AsymmetricOutcome:
    """A :class:`SimulationResult` together with the run's freeze event.

    Under per-agent visibility radii (Section 5) ``result.met`` means the
    distance reached the smaller radius, and the freeze fields record the
    larger-radius agent stopping on sight; they stay ``None`` when no freeze
    happened (always so for equal radii).
    """

    result: SimulationResult
    radius_a: float
    radius_b: float
    frozen_agent: Optional[str] = None
    freeze_time: Optional[float] = None
    freeze_distance: Optional[float] = None

    @property
    def met(self) -> bool:
        return self.result.met

    @property
    def meeting_time(self) -> Optional[float]:
        return self.result.meeting_time
