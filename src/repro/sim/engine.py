"""The event-driven rendezvous engine.

The engine advances absolute time from event to event, where events are the
starts/ends of trajectory segments of either agent.  Between two consecutive
events both agents move with constant velocity, so the first time their
distance drops to the visibility radius is found exactly by the quadratic
closest-approach kernel of :mod:`repro.geometry.closest_approach`.

The engine is deliberately oblivious to *what* the agents are running: it
only sees two lazy streams of trajectory segments.  Algorithms plug in through
the tiny ``program_for(instance, spec, role)`` protocol (or a bare callable
with the same signature), so the simulator does not depend on the algorithm
layer.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple, Union

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_result
from repro.core.instance import AgentSpec, Instance
from repro.geometry.closest_approach import (
    closest_approach_moving_points,
    first_hit_and_closest_approach,
    first_time_within,
)
from repro.geometry.vec import Vec2, add, scale
from repro.motion.compiler import TrajectorySegment, compile_trajectory, stalled_segments
from repro.motion.instructions import Instruction
from repro.sim.events import FREEZE, EventKind
from repro.sim.recorder import TrajectoryRecorder
from repro.sim.results import SimulationResult, TerminationReason
from repro.sim.scenarios import scaled_agents, stall_schedule
from repro.sim.timebase import Timebase, get_timebase
from repro.util.errors import SimulationBudgetExceeded
from repro.util.logging import get_logger

logger = get_logger("sim.engine")

#: Signature of the plain-callable algorithm interface accepted by the engine.
ProgramFactory = Callable[[Instance, AgentSpec, str], Iterable[Instruction]]


def _resolve_program(algorithm: Any, instance: Instance, spec: AgentSpec, role: str):
    """Obtain the instruction stream of ``algorithm`` for one agent."""
    if hasattr(algorithm, "program_for"):
        return algorithm.program_for(instance, spec, role)
    if callable(algorithm):
        return algorithm(instance, spec, role)
    raise TypeError(
        "algorithm must expose program_for(instance, spec, role) or be a callable "
        f"with that signature, got {algorithm!r}"
    )


def _algorithm_name(algorithm: Any) -> str:
    name = getattr(algorithm, "name", None)
    if isinstance(name, str) and name:
        return name
    return getattr(algorithm, "__name__", type(algorithm).__name__)


def window_bounds(current, end_a, end_b, horizon, timebase: Timebase):
    """``(window_end, window)`` of the next simulation window.

    The single place where window-end clamping lives: the window runs from
    absolute time ``current`` to the earliest of the two agents' segment ends
    (``None`` meaning unbounded) and the horizon, and its duration is clamped
    at zero against rounding in the timebase subtraction.
    """
    window_end = horizon
    if end_a is not None and end_a < window_end:
        window_end = end_a
    if end_b is not None and end_b < window_end:
        window_end = end_b
    window = timebase.diff(window_end, current)
    if window < 0.0:
        window = 0.0
    return window_end, window


class _AgentCursor:
    """Iterates the trajectory segments of one agent, one window at a time."""

    __slots__ = (
        "timebase",
        "stream",
        "current",
        "segments_consumed",
        "exhausted",
        "recorder",
    )

    def __init__(
        self,
        spec: AgentSpec,
        program: Iterable[Instruction],
        timebase: Timebase,
        recorder: Optional[TrajectoryRecorder] = None,
        stream_transform: Optional[
            Callable[[Iterator[TrajectorySegment]], Iterable[TrajectorySegment]]
        ] = None,
    ) -> None:
        self.timebase = timebase
        stream: Iterable[TrajectorySegment] = compile_trajectory(
            spec, program, timebase=timebase
        )
        if stream_transform is not None:
            # Scenario lowering hook: e.g. the stall transform of the
            # ``stall`` event kind rewrites the segment stream in place.
            stream = stream_transform(iter(stream))
        self.stream: Iterator[TrajectorySegment] = iter(stream)
        self.segments_consumed = 0
        self.exhausted = False
        self.recorder = recorder
        first = self._pull()
        if first is None:
            # The program is empty: the agent never moves.
            self.current = TrajectorySegment(
                start_time=timebase.lift(0.0),
                duration=math.inf,
                start_pos=spec.start,
                velocity=(0.0, 0.0),
                kind="idle",
            )
            self.exhausted = True
        else:
            self.current = first
            if self.timebase.to_float(first.start_time) > 0.0:
                # The compiler only emits the first segment at the wake-up
                # time when there is no sleep segment (wake_time == 0), so a
                # positive start here cannot happen; guard anyway.
                self.current = TrajectorySegment(
                    start_time=timebase.lift(0.0),
                    duration=self.timebase.to_float(first.start_time),
                    start_pos=spec.start,
                    velocity=(0.0, 0.0),
                    kind="sleep",
                )
                self.stream = self._chain(first, self.stream)

    @staticmethod
    def _chain(head: TrajectorySegment, rest: Iterator[TrajectorySegment]):
        yield head
        yield from rest

    def _pull(self) -> Optional[TrajectorySegment]:
        try:
            segment = next(self.stream)
        except StopIteration:
            return None
        self.segments_consumed += 1
        if self.recorder is not None:
            self.recorder.record_segment(segment)
        return segment

    # -- time window helpers -------------------------------------------------------
    def end_time(self):
        """Absolute end time of the current segment, or ``None`` if unbounded."""
        if math.isinf(self.current.duration):
            return None
        return self.timebase.add(self.current.start_time, self.current.duration)

    def state_at(self, when) -> Tuple[Vec2, Vec2]:
        """(position, velocity) of the agent at absolute time ``when``.

        ``when`` must lie inside the current segment (up to rounding); the
        offset is clamped into the segment for robustness.
        """
        offset = self.timebase.diff(when, self.current.start_time)
        if offset < 0.0:
            offset = 0.0
        if not math.isinf(self.current.duration) and offset > self.current.duration:
            offset = self.current.duration
        position = add(self.current.start_pos, scale(self.current.velocity, offset))
        return position, self.current.velocity

    def advance_past(self, when) -> None:
        """Move to the segment that is active just after absolute time ``when``."""
        while True:
            end = self.end_time()
            if end is None or end > when:
                return
            nxt = self._pull()
            if nxt is None:
                # Finite program: the agent stays at its final position forever.
                self.current = TrajectorySegment(
                    start_time=end,
                    duration=math.inf,
                    start_pos=self.current.end_pos,
                    velocity=(0.0, 0.0),
                    kind="finished",
                )
                self.exhausted = True
                return
            self.current = nxt


def freeze_cursor(cursor: _AgentCursor, when) -> Vec2:
    """Stop an agent forever at its position at absolute time ``when``.

    The ``freeze_resimulate`` resolution of the ``freeze`` event kind: the
    agent's remaining program is discarded and it holds the freeze position.
    """
    position, _velocity = cursor.state_at(when)
    cursor.current = TrajectorySegment(
        start_time=when,
        duration=math.inf,
        start_pos=position,
        velocity=(0.0, 0.0),
        kind="frozen",
    )
    cursor.stream = iter(())
    cursor.exhausted = True
    return position


@dataclass(frozen=True)
class FreezeRule:
    """The dual-radius freeze event bound to one run.

    ``radius`` is the detection radius (slack included) at which ``agent``
    freezes; the detection/resolution/tracking semantics come from the
    declared event ``kind`` (:data:`repro.sim.events.FREEZE` by default).
    """

    radius: float
    agent: str
    kind: EventKind = FREEZE


@dataclass
class WindowOutcome:
    """What :func:`drive_windows` observed: verdict, events, bookkeeping."""

    met: bool
    termination: TerminationReason
    current: Any
    windows: int
    meeting_time_exact: Any = None
    meeting_pos_a: Optional[Vec2] = None
    meeting_pos_b: Optional[Vec2] = None
    min_distance: float = math.inf
    min_distance_time: Optional[float] = None
    frozen_agent: Optional[str] = None
    freeze_time: Optional[float] = None
    freeze_distance: Optional[float] = None


def drive_windows(
    cursor_a: _AgentCursor,
    cursor_b: _AgentCursor,
    timebase: Timebase,
    *,
    max_time: float,
    max_segments: int,
    radius: float,
    track_min_distance: bool = True,
    freeze: Optional[FreezeRule] = None,
    recorder_a: Optional[TrajectoryRecorder] = None,
    recorder_b: Optional[TrajectoryRecorder] = None,
) -> WindowOutcome:
    """THE window loop: every scenario's event engine runs through here.

    Advances absolute time from segment boundary to segment boundary
    (:func:`window_bounds` is the only window-end clamping), detects events
    inside each window per the active event kinds, and enforces the
    ``max_segments`` budget on every path that pulls new segments — the
    single implementation of window advancement, horizon cuts and budgets.

    * ``meeting`` (always active): one fused first-hit + closest-approach
      solve per window; a hit terminates with the exact meeting time.
    * ``freeze`` (active when ``freeze`` is given, until it fires): the
      dual-radius two-phase detection — a first-crossing of ``freeze.radius``
      strictly before any meeting stops ``freeze.agent`` forever and the
      remainder of the window is re-simulated with it stationary.  The
      closest-approach tracker honours the kind's declared ``tracking_clamp``:
      scanning a freeze-winning window past the event offset would observe
      counterfactual motion.
    * ``stall`` never surfaces here: its ``scheduled`` detection is lowered
      into the segment streams (:func:`repro.motion.compiler.stalled_segments`)
      before the cursors reach this loop.
    """
    horizon = timebase.lift(max_time)
    current = timebase.lift(0.0)

    met = False
    meeting_time_exact = None
    meeting_pos_a = meeting_pos_b = None
    min_distance = math.inf
    min_distance_time: Optional[float] = None
    windows = 0
    termination = TerminationReason.MAX_TIME
    frozen_agent: Optional[str] = None
    freeze_time: Optional[float] = None
    freeze_distance: Optional[float] = None

    while True:
        windows += 1
        window_end, window = window_bounds(
            current, cursor_a.end_time(), cursor_b.end_time(), horizon, timebase
        )

        pos_a, vel_a = cursor_a.state_at(current)
        pos_b, vel_b = cursor_b.state_at(current)

        if freeze is not None and frozen_agent is None:
            # Dual-radius two-phase detection: both crossings solved per
            # window, the *earliest* event wins.
            hit = first_time_within(pos_a, vel_a, pos_b, vel_b, radius, window)
            event_hit = first_time_within(
                pos_a, vel_a, pos_b, vel_b, freeze.radius, window
            )
            event_wins = event_hit is not None and (hit is None or event_hit < hit)
            approach = None
            if track_min_distance:
                tracked = (
                    event_hit
                    if event_wins and freeze.kind.tracking_clamp == "clamp_at_event"
                    else window
                )
                approach = closest_approach_moving_points(
                    pos_a, vel_a, pos_b, vel_b, tracked
                )
        else:
            hit, approach = first_hit_and_closest_approach(
                pos_a, vel_a, pos_b, vel_b, radius, window,
                track_closest=track_min_distance,
            )
            event_hit = None
            event_wins = False

        if approach is not None and approach.min_distance < min_distance:
            min_distance = approach.min_distance
            min_distance_time = timebase.to_float(current) + approach.time_offset

        if event_wins:
            # freeze_resimulate: stop the agent at the event time, re-enter
            # the loop from there with it stationary.  The resume honours the
            # segment budget exactly like the window-advance path below: a
            # freeze landing on a segment boundary pulls new segments, and
            # skipping the check would let the run scan (and even meet) past
            # the budget.
            freeze_at = timebase.add(current, event_hit)
            frozen_agent = freeze.agent
            freeze_time = timebase.to_float(freeze_at)
            frozen_cursor = cursor_a if frozen_agent == "A" else cursor_b
            frozen_pos = freeze_cursor(frozen_cursor, freeze_at)
            other_cursor = cursor_b if frozen_agent == "A" else cursor_a
            other_pos, _ = other_cursor.state_at(freeze_at)
            freeze_distance = math.hypot(
                frozen_pos[0] - other_pos[0], frozen_pos[1] - other_pos[1]
            )
            current = freeze_at
            other_cursor.advance_past(current)
            if cursor_a.segments_consumed + cursor_b.segments_consumed > max_segments:
                termination = TerminationReason.MAX_SEGMENTS
                break
            continue

        if hit is not None:
            met = True
            termination = TerminationReason.RENDEZVOUS
            meeting_time_exact = timebase.add(current, hit)
            meeting_pos_a = add(pos_a, scale(vel_a, hit))
            meeting_pos_b = add(pos_b, scale(vel_b, hit))
            if recorder_a is not None:
                recorder_a.record_point(meeting_pos_a)
            if recorder_b is not None:
                recorder_b.record_point(meeting_pos_b)
            break

        if cursor_a.exhausted and cursor_b.exhausted:
            termination = TerminationReason.PROGRAMS_FINISHED
            current = window_end
            break

        if window_end >= horizon:
            termination = TerminationReason.MAX_TIME
            current = horizon
            break

        current = window_end
        cursor_a.advance_past(current)
        cursor_b.advance_past(current)

        if cursor_a.segments_consumed + cursor_b.segments_consumed > max_segments:
            termination = TerminationReason.MAX_SEGMENTS
            break

    return WindowOutcome(
        met=met,
        termination=termination,
        current=current,
        windows=windows,
        meeting_time_exact=meeting_time_exact,
        meeting_pos_a=meeting_pos_a,
        meeting_pos_b=meeting_pos_b,
        min_distance=min_distance,
        min_distance_time=min_distance_time,
        frozen_agent=frozen_agent,
        freeze_time=freeze_time,
        freeze_distance=freeze_distance,
    )


@dataclass
class RendezvousSimulator:
    """Simulates one algorithm on one instance until rendezvous or budget end.

    Parameters
    ----------
    max_time:
        Simulated-time budget (absolute time units).  The simulation stops at
        this horizon when rendezvous has not occurred earlier.
    max_segments:
        Budget on the total number of trajectory segments consumed across both
        agents — the actual computational cost driver.
    timebase:
        ``"float"`` (default), ``"exact"`` or a :class:`Timebase` instance.
    record_trajectories:
        Whether to record the agents' polygonal traces (capped at
        ``record_limit`` vertices each) in the result.
    raise_on_budget:
        If true, budget exhaustion raises :class:`SimulationBudgetExceeded`
        instead of returning a result with ``met = False``.
    radius_slack:
        Additive tolerance on the visibility radius used *only* for meeting
        detection.  The default 0.0 is the model's exact ``<= r`` test; the
        boundary experiments (S1/S2, where the meeting happens at distance
        exactly ``r`` with zero slack) pass a tiny positive value so that a
        one-ulp rounding error in the trajectory does not flip the verdict.
    track_min_distance:
        Whether to track the closest approach over the whole run.  Campaigns
        that only need the verdict (``met`` plus the meeting time) can switch
        this off and skip one half of the window kernel entirely.
    engine:
        ``"event"`` (default) runs the exact event-driven window loop;
        ``"vectorized"`` delegates to the columnar batch engine of
        :mod:`repro.sim.batch` (float timebase only, no trajectory
        recording — the event engine stays authoritative for those).
    radius_a, radius_b:
        Per-agent visibility radii (Section 5 extension).  Leaving both
        ``None`` (default) runs the symmetric semantics with the instance's
        own ``r``; setting either routes the run through
        :func:`repro.sim.asymmetric.simulate_asymmetric` (or its vectorized
        counterpart under ``engine="vectorized"``), with the unset radius
        defaulting to ``instance.r``.  Asymmetric runs do not record
        trajectories.
    speed_a, speed_b:
        Per-agent speed factors (the ``heterogeneous-speed`` scenario family
        of :mod:`repro.sim.scenarios`).  Each agent's ``units.speed`` is
        multiplied by its factor; move durations are speed-independent, so
        faster agents cover more ground per instruction.  1.0 (default) is
        the paper's homogeneous model.
    stall_agent, stall_time, stall_duration:
        The ``stalling`` scenario family: ``stall_agent`` (``"A"``/``"B"``)
        holds its position for ``stall_duration`` starting at the first
        segment boundary at or after ``stall_time``, then resumes its program
        shifted in time.  All three must be given together.
    """

    max_time: float = 1e9
    max_segments: int = 2_000_000
    timebase: Union[str, Timebase, None] = "float"
    record_trajectories: bool = False
    record_limit: int = 100_000
    raise_on_budget: bool = False
    radius_slack: float = 0.0
    track_min_distance: bool = True
    engine: str = "event"
    radius_a: Optional[float] = None
    radius_b: Optional[float] = None
    speed_a: float = 1.0
    speed_b: float = 1.0
    stall_agent: Optional[str] = None
    stall_time: Optional[float] = None
    stall_duration: Optional[float] = None

    def _stall_transforms(self, timebase: Timebase):
        """Per-agent stream transforms of the stall schedule (or ``(None, None)``)."""
        stall = stall_schedule(self.stall_agent, self.stall_time, self.stall_duration)
        if stall is None:
            return None, None
        agent, onset, duration = stall

        def transform(segments):
            return stalled_segments(segments, onset, duration, timebase)

        return (transform, None) if agent == "A" else (None, transform)

    def run(self, instance: Instance, algorithm: Any) -> SimulationResult:
        """Simulate ``algorithm`` on ``instance`` and return the outcome."""
        if self.engine not in ("event", "vectorized"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected 'event' or 'vectorized'"
            )
        if not (math.isfinite(self.radius_slack) and self.radius_slack >= 0.0):
            raise ValueError("radius_slack must be non-negative and finite")
        if self.radius_a is not None or self.radius_b is not None:
            return self._run_asymmetric(instance, algorithm)
        if self.engine == "vectorized":
            return self._run_vectorized(instance, algorithm)
        if not (math.isfinite(self.max_time) and self.max_time > 0.0):
            raise ValueError("max_time must be positive and finite")
        if self.max_segments <= 0:
            raise ValueError("max_segments must be positive")

        timebase = get_timebase(self.timebase)
        wall_start = _time.perf_counter()

        spec_a, spec_b = scaled_agents(instance, self.speed_a, self.speed_b)
        recorder_a = (
            TrajectoryRecorder(spec_a.start, self.record_limit)
            if self.record_trajectories
            else None
        )
        recorder_b = (
            TrajectoryRecorder(spec_b.start, self.record_limit)
            if self.record_trajectories
            else None
        )

        transform_a, transform_b = self._stall_transforms(timebase)
        cursor_a = _AgentCursor(
            spec_a, _resolve_program(algorithm, instance, spec_a, "A"), timebase,
            recorder_a, stream_transform=transform_a,
        )
        cursor_b = _AgentCursor(
            spec_b, _resolve_program(algorithm, instance, spec_b, "B"), timebase,
            recorder_b, stream_transform=transform_b,
        )

        radius = instance.r + self.radius_slack

        loop = drive_windows(
            cursor_a,
            cursor_b,
            timebase,
            max_time=self.max_time,
            max_segments=self.max_segments,
            radius=radius,
            track_min_distance=self.track_min_distance,
            recorder_a=recorder_a,
            recorder_b=recorder_b,
        )

        elapsed = _time.perf_counter() - wall_start

        if not loop.met and self.raise_on_budget and loop.termination in (
            TerminationReason.MAX_TIME,
            TerminationReason.MAX_SEGMENTS,
        ):
            raise SimulationBudgetExceeded(
                f"simulation budget exhausted ({loop.termination.value}) after "
                f"{cursor_a.segments_consumed + cursor_b.segments_consumed} segments"
            )

        result = SimulationResult(
            instance=instance,
            algorithm_name=_algorithm_name(algorithm),
            met=loop.met,
            termination=loop.termination,
            meeting_time=(
                timebase.to_float(loop.meeting_time_exact) if loop.met else None
            ),
            meeting_point_a=(loop.meeting_pos_a if loop.met else None),
            meeting_point_b=(loop.meeting_pos_b if loop.met else None),
            min_distance=loop.min_distance,
            min_distance_time=loop.min_distance_time,
            simulated_time=timebase.to_float(
                loop.current if not loop.met else loop.meeting_time_exact
            ),
            segments_a=cursor_a.segments_consumed,
            segments_b=cursor_b.segments_consumed,
            windows_processed=loop.windows,
            elapsed_wall_seconds=elapsed,
            timebase_name=timebase.name,
            trace_a=(recorder_a.as_polyline() if recorder_a is not None else None),
            trace_b=(recorder_b.as_polyline() if recorder_b is not None else None),
            meeting_time_exact=loop.meeting_time_exact,
        )
        if _contracts.enabled():
            check_result(result, max_time=self.max_time)
        logger.debug("%s", result.summary())
        return result

    def _run_asymmetric(self, instance: Instance, algorithm: Any) -> SimulationResult:
        """Route a run with per-agent radii through the Section 5 semantics."""
        from repro.sim.asymmetric import simulate_asymmetric  # local: avoids a cycle

        if self.record_trajectories:
            raise ValueError(
                "asymmetric-radius runs do not record trajectories; drop "
                "radius_a/radius_b or record_trajectories"
            )
        outcome = simulate_asymmetric(
            instance,
            algorithm,
            radius_a=self.radius_a,
            radius_b=self.radius_b,
            max_time=self.max_time,
            max_segments=self.max_segments,
            timebase=self.timebase,
            radius_slack=self.radius_slack,
            track_min_distance=self.track_min_distance,
            engine=self.engine,
            speed_a=self.speed_a,
            speed_b=self.speed_b,
            stall_agent=self.stall_agent,
            stall_time=self.stall_time,
            stall_duration=self.stall_duration,
        )
        result = outcome.result
        if not result.met and self.raise_on_budget and result.termination in (
            TerminationReason.MAX_TIME,
            TerminationReason.MAX_SEGMENTS,
        ):
            raise SimulationBudgetExceeded(
                f"simulation budget exhausted ({result.termination.value}) after "
                f"{result.segments_total} segments"
            )
        return result

    def _run_vectorized(self, instance: Instance, algorithm: Any) -> SimulationResult:
        """Delegate one run to the columnar batch engine of :mod:`repro.sim.batch`."""
        from repro.sim.batch import simulate_batch  # local import: avoids a cycle

        if get_timebase(self.timebase).name != "float":
            raise ValueError(
                "engine='vectorized' supports only the float timebase; the event "
                "engine stays authoritative for exact-timebase runs"
            )
        if self.record_trajectories:
            raise ValueError(
                "engine='vectorized' does not record trajectories; use engine='event'"
            )
        result = simulate_batch(
            [instance],
            algorithm,
            max_time=self.max_time,
            max_segments=self.max_segments,
            radius_slack=self.radius_slack,
            track_min_distance=self.track_min_distance,
            speed_a=self.speed_a,
            speed_b=self.speed_b,
            stall_agent=self.stall_agent,
            stall_time=self.stall_time,
            stall_duration=self.stall_duration,
        )[0]
        if not result.met and self.raise_on_budget and result.termination in (
            TerminationReason.MAX_TIME,
            TerminationReason.MAX_SEGMENTS,
        ):
            raise SimulationBudgetExceeded(
                f"simulation budget exhausted ({result.termination.value}) after "
                f"{result.segments_total} segments"
            )
        return result


def simulate(
    instance: Instance,
    algorithm: Any,
    *,
    max_time: float = 1e9,
    max_segments: int = 2_000_000,
    timebase: Union[str, Timebase, None] = "float",
    record_trajectories: bool = False,
    record_limit: int = 100_000,
    raise_on_budget: bool = False,
    radius_slack: float = 0.0,
    track_min_distance: bool = True,
    engine: str = "event",
    radius_a: Optional[float] = None,
    radius_b: Optional[float] = None,
    speed_a: float = 1.0,
    speed_b: float = 1.0,
    stall_agent: Optional[str] = None,
    stall_time: Optional[float] = None,
    stall_duration: Optional[float] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`RendezvousSimulator` and run it once.

    All parameters mirror the simulator's fields (see
    :class:`RendezvousSimulator` for semantics and units); ``radius_a`` /
    ``radius_b`` opt a run into the Section 5 asymmetric-radius semantics,
    ``speed_a``/``speed_b`` into heterogeneous speeds, and the ``stall_*``
    trio into the stalling-agent scenario.
    """
    simulator = RendezvousSimulator(
        max_time=max_time,
        max_segments=max_segments,
        timebase=timebase,
        record_trajectories=record_trajectories,
        record_limit=record_limit,
        raise_on_budget=raise_on_budget,
        radius_slack=radius_slack,
        track_min_distance=track_min_distance,
        engine=engine,
        radius_a=radius_a,
        radius_b=radius_b,
        speed_a=speed_a,
        speed_b=speed_b,
        stall_agent=stall_agent,
        stall_time=stall_time,
        stall_duration=stall_duration,
    )
    return simulator.run(instance, algorithm)
