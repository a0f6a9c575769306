"""Different visibility radii (the Section 5 extension of the paper).

The body of the paper assumes both agents share the visibility radius ``r``.
Section 5 sketches the generalization: if the radii are ``r_1 >= r_2``,
rendezvous means being at distance at most ``r_2`` (the smaller radius), and
an agent stops forever the moment it *sees* the other one — i.e. the moment
the distance drops to its own radius.  The paper argues that all results
survive: the agent with the larger radius freezes first, and any algorithm
that keeps performing a planar search (as every phase of
``AlmostUniversalRV`` does) will subsequently bring the still-moving agent
within the smaller radius.

This module binds that semantics to the unified window loop of
:mod:`repro.sim.engine`:

* rendezvous is the ``meeting`` event kind against the *smaller* radius;
* the freeze is the ``freeze`` event kind (:mod:`repro.sim.events`): a
  dual-radius two-phase detection whose resolution stops the larger-radius
  agent forever and re-simulates the rest of the window, with the
  closest-approach tracker clamped at the freeze offset (scanning past it
  would observe counterfactual motion).

The symmetric case (``r_a == r_b``) degenerates to the ordinary engine.

Two engines implement the semantics: the event path through
:func:`~repro.sim.engine.drive_windows` (``engine="event"``, the default —
timebase-generic and authoritative) and the one vectorized batch driver of
:mod:`repro.sim.batch`, which takes the larger radius as a freeze input
(``engine="vectorized"``, float timebase only, or call
:func:`~repro.sim.batch_asymmetric.simulate_batch_asymmetric` directly for
whole campaigns).  Outcomes match to the same 1e-9 relative tolerance as the
symmetric path; see ``tests/test_sim_asymmetric_batch_parity.py``.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_outcome
from repro.core.instance import Instance
from repro.motion.compiler import stalled_segments
from repro.sim.engine import (
    FreezeRule,
    _AgentCursor,
    _algorithm_name,
    _resolve_program,
    drive_windows,
)
from repro.sim.results import SimulationResult, TerminationReason
from repro.sim.scenarios import (
    scaled_agents,
    stall_schedule,
    validate_scenario_options,
)
from repro.sim.timebase import Timebase, get_timebase


@dataclass
class AsymmetricOutcome:
    """Outcome of an asymmetric-visibility simulation.

    ``result`` is an ordinary :class:`SimulationResult` (``met`` means the
    distance reached the smaller radius); the extra fields record the freeze
    event of the larger-radius agent.
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


def simulate_asymmetric(
    instance: Instance,
    algorithm: Any,
    *,
    radius_a: Optional[float] = None,
    radius_b: Optional[float] = None,
    max_time: float = 1e9,
    max_segments: int = 2_000_000,
    timebase: Union[str, Timebase, None] = "float",
    radius_slack: float = 0.0,
    track_min_distance: bool = True,
    engine: str = "event",
    speed_a: float = 1.0,
    speed_b: float = 1.0,
    stall_agent: Optional[str] = None,
    stall_time: Optional[float] = None,
    stall_duration: Optional[float] = None,
) -> AsymmetricOutcome:
    """Simulate ``algorithm`` on ``instance`` with per-agent visibility radii.

    ``radius_a`` / ``radius_b`` are absolute length units and default to
    ``instance.r``.  The instance's own ``r`` is otherwise ignored for
    meeting detection (it still defines the feasibility classification of the
    underlying symmetric instance).  ``max_time`` (absolute time units) and
    ``max_segments`` (combined across both agents) mirror the symmetric
    engine's budgets; ``radius_slack`` is an additive meeting-detection
    tolerance applied to *both* radii.  With ``track_min_distance=False``
    the closest-approach bookkeeping is skipped (``min_distance = inf``).

    ``speed_a``/``speed_b`` and the ``stall_*`` trio compose the
    heterogeneous-speed and stalling-agent scenario families
    (:mod:`repro.sim.scenarios`) with the asymmetric radii; they default to
    the paper's homogeneous, fault-free model.

    ``engine="event"`` (default) runs through the unified window loop of
    :mod:`repro.sim.engine`; ``engine="vectorized"`` delegates to the
    columnar batch engine (float timebase only), whose outcomes — ``met``,
    meeting time at 1e-9 relative, termination reason, closest approach,
    freeze event — match the event path per the asymmetric parity suite.
    """
    if engine not in ("event", "vectorized"):
        raise ValueError(f"unknown engine {engine!r}; expected 'event' or 'vectorized'")
    validate_scenario_options(
        {"radius_a": radius_a, "radius_b": radius_b}, "simulate_asymmetric"
    )
    r_a = instance.r if radius_a is None else float(radius_a)
    r_b = instance.r if radius_b is None else float(radius_b)
    if not (math.isfinite(radius_slack) and radius_slack >= 0.0):
        raise ValueError("radius_slack must be non-negative and finite")
    if not (math.isfinite(max_time) and max_time > 0.0):
        raise ValueError("max_time must be positive and finite")
    if max_segments <= 0:
        raise ValueError("max_segments must be positive")

    if engine == "vectorized":
        # Local import: the batch engine imports AsymmetricOutcome from here.
        from repro.sim.batch_asymmetric import simulate_batch_asymmetric

        if get_timebase(timebase).name != "float":
            raise ValueError(
                "engine='vectorized' supports only the float timebase; the event "
                "engine stays authoritative for exact-timebase runs"
            )
        return simulate_batch_asymmetric(
            [instance],
            algorithm,
            radius_a=[r_a],
            radius_b=[r_b],
            max_time=max_time,
            max_segments=max_segments,
            radius_slack=radius_slack,
            track_min_distance=track_min_distance,
            speed_a=speed_a,
            speed_b=speed_b,
            stall_agent=stall_agent,
            stall_time=stall_time,
            stall_duration=stall_duration,
        )[0]

    small = min(r_a, r_b) + radius_slack
    large = max(r_a, r_b) + radius_slack
    larger_agent = "A" if r_a >= r_b else "B"

    tb = get_timebase(timebase)
    wall_start = _time.perf_counter()
    spec_a, spec_b = scaled_agents(instance, speed_a, speed_b)

    transform_a = transform_b = None
    stall = stall_schedule(stall_agent, stall_time, stall_duration)
    if stall is not None:
        agent, onset, duration = stall

        def transform(segments):
            return stalled_segments(segments, onset, duration, tb)

        if agent == "A":
            transform_a = transform
        else:
            transform_b = transform

    cursor_a = _AgentCursor(
        spec_a, _resolve_program(algorithm, instance, spec_a, "A"), tb,
        stream_transform=transform_a,
    )
    cursor_b = _AgentCursor(
        spec_b, _resolve_program(algorithm, instance, spec_b, "B"), tb,
        stream_transform=transform_b,
    )

    loop = drive_windows(
        cursor_a,
        cursor_b,
        tb,
        max_time=max_time,
        max_segments=max_segments,
        radius=small,
        track_min_distance=track_min_distance,
        freeze=FreezeRule(radius=large, agent=larger_agent),
    )

    result = SimulationResult(
        instance=instance,
        algorithm_name=_algorithm_name(algorithm) + f"[r_a={r_a:g}, r_b={r_b:g}]",
        met=loop.met,
        termination=loop.termination,
        meeting_time=(tb.to_float(loop.meeting_time_exact) if loop.met else None),
        meeting_point_a=loop.meeting_pos_a,
        meeting_point_b=loop.meeting_pos_b,
        min_distance=loop.min_distance,
        min_distance_time=loop.min_distance_time,
        simulated_time=tb.to_float(
            loop.meeting_time_exact if loop.met else loop.current
        ),
        segments_a=cursor_a.segments_consumed,
        segments_b=cursor_b.segments_consumed,
        windows_processed=loop.windows,
        elapsed_wall_seconds=_time.perf_counter() - wall_start,
        timebase_name=tb.name,
        meeting_time_exact=loop.meeting_time_exact,
    )
    outcome = AsymmetricOutcome(
        result=result,
        radius_a=r_a,
        radius_b=r_b,
        frozen_agent=loop.frozen_agent,
        freeze_time=loop.freeze_time,
        freeze_distance=loop.freeze_distance,
    )
    if _contracts.enabled():
        check_outcome(outcome, max_time=max_time)
    return outcome
