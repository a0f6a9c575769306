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

There is no separate engine for this: the symmetric model is the case
``r_a == r_b``, and :class:`~repro.sim.engine.RendezvousSimulator` runs both
through one body.  Given per-agent radii, that body

* declares rendezvous by the ``meeting`` event kind against the *smaller*
  radius;
* passes the window loop a :class:`~repro.sim.engine.FreezeRule` for the
  ``freeze`` event kind (:mod:`repro.sim.events`): a dual-radius two-phase
  detection whose resolution stops the larger-radius agent forever and
  re-simulates the rest of the window, with the closest-approach tracker
  clamped at the freeze offset (scanning past it would observe
  counterfactual motion);
* under ``engine="vectorized"`` (float timebase only) hands the run to
  :func:`~repro.sim.batch_asymmetric.simulate_batch_asymmetric`, which is also
  the entry point for whole Section 5 campaigns.

:func:`simulate_asymmetric` is the thin Section 5 wrapper over that body: it
always applies the freeze semantics (radii default to ``instance.r``) and
returns the freeze event next to the result.  The two engines match to the
same 1e-9 relative tolerance as the symmetric path; see
``tests/test_sim_asymmetric_batch_parity.py``.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.core.instance import Instance
from repro.sim.engine import RendezvousSimulator
from repro.sim.results import AsymmetricOutcome
from repro.sim.timebase import Timebase

__all__ = ["AsymmetricOutcome", "simulate_asymmetric"]


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
    return RendezvousSimulator(
        max_time=max_time,
        max_segments=max_segments,
        timebase=timebase,
        radius_slack=radius_slack,
        track_min_distance=track_min_distance,
        engine=engine,
        radius_a=instance.r if radius_a is None else radius_a,
        radius_b=instance.r if radius_b is None else radius_b,
        speed_a=speed_a,
        speed_b=speed_b,
        stall_agent=stall_agent,
        stall_time=stall_time,
        stall_duration=stall_duration,
    )._run(instance, algorithm, "simulate_asymmetric")
