"""Vectorized batch engine for asymmetric visibility radii (Section 5).

The event-driven :func:`repro.sim.asymmetric.simulate_asymmetric` generalizes
the rendezvous semantics to per-agent radii ``r_a``/``r_b``: the first time
the distance reaches the *larger* radius, that agent sees the other one and
freezes forever at its current position; rendezvous is declared at the first
time the distance reaches the *smaller* radius.

:func:`simulate_batch_asymmetric` is its columnar counterpart for Section 5
sweep campaigns.  It is a thin wrapper over the round driver of
:mod:`repro.sim.batch`: the smaller radius is the driver's meeting radius,
and the larger radius plus the agent holding it are its freeze input, which
switches on the dual-radius kernel and the two-phase freeze state machine.

Parity contract (pinned by ``tests/test_sim_asymmetric_batch_parity.py``):
per instance, ``met``, the meeting time (1e-9 relative), the termination
reason, the closest approach, the frozen agent and the freeze time/distance
match :func:`~repro.sim.asymmetric.simulate_asymmetric` on every
float-timebase run.  Equal radii degenerate exactly to the symmetric
semantics: the freeze never fires (a meeting hit is never strictly later
than the freeze hit of the same window) and every result field but the name
and wall time equals :func:`~repro.sim.batch.simulate_batch`'s.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_outcome
from repro.core.instance import Instance
from repro.obs import core as _obs
from repro.sim.batch import _run_rounds
from repro.sim.engine import _algorithm_name
from repro.sim.results import AsymmetricOutcome
from repro.sim.rounds import per_instance_option

__all__ = ["simulate_batch_asymmetric"]


def simulate_batch_asymmetric(
    instances: Sequence[Instance],
    algorithm: Any,
    *,
    radius_a=None,
    radius_b=None,
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
) -> List[AsymmetricOutcome]:
    """Simulate ``algorithm`` under per-agent radii with the vectorized engine.

    Parameters
    ----------
    instances:
        The instances to simulate, all under the same ``algorithm`` object.
    radius_a, radius_b:
        Visibility radii of agents A and B in absolute length units:
        ``None`` (default) uses each instance's own ``r``, a scalar applies
        to every instance, a sequence supplies one radius per instance —
        which is how a Section 5 sweep carries a whole radius-ratio grid in
        one batch.  Radii must be positive and finite; the instance's ``r``
        is otherwise ignored for meeting detection (it still defines the
        feasibility classification of the underlying symmetric instance).
    max_time, max_segments, radius_slack, track_min_distance, initial_horizon:
        Exactly as in :func:`repro.sim.batch.simulate_batch` — including the
        combined ``max_segments`` budget semantics across both agents (the
        frozen agent stops drawing on the budget at its freeze time, like the
        event engine's frozen cursor).
    speed_a, speed_b, stall_agent, stall_time, stall_duration:
        The heterogeneous-speed and stalling-agent scenario options, exactly
        as in :func:`repro.sim.batch.simulate_batch`.  A frozen agent's
        pending stall is discarded — its stationary table replaces all
        remaining motion, like the event engine's cleared cursor stream.

    Returns one :class:`~repro.sim.asymmetric.AsymmetricOutcome` per instance,
    in input order: an ordinary :class:`SimulationResult` (``met`` means the
    distance reached the smaller radius) plus the freeze event of the
    larger-radius agent, if any.  Float timebase only.
    """
    instances = list(instances)
    own_radii = [instance.r for instance in instances]
    radii_a = per_instance_option(
        own_radii if radius_a is None else radius_a, len(instances), "radius_a"
    )
    radii_b = per_instance_option(
        own_radii if radius_b is None else radius_b, len(instances), "radius_b"
    )
    # The smaller radius declares the meeting, the larger one the freeze; the
    # agent holding the larger radius freezes first (ties never freeze).
    cols, elapsed = _run_rounds(
        instances,
        algorithm,
        np.minimum(radii_a, radii_b),
        freeze=(np.maximum(radii_a, radii_b), np.where(radii_a >= radii_b, "A", "B")),
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
        base_name = _algorithm_name(algorithm)
        names = [
            base_name + f"[r_a={r_a:g}, r_b={r_b:g}]"
            for r_a, r_b in zip(radii_a.tolist(), radii_b.tolist())
        ]
        results = cols.build_results(
            instances, names, elapsed_wall_seconds=elapsed / len(instances)
        )
        outcomes = [
            AsymmetricOutcome(
                result=result, radius_a=r_a, radius_b=r_b, frozen_agent=agent or None,
                freeze_time=time if agent else None,
                freeze_distance=distance if agent else None,
            )
            for result, r_a, r_b, agent, time, distance in zip(
                results, radii_a.tolist(), radii_b.tolist(), cols.frozen_agent.tolist(),
                cols.freeze_time.tolist(), cols.freeze_distance.tolist(),
            )
        ]
        if _contracts.enabled():
            for outcome in outcomes:
                check_outcome(outcome, max_time=max_time)
    return outcomes
