"""Analytical phase bounds from the correctness proofs of Section 3.

The proofs of Lemmas 3.2-3.5 do not just show that ``AlmostUniversalRV``
eventually meets — they exhibit, for every covered instance, an explicit phase
``i`` by the end of which rendezvous is guaranteed.  This module transcribes
those formulas:

* :func:`type1_phase_bound` — Lemma 3.2's ``i = sigma + omega``;
* :func:`type2_phase_bound` — Lemma 3.3's ``i = ceil(log2(t + Delta))`` with
  ``Delta`` the completion time of the ``Latecomers`` sub-procedure;
* :func:`type3_phase_bound` — Lemma 3.4's
  ``i = ceil(log2(tauX/(tauY-tauX) + tauY/tauX + uX/r + dist/uX + t))``;
* :func:`type4_phase_bound` — Lemma 3.5's ``i = ceil(log2(t + Delta + 4(v+1)/r))``
  with ``Delta`` the completion time of the ``CGKK`` sub-procedure.

Because this reproduction substitutes its own ``CGKK``/``Latecomers``
constructions (DESIGN.md §3), the ``Delta`` terms are bounds for *those*
constructions, computed from their probe schedules.  The bounds are safe but
often loose — the simulator typically meets much earlier — which is exactly
what :func:`estimate_simulation_cost` quantifies: it converts a phase bound
into the worst-case number of trajectory segments a simulation may need, the
quantity that decides whether a run fits a budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.cgkk import (
    cgkk_meeting_phase_bound,
    cgkk_supported,
)
from repro.algorithms.cow_walk import (
    linear_cow_walk_segment_count,
    planar_cow_walk_duration,
    planar_cow_walk_segment_count,
)
from repro.algorithms.latecomers import (
    latecomers_meeting_phase_bound,
    latecomers_supported,
)
from repro.algorithms.schedules import PaperSchedule, Schedule
from repro.core.canonical import projection_distance
from repro.core.classification import InstanceClass, classify
from repro.core.instance import Instance


# ---------------------------------------------------------------------------------
# Completion-time bounds of the substitute sub-procedures
# ---------------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _probe_phase_sums(phase: int) -> Tuple[int, float]:
    """``(count, sum of 2|u|)`` over the probe guesses ``u`` of one phase.

    Enumeration phase ``k`` of both substitutes probes every nonzero point
    of the dyadic disc of :func:`~repro.util.dyadic.dyadic_ball_grid` with
    resolution ``k - 1`` and extent ``2**(k - 1)``, nearest first.  The
    order does not matter to a sum, so the disc is summed row by row with
    numpy — the same points, by the same ``x*x + y*y <= extent**2 + 1e-12``
    test — and the row totals with ``math.fsum``: no list of points is
    built and nothing is sorted (phase 7 alone has about 5e7 points).
    """
    resolution = phase - 1
    extent = 2 ** (phase - 1)
    reach = extent << resolution
    axis = np.arange(-reach, reach + 1) * (1.0 / (1 << resolution))
    squares = axis * axis
    radius_sq = float(extent) * float(extent) + 1e-12
    count = 0
    rows = []
    for x in axis.tolist():
        inside = axis[x * x + squares <= radius_sq]
        count += inside.shape[0]
        rows.append(float(np.hypot(x, inside).sum()))
    # The origin is inside every disc but never probed; its norm adds 0.
    return count - 1, 2.0 * math.fsum(rows)


def latecomers_completion_bound(instance: Instance) -> float:
    """Local time by which the solo ``Latecomers`` run has met (its ``Delta``).

    Sums the cost of every probe up to and including the enumeration phase
    returned by :func:`latecomers_meeting_phase_bound`; a probe with guess
    ``w`` in phase ``k`` costs ``2**k + 2 |w|`` local time units.
    """
    phase_bound = latecomers_meeting_phase_bound(instance)
    totals = []
    for phase in range(1, phase_bound + 1):
        count, norms = _probe_phase_sums(phase)
        totals.append(count * 2.0**phase + norms)
    return math.fsum(totals)


def cgkk_completion_bound(instance: Instance) -> float:
    """Local time by which the solo ``CGKK`` run has met (its ``Delta``).

    A probe with guess ``u`` costs ``2 |u|`` (out and back); summed over
    every phase up to :func:`cgkk_meeting_phase_bound`.
    """
    if not cgkk_supported(instance):
        raise ValueError("instance outside the CGKK substitute's contract")
    phase_bound = cgkk_meeting_phase_bound(instance)
    return math.fsum(
        _probe_phase_sums(phase)[1] for phase in range(1, phase_bound + 1)
    )


# ---------------------------------------------------------------------------------
# Per-type phase bounds (Lemmas 3.2 - 3.5)
# ---------------------------------------------------------------------------------


def type1_phase_bound(instance: Instance) -> int:
    """Lemma 3.2: ``i = sigma + omega`` for type-1 instances."""
    proj = projection_distance(instance)
    r, t = instance.r, instance.t
    e = t - proj + r
    if e <= 0.0:
        raise ValueError("not a type-1 instance: t <= dist(projA, projB) - r")
    distance = instance.initial_distance
    margin = min(r, e)
    sigma_arg = (
        t
        + r
        + e
        + distance
        + 8.0 / margin
        + math.pi / math.asin(margin / (16.0 * (t + r + e + 1.0)))
    )
    sigma = math.ceil(math.log2(sigma_arg))
    threshold = proj - r + e / 2.0
    if threshold > 0.0:
        omega = math.ceil(math.log2(math.pi / math.acos(threshold / t)))
    else:
        omega = 1
    return max(1, sigma + max(1, omega))


def type2_phase_bound(instance: Instance) -> int:
    """Lemma 3.3: ``i = ceil(log2(t + Delta))`` with Delta from Latecomers."""
    if not latecomers_supported(instance):
        raise ValueError("not a type-2 instance")
    delta = latecomers_completion_bound(instance)
    return max(1, math.ceil(math.log2(instance.t + delta)))


def type3_phase_bound(instance: Instance) -> int:
    """Lemma 3.4's phase for instances with different clock rates."""
    tau_b = instance.tau
    if abs(tau_b - 1.0) <= 1e-12:
        raise ValueError("not a type-3 instance: tau = 1")
    tau_min, tau_max = min(1.0, tau_b), max(1.0, tau_b)
    fast_unit = tau_b * instance.v if tau_b < 1.0 else 1.0
    value = (
        tau_min / (tau_max - tau_min)
        + tau_max / tau_min
        + fast_unit / instance.r
        + instance.initial_distance / fast_unit
        + instance.t
    )
    return max(1, math.ceil(math.log2(value)))


def type4_phase_bound(instance: Instance) -> int:
    """Lemma 3.5: ``i = ceil(log2(t + Delta + 4(v+1)/r))`` for type-4 instances."""
    image = instance.halved_radius_no_delay()
    delta = cgkk_completion_bound(image)
    value = instance.t + delta + 4.0 * (instance.v + 1.0) / instance.r
    return max(1, math.ceil(math.log2(value)))


def universal_phase_bound(instance: Instance) -> Optional[int]:
    """Phase by which ``AlmostUniversalRV`` is guaranteed to have met.

    Returns ``None`` for instances outside Theorem 3.2's coverage (trivial
    instances return 0: they are met before the algorithm moves at all).
    """
    cls = classify(instance)
    if cls is InstanceClass.TRIVIAL:
        return 0
    if cls is InstanceClass.TYPE_1:
        return type1_phase_bound(instance)
    if cls is InstanceClass.TYPE_2:
        return type2_phase_bound(instance)
    if cls is InstanceClass.TYPE_3:
        return type3_phase_bound(instance)
    if cls is InstanceClass.TYPE_4:
        return type4_phase_bound(instance)
    return None


# ---------------------------------------------------------------------------------
# Simulation-cost estimates
# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseCost:
    """Worst-case cost of executing one full phase of Algorithm 1."""

    phase: int
    segments: int
    local_duration: float


def phase_cost(phase: int, schedule: Optional[Schedule] = None) -> PhaseCost:
    """Segment count and local duration of phase ``i`` of Algorithm 1.

    The segment count is exact for blocks 1 and 3 (planar walks) and an upper
    bound for blocks 2 and 4, whose sub-procedures emit at most one
    instruction per local time unit plus the interleaved waits.
    """
    schedule = schedule if schedule is not None else PaperSchedule()
    resolution = schedule.planar_resolution(phase)
    planar_segments = planar_cow_walk_segment_count(resolution)
    planar_duration = planar_cow_walk_duration(resolution)

    def safe(value_fn) -> float:
        # The paper schedule's block-3 wait is 2**(15 i^2): beyond phase 8 it
        # exceeds the float range.  For cost *estimates* infinity is the right
        # answer (such a phase cannot be simulated to completion anyway).
        try:
            return float(value_fn())
        except OverflowError:
            return math.inf

    block1_segments = schedule.rotations(phase) * planar_segments
    block1_duration = schedule.rotations(phase) * planar_duration

    # Block 2: one wait, a Latecomers prefix (at most one move/wait per time
    # unit, each of duration >= 1 in the probe schedule), and its backtrack.
    block2_segments = 1 + 2 * math.ceil(schedule.block2_run(phase)) * 2
    block2_duration = schedule.block2_wait(phase) + 2.0 * schedule.block2_run(phase)

    block3_segments = 1 + planar_segments
    block3_duration = safe(lambda: schedule.block3_wait(phase)) + planar_duration

    chunks = math.ceil(schedule.block4_run(phase) / schedule.block4_chunk(phase))
    block4_segments = chunks * 3 + 2 * math.ceil(schedule.block4_run(phase)) * 2
    block4_duration = (
        2.0 * schedule.block4_run(phase) + chunks * schedule.block4_wait(phase)
    )

    return PhaseCost(
        phase=phase,
        segments=block1_segments + block2_segments + block3_segments + block4_segments,
        local_duration=block1_duration + block2_duration + block3_duration + block4_duration,
    )


def estimate_simulation_cost(
    instance: Instance, schedule: Optional[Schedule] = None
) -> Optional[PhaseCost]:
    """Worst-case cumulative cost of simulating ``AlmostUniversalRV`` on ``instance``.

    Returns the cumulative segment count and local duration through the phase
    bound of the instance's type, or ``None`` when the instance is not covered
    (boundary / infeasible instances have no bound).  This is the number the
    experiments use to size ``max_segments`` budgets.
    """
    bound = universal_phase_bound(instance)
    if bound is None:
        return None
    segments = 0
    duration = 0.0
    for phase in range(1, bound + 1):
        cost = phase_cost(phase, schedule)
        segments += cost.segments
        duration += cost.local_duration
    return PhaseCost(phase=bound, segments=segments, local_duration=duration)
