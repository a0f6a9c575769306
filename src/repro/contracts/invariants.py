"""The repo's declared invariants, plus the checker helpers that apply them.

Declarations live here so the registry is complete the moment
``repro.contracts`` imports — ``repro contracts list`` and the coverage
plugin see every invariant without importing the instrumented modules.  The
checks themselves run at the seams:

- kernel contracts — inside
  :func:`~repro.geometry.closest_approach.solve_windows`, the fused kernel's
  one implementation, and inside ``solve_round``'s sampled re-solve under
  another tile size;
- the program contract — inside ``LocalProgramBuilder``, which re-derives a
  sample of natively generated column blocks through the instruction objects;
- engine contracts — at the four engine exits (event/batch × symmetric/
  asymmetric) via :func:`check_result` / :func:`check_outcome`;
- parity contracts — from the differential test suites via
  :func:`check_engine_parity` / :func:`check_outcome_parity` (these helpers
  run their predicates unconditionally and return the verdict, so parity
  tests can assert on them in any mode);
- store/campaign/lease contracts — inline in :mod:`repro.campaign`.

This module deliberately imports only numpy and :mod:`repro.contracts.core`
(never the engines), so instrumented modules can import it without cycles.

Tolerances: engines guarantee each other 1e-9-relative agreement (the
engine-parity contracts), and the kernel's ``sqrt(x*x + y*y)``
distance differs from an exact hypot by ulps.  ``_REL = 1e-9`` /
``_ABS = 1e-9`` below absorb exactly that class of rounding, nothing more.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.contracts.core import declare

__all__ = [
    "check_engine_parity",
    "check_kernel_solution",
    "check_outcome",
    "check_outcome_parity",
    "check_recovery_identity",
    "check_result",
]

_REL = 1e-9
_ABS = 1e-9

# -- kernel seams ----------------------------------------------------------------

KERNEL_MIN_NONNEG = declare(
    "kernel.min_distance_nonneg",
    "every tracked window's closest approach is finite and >= 0, reached at "
    "an offset inside [0, duration]",
)
KERNEL_MIN_LEQ_ENDPOINTS = declare(
    "kernel.min_leq_endpoints",
    "a window's closest approach never exceeds the distance at either window "
    "endpoint (up to rounding)",
)
KERNEL_HIT_WITHIN_WINDOW = declare(
    "kernel.hit_within_window",
    "every reported first-hit offset lies inside [0, duration]; windows that "
    "never reach the radius report NaN",
)
KERNEL_CHUNK_PARITY = declare(
    "kernel.chunk_parity",
    "solve_round produces bit-identical solutions under any tile size",
)

# -- program seams ---------------------------------------------------------------

PROGRAM_COLUMNS_PARITY = declare(
    "program.columns_parity",
    "a natively generated column block is bit-identical to the Move/Wait "
    "stream it stands for (displacements through Move.rotated, durations "
    "through Move.length)",
)

# -- engine seams ----------------------------------------------------------------

ENGINE_CLOSEST_LEQ_INITIAL = declare(
    "engine.closest_leq_initial",
    "a tracked closest approach never exceeds the agents' initial distance "
    "(the t=0 endpoint of the first window)",
)
ENGINE_MEETING_WITHIN_BUDGET = declare(
    "engine.meeting_within_budget",
    "met implies a meeting time in [0, max_time]",
)
ENGINE_VERDICT_MATCHES_TERMINATION = declare(
    "engine.verdict_matches_termination",
    "met is true exactly when termination is RENDEZVOUS",
)
ENGINE_BUDGET_CUTOFF = declare(
    "engine.budget_cutoff",
    "a MAX_TIME/MAX_SEGMENTS termination implies no meeting and a simulated "
    "time within the max_time budget",
)
ENGINE_FREEZE_MONOTONE = declare(
    "engine.freeze_monotone",
    "a freeze names the strictly-larger-radius agent, carries consistent "
    "freeze fields, and precedes any meeting",
)

# -- engine-vs-engine parity ------------------------------------------------------

PARITY_VERDICT = declare(
    "parity.verdict",
    "event and vectorized engines agree on met and termination for the same "
    "instance and algorithm",
)
PARITY_MEETING_TIME = declare(
    "parity.meeting_time",
    "event and vectorized engines agree on the meeting time to 1e-9 relative",
)
PARITY_MIN_DISTANCE = declare(
    "parity.min_distance",
    "event and vectorized engines agree on the closest approach to 1e-9 "
    "relative",
)
PARITY_FREEZE = declare(
    "parity.freeze",
    "event and vectorized asymmetric engines agree on the frozen agent, "
    "freeze time and freeze distance",
)

# -- campaign store / orchestrator / leases ---------------------------------------

STORE_MANIFEST_MATCHES_DATA = declare(
    "store.manifest_matches_data",
    "a shard's manifest record matches the written npz byte-for-byte "
    "(checksum and row count re-derived from disk)",
)
STORE_SHARD_ROUNDTRIP = declare(
    "store.shard_roundtrip",
    "reloading a just-written shard yields bit-identical columns",
)
CAMPAIGN_RESUME_NO_RECOMPUTE = declare(
    "campaign.resume_no_recompute",
    "a campaign run never executes a shard the manifest recorded as complete "
    "when the run began",
)
LEASE_RELEASE_OWN_ONLY = declare(
    "lease.release_own_only",
    "a worker only ever deletes lease files carrying its own owner id",
)

# -- service layer (job queue / daemon) -------------------------------------------

QUEUE_JOURNAL_MONOTONIC = declare(
    "queue.journal_monotonic",
    "job state transitions recorded in the service journal only move forward "
    "(submitted -> running -> complete | quarantined); terminal states are "
    "final",
)
QUEUE_DIGEST_DEDUP = declare(
    "queue.digest_dedup_single_store",
    "two submissions of one spec digest share a single job and a single "
    "store directory",
)
SERVICE_RECOVER_RESUME_IDENTITY = declare(
    "service.recover_resume_identity",
    "a campaign resumed after crash recovery (doctor --repair, then resume) "
    "recomputes zero finished shards and exports columns byte-identical to "
    "an uninterrupted run",
)

# -- scenario layer ---------------------------------------------------------------

SCENARIO_SPEED_SCALING = declare(
    "scenario.speed_scaling",
    "heterogeneous-speed scaling multiplies an agent's speed unit by the "
    "declared positive finite factor and leaves every other unit and frame "
    "parameter unchanged",
)
SCENARIO_STALL_SEGMENT = declare(
    "scenario.stall_segment",
    "a stalling-agent transform inserts exactly one zero-velocity segment of "
    "the declared duration at the first segment boundary at or after the "
    "onset, shifting later segments by the stall and leaving earlier motion "
    "untouched",
)


# -- kernel checkers --------------------------------------------------------------

def check_kernel_solution(
    hit: np.ndarray,
    second_hit: Optional[np.ndarray],
    min_distance: Optional[np.ndarray],
    t_star: Optional[np.ndarray],
    rel_x: np.ndarray,
    rel_y: np.ndarray,
    rvel_x: np.ndarray,
    rvel_y: np.ndarray,
    durations: np.ndarray,
) -> None:
    """Apply the per-window kernel contracts to one ``solve`` call's output.

    Each contract fires once per kernel call (conditions are reduced over all
    windows), keeping counter overhead off the per-element path.
    """
    in_window = np.isnan(hit) | ((hit >= 0.0) & (hit <= durations))
    hits_ok = bool(np.all(in_window))
    if second_hit is not None and second_hit is not hit:
        in_window2 = np.isnan(second_hit) | (
            (second_hit >= 0.0) & (second_hit <= durations)
        )
        hits_ok = hits_ok and bool(np.all(in_window2))
    KERNEL_HIT_WITHIN_WINDOW.check(hits_ok, "first-hit offset outside window")

    if min_distance is None or t_star is None:
        return
    nonneg = (
        bool(np.all(np.isfinite(min_distance)))
        and bool(np.all(min_distance >= 0.0))
        and bool(np.all((t_star >= 0.0) & (t_star <= durations)))
    )
    KERNEL_MIN_NONNEG.check(nonneg, "closest approach negative or off-window")

    start_sq = rel_x * rel_x + rel_y * rel_y
    end_x = rel_x + rvel_x * durations
    end_y = rel_y + rvel_y * durations
    end_sq = end_x * end_x + end_y * end_y
    endpoint = np.sqrt(np.minimum(start_sq, end_sq))
    bound = endpoint + _REL * endpoint + _ABS
    KERNEL_MIN_LEQ_ENDPOINTS.check(
        bool(np.all(min_distance <= bound)),
        "closest approach exceeds a window-endpoint distance",
    )


# -- engine checkers --------------------------------------------------------------

def _leq(value: float, bound: float) -> bool:
    return value <= bound + _REL * abs(bound) + _ABS


def check_result(result, *, max_time: float) -> None:
    """Apply the engine contracts to one :class:`SimulationResult`."""
    ENGINE_VERDICT_MATCHES_TERMINATION.check(
        result.met == (result.termination.value == "rendezvous"),
        f"met={result.met} termination={result.termination.value}",
    )
    ENGINE_MEETING_WITHIN_BUDGET.check(
        not result.met
        or (
            result.meeting_time is not None
            and result.meeting_time >= 0.0
            and _leq(result.meeting_time, max_time)
        ),
        f"meeting_time={result.meeting_time} max_time={max_time}",
    )
    ENGINE_BUDGET_CUTOFF.check(
        result.termination.value not in ("max-time", "max-segments")
        or (not result.met and _leq(result.simulated_time, max_time)),
        f"termination={result.termination.value} "
        f"simulated_time={result.simulated_time} max_time={max_time}",
    )
    initial = math.hypot(result.instance.x, result.instance.y)
    ENGINE_CLOSEST_LEQ_INITIAL.check(
        not math.isfinite(result.min_distance) or _leq(result.min_distance, initial),
        f"min_distance={result.min_distance} initial={initial}",
    )


def check_outcome(outcome, *, max_time: float) -> None:
    """Apply the engine + freeze contracts to one :class:`AsymmetricOutcome`."""
    check_result(outcome.result, max_time=max_time)
    if outcome.frozen_agent is None:
        freeze_ok = outcome.freeze_time is None and outcome.freeze_distance is None
    else:
        frozen_radius, other_radius = (
            (outcome.radius_a, outcome.radius_b)
            if outcome.frozen_agent == "A"
            else (outcome.radius_b, outcome.radius_a)
        )
        freeze_ok = (
            outcome.frozen_agent in ("A", "B")
            and frozen_radius > other_radius
            and outcome.freeze_time is not None
            and outcome.freeze_time >= 0.0
            and (
                not outcome.met
                or (
                    outcome.meeting_time is not None
                    and _leq(outcome.freeze_time, outcome.meeting_time)
                )
            )
        )
    ENGINE_FREEZE_MONOTONE.check(
        freeze_ok,
        f"frozen={outcome.frozen_agent} freeze_time={outcome.freeze_time} "
        f"meeting_time={outcome.meeting_time}",
    )


# -- service checkers -------------------------------------------------------------

def check_recovery_identity(reference, recovered, *, rows_recomputed: int) -> bool:
    """Check the recover-then-resume byte-identity contract on two exports.

    ``reference`` and ``recovered`` are column dicts
    (:meth:`~repro.campaign.store.CampaignStore.export_columns`) of an
    uninterrupted run and a crash-recovered one.  Like the parity helpers,
    the predicate always runs and the verdict is returned, so recovery tests
    can ``assert check_recovery_identity(...)`` in any mode.
    """
    identical = set(reference) == set(recovered) and all(
        np.array_equal(
            np.asarray(reference[name]),
            np.asarray(recovered[name]),
            equal_nan=bool(
                np.issubdtype(np.asarray(reference[name]).dtype, np.floating)
            ),
        )
        for name in reference
    )
    return SERVICE_RECOVER_RESUME_IDENTITY.check(
        identical and rows_recomputed == 0,
        f"identical={identical} rows_recomputed={rows_recomputed}",
    )


# -- parity checkers --------------------------------------------------------------

def _agree(a: Optional[float], b: Optional[float], rel: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= _ABS + rel * max(abs(a), abs(b))


def check_engine_parity(event, batch, *, rel: float = _REL) -> bool:
    """Check the symmetric engine-parity contracts between two results.

    Predicates always run (no mode guard) and the conjunction is returned, so
    differential tests can ``assert check_engine_parity(...)`` and still fail
    in ``off``/``check`` modes where nothing raises.
    """
    ok = PARITY_VERDICT.check(
        event.met == batch.met and event.termination == batch.termination,
        f"event=({event.met}, {event.termination.value}) "
        f"batch=({batch.met}, {batch.termination.value})",
    )
    ok &= PARITY_MEETING_TIME.check(
        _agree(event.meeting_time, batch.meeting_time, rel),
        f"event={event.meeting_time} batch={batch.meeting_time}",
    )
    min_a, min_b = event.min_distance, batch.min_distance
    ok &= PARITY_MIN_DISTANCE.check(
        _agree(min_a, min_b, rel),
        f"event={min_a} batch={min_b}",
    )
    return bool(ok)


def check_outcome_parity(event, batch, *, rel: float = _REL) -> bool:
    """Check symmetric parity plus the freeze-parity contract on two
    :class:`AsymmetricOutcome` objects."""
    ok = check_engine_parity(event.result, batch.result, rel=rel)
    ok &= PARITY_FREEZE.check(
        event.frozen_agent == batch.frozen_agent
        and _agree(event.freeze_time, batch.freeze_time, rel)
        and _agree(event.freeze_distance, batch.freeze_distance, rel),
        f"event=({event.frozen_agent}, {event.freeze_time}, {event.freeze_distance}) "
        f"batch=({batch.frozen_agent}, {batch.freeze_time}, {batch.freeze_distance})",
    )
    return bool(ok)
