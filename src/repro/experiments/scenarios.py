"""Scenario-family experiments: heterogeneous speeds and stalling agents.

Two sweeps make the new scenario families (:mod:`repro.sim.scenarios`)
measurable, mirroring the Section 5 sweep's structure (one row per
(type, grid-point) cell, vectorized by default):

**Heterogeneous speeds** — agent B's speed unit is scaled by a factor grid
spanning much-slower to much-faster partners.  The paper's model is
homogeneous (both agents cover one length unit per time unit); the sweep asks
how robust the universal algorithm's coverage is when that assumption breaks.
Expectation: rendezvous keeps succeeding across the grid — the algorithm's
phases keep performing planar searches whose scaled copies still sweep the
plane — with only the meeting time drifting.

**Stalling agents** — agent B pauses for a duration grid at an onset drawn
uniformly per instance (the ``stall`` event kind: the pause snaps to the next
segment boundary and shifts the rest of the program in time).  This is a
crash-recovery fault model: the sweep reports how much a transient stall of
growing length delays rendezvous, with the zero-duration limit recovering the
fault-free baseline.  Expectation: success rates stay flat; the mean meeting
time grows by at most roughly the stall duration.

Each sweep is a campaign spec (:func:`speed_campaign_spec`,
:func:`stalling_campaign_spec`) run by :func:`repro.experiments.sweep.run_sweep`
as checkpointed, resumable shards — in ``campaign_dir`` when one is given, in
a temporary directory otherwise.  The shards run on the vectorized batch
engine (one call per shard); ``engine="event"`` puts ``engine: "event"`` in
the spec, so every instance runs on the per-instance event engine — the
cross-check the scenario parity suite automates.  The stalling sweep's
per-instance onsets serialize as a ``stall_time_range`` arm option resolved
deterministically by stream position, so resumed campaigns stay
byte-identical.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.sampler import SamplerConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.section5 import TYPE_CLASSES
from repro.experiments.sweep import run_sweep, with_event_engine
from repro.experiments.theorem32 import DEFAULT_COVERAGE_CONFIG

#: Speed-factor grid for agent B: slower and faster partners around the
#: paper's homogeneous ``1.0``.
DEFAULT_SPEED_FACTORS = (0.5, 1.0, 2.0)

#: Stall-duration grid (absolute time units) for the faulty agent; ``0`` is
#: represented by the fault-free baseline row.
DEFAULT_STALL_DURATIONS = (2.0, 8.0)

#: Stall onsets are drawn uniformly from ``[0, DEFAULT_STALL_ONSET_MAX]``.
DEFAULT_STALL_ONSET_MAX = 20.0

#: The stored aggregates each scenario row reports.
_SCENARIO_COLUMNS = ("count", "success_rate", "meeting_time_mean", "budget_exhausted")


def _scenario_campaign_spec(
    name: str,
    arms,
    samples_per_type: int,
    seed: int,
    config: Optional[SamplerConfig],
    max_time: float,
    max_segments: int,
    radius_slack: float,
    shard_size: int,
):
    from dataclasses import asdict

    from repro.campaign import CampaignSpec

    return CampaignSpec(
        name=name,
        arms=arms,
        classes=tuple(cls.value for cls in TYPE_CLASSES),
        instances_per_cell=samples_per_type,
        seed=seed,
        sampler=asdict(config if config is not None else DEFAULT_COVERAGE_CONFIG),
        simulator={
            "max_time": max_time,
            "max_segments": max_segments,
            "radius_slack": radius_slack,
        },
        shard_size=shard_size,
    )


def speed_campaign_spec(
    samples_per_type: int = 8,
    seed: int = 29,
    *,
    factors=DEFAULT_SPEED_FACTORS,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e6,
    max_segments: int = 200_000,
    radius_slack: float = 1e-9,
    shard_size: int = 256,
):
    """The heterogeneous-speed sweep as a :class:`CampaignSpec` (one arm per factor)."""
    from repro.campaign import CampaignArm

    arms = tuple(
        CampaignArm(
            algorithm="almost-universal-compact",
            label=f"speed-{factor:g}",
            options={"speed_b": float(factor)} if factor != 1.0 else {},
        )
        for factor in factors
    )
    return _scenario_campaign_spec(
        "heterogeneous-speed", arms, samples_per_type, seed, config,
        max_time, max_segments, radius_slack, shard_size,
    )


def stalling_campaign_spec(
    samples_per_type: int = 8,
    seed: int = 31,
    *,
    durations=DEFAULT_STALL_DURATIONS,
    onset_max: float = DEFAULT_STALL_ONSET_MAX,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e6,
    max_segments: int = 200_000,
    radius_slack: float = 1e-9,
    shard_size: int = 256,
):
    """The stalling-agent sweep as a :class:`CampaignSpec`.

    A fault-free baseline arm plus one arm per stall duration; the onset is a
    ``stall_time_range`` arm option, so each instance's onset is drawn
    deterministically by stream position when the shard is built — resumable and
    partition-independent like the instances themselves.
    """
    from repro.campaign import CampaignArm

    arms = (CampaignArm(algorithm="almost-universal-compact", label="no-stall"),) + tuple(
        CampaignArm(
            algorithm="almost-universal-compact",
            label=f"stall-{duration:g}",
            options={
                "stall_agent": "B",
                "stall_time_range": [0.0, float(onset_max)],
                "stall_duration": float(duration),
            },
        )
        for duration in durations
    )
    return _scenario_campaign_spec(
        "stalling-agent", arms, samples_per_type, seed, config,
        max_time, max_segments, radius_slack, shard_size,
    )


def run_speed_ratio_experiment(
    samples_per_type: int = 8,
    seed: int = 29,
    *,
    factors=DEFAULT_SPEED_FACTORS,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e6,
    max_segments: int = 200_000,
    radius_slack: float = 1e-9,
    engine: str = "vectorized",
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Sweep agent B's speed factor across the four algorithmic types.

    One row per (type, factor) cell; ``factors`` scale agent B's speed unit
    (``1.0`` is the paper's homogeneous model).  ``engine`` picks the backend;
    the sweep runs :func:`speed_campaign_spec` as a campaign in
    ``campaign_dir`` (checkpointed, resumable) or, when ``None``, in a
    temporary directory.
    """
    if engine not in ("event", "vectorized"):
        raise ValueError(f"unknown engine {engine!r}; expected 'event' or 'vectorized'")
    spec = speed_campaign_spec(
        samples_per_type, seed, factors=factors, config=config,
        max_time=max_time, max_segments=max_segments, radius_slack=radius_slack,
    )
    if engine == "event":
        spec = with_event_engine(spec)
    result = run_sweep(spec, campaign_dir, _SCENARIO_COLUMNS, grid=("speed_b", factors))
    result.add_note(
        "Heterogeneous-speed scenario: agent B's speed unit is scaled, so it "
        "covers factor-times the ground per instruction while the program's "
        "timing is unchanged.  Expectation: success_rate stays 1.0 across the "
        "grid (budget exhaustion aside); only the meeting time drifts."
    )
    return result


def run_stalling_experiment(
    samples_per_type: int = 8,
    seed: int = 31,
    *,
    durations=DEFAULT_STALL_DURATIONS,
    onset_max: float = DEFAULT_STALL_ONSET_MAX,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e6,
    max_segments: int = 200_000,
    radius_slack: float = 1e-9,
    engine: str = "vectorized",
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Sweep the faulty agent's stall duration across the four types.

    A fault-free baseline row plus one row per (type, duration) cell.  Agent
    B stalls once, for ``duration`` time units, at an onset drawn uniformly
    from ``[0, onset_max]`` per instance, keyed by stream position (so
    deterministic in ``seed``).  The sweep runs
    :func:`stalling_campaign_spec` as a campaign in ``campaign_dir``
    (resumed runs stay byte-identical) or, when ``None``, in a temporary
    directory.
    """
    if engine not in ("event", "vectorized"):
        raise ValueError(f"unknown engine {engine!r}; expected 'event' or 'vectorized'")
    spec = stalling_campaign_spec(
        samples_per_type, seed, durations=durations, onset_max=onset_max,
        config=config, max_time=max_time, max_segments=max_segments,
        radius_slack=radius_slack,
    )
    if engine == "event":
        spec = with_event_engine(spec)
    result = run_sweep(
        spec, campaign_dir, _SCENARIO_COLUMNS,
        grid=("stall_duration", (0.0,) + tuple(durations)),
    )
    result.add_note(
        f"Stall durations = {(0.0,) + tuple(durations)} (0.0 = fault-free "
        f"baseline), onsets uniform in [0, {onset_max:g}]."
    )
    result.add_note(
        "Stalling-agent scenario: agent B pauses once at the first segment "
        "boundary at or after its onset, then resumes its program shifted in "
        "time.  Expectation: success_rate matches the baseline and the mean "
        "meeting time grows by at most roughly the stall duration."
    )
    return result
