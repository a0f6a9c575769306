"""Section 5 experiment: rendezvous under asymmetric visibility radii.

Section 5 of the paper sketches the generalization to per-agent radii
``r_1 >= r_2``: rendezvous means reaching the *smaller* radius, an agent
freezes the moment the distance reaches its *own* radius, and the paper
argues that every result survives because each phase of ``AlmostUniversalRV``
keeps performing a planar search that eventually drags the still-moving agent
within the smaller radius.

This experiment makes that claim measurable as a sweep: instances of the four
algorithmic types, each simulated under a grid of radius ratios
``r_b / r_a`` (from the symmetric ``1.0`` down to strongly asymmetric), with
the universal algorithm.  Per (type, ratio) cell it reports the success rate,
how often the larger-radius agent froze before the meeting, and the mean
meeting and freeze times.  The expectation mirrored from the paper: the
success rate stays 1.0 across the whole grid (budget exhaustion aside), only
the meeting gets later as the meeting radius shrinks.

The campaign runs on the vectorized batch engine by default
(:func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric`, the freeze-
aware entry point of the one batch driver of :mod:`repro.sim.batch`, one
batched call per (type, ratio) cell); ``engine="event"`` drives the
per-instance event engine instead, which is the cross-check the asymmetric
parity suite automates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.schedules import CompactSchedule, Schedule
from repro.analysis.sampler import InstanceSampler, SamplerConfig
from repro.core.classification import InstanceClass
from repro.experiments.report import ExperimentResult
from repro.experiments.theorem32 import DEFAULT_COVERAGE_CONFIG
from repro.sim.asymmetric import simulate_asymmetric
from repro.sim.batch_asymmetric import simulate_batch_asymmetric

#: The four algorithmic types of Section 3.1.1 — the instances Theorem 3.2
#: covers, and therefore the instances whose Section 5 behaviour the paper
#: predicts.
TYPE_CLASSES = (
    InstanceClass.TYPE_1,
    InstanceClass.TYPE_2,
    InstanceClass.TYPE_3,
    InstanceClass.TYPE_4,
)

#: Radius-ratio grid ``r_b / r_a``: the symmetric degenerate case first, then
#: increasingly asymmetric.  ``r_a`` is each instance's own ``r``.
DEFAULT_RATIOS = (1.0, 0.5, 0.25)


def asymmetric_campaign_spec(
    samples_per_type: int = 8,
    seed: int = 17,
    *,
    ratios=DEFAULT_RATIOS,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e6,
    max_segments: int = 200_000,
    radius_slack: float = 1e-9,
    shard_size: int = 256,
):
    """The Section 5 sweep as a :class:`~repro.campaign.spec.CampaignSpec`.

    One arm per radius ratio: the ``radius_b_ratio`` arm option resolves
    against each sampled instance's own ``r`` at task-build time, so the
    whole ratio grid serializes without knowing the instances — and every
    arm simulates the *identical* per-type instance stream (instances are
    keyed by class position, not by arm), keeping ratios comparable row for
    row just like the in-memory sweep.
    """
    from dataclasses import asdict

    from repro.campaign import CampaignArm, CampaignSpec

    arms = tuple(
        CampaignArm(
            algorithm="almost-universal-compact",
            label=f"ratio-{ratio:g}",
            options={"radius_a_ratio": 1.0, "radius_b_ratio": float(ratio)},
        )
        for ratio in ratios
    )
    return CampaignSpec(
        name="section-5-asymmetric-radii",
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


def _campaign_asymmetric_result(campaign_dir: str, spec, ratios) -> ExperimentResult:
    """Assemble the sweep table from a campaign directory's stored columns."""
    from repro.campaign import status_rows

    status = status_rows(campaign_dir)
    by_label = {
        (cell["arm"], cell["class"]): cell for cell in status["cells"]
    }
    rows: List[Dict[str, object]] = []
    for cls in TYPE_CLASSES:
        for ratio in ratios:
            cell = by_label[(f"ratio-{ratio:g}", cls.value)]
            rows.append(
                {
                    "label": cls.value,
                    "ratio": ratio,
                    "count": cell["count"],
                    "success_rate": cell["success_rate"],
                    "freeze_rate": cell["freeze_rate"],
                    "meeting_time_mean": cell["meeting_time_mean"],
                    "freeze_time_mean": cell["freeze_time_mean"],
                    "budget_exhausted": cell["budget_exhausted"],
                }
            )
    result = ExperimentResult(name="section-5-asymmetric-radii", rows=rows)
    result.add_note(
        f"Campaign mode: columns stored under {campaign_dir} "
        f"[{status['digest']}]; re-running resumes instead of recomputing."
    )
    result.add_note(
        f"Ratios r_b/r_a = {tuple(ratios)}; budgets: "
        f"max_time={spec.simulator['max_time']:g}, "
        f"max_segments={spec.simulator['max_segments']}."
    )
    return result


def run_asymmetric_radius_experiment(
    samples_per_type: int = 8,
    seed: int = 17,
    *,
    ratios=DEFAULT_RATIOS,
    schedule: Optional[Schedule] = None,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e6,
    max_segments: int = 200_000,
    radius_slack: float = 1e-9,
    engine: str = "vectorized",
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the Section 5 asymmetric-radius sweep and return its table.

    One row per (type, ratio) cell.  ``ratios`` are ``r_b / r_a`` values with
    ``r_a = instance.r``; ``engine`` picks the backend (``"vectorized"``
    batches each cell through the asymmetric batch engine, ``"event"`` loops
    the per-instance event engine).  Budgets and the ``radius_slack``
    meeting tolerance mirror the other Monte-Carlo experiments.

    ``campaign_dir`` routes the sweep through the campaign orchestrator: the
    (type, ratio) grid executes as checkpointed shards under that directory —
    resumable, durable, aggregated by streaming the stored columns.  Requires
    the default schedule (the spec serializes algorithms by registry name).
    """
    if engine not in ("event", "vectorized"):
        raise ValueError(f"unknown engine {engine!r}; expected 'event' or 'vectorized'")
    if campaign_dir is not None:
        if engine == "event":
            # The campaign router sends float-timebase tasks to the
            # vectorized engine; silently ignoring an explicit event-engine
            # cross-check request would hand back the wrong evidence.
            raise ValueError(
                "campaign mode routes float-timebase shards through the "
                "vectorized engine; use engine='event' without campaign_dir "
                "for the per-instance event cross-check"
            )
        if schedule is not None:
            raise ValueError(
                "campaign mode serializes the spec; custom schedule objects "
                "have no registry name — use schedule=None"
            )
        from repro.campaign import run_campaign

        spec = asymmetric_campaign_spec(
            samples_per_type,
            seed,
            ratios=ratios,
            config=config,
            max_time=max_time,
            max_segments=max_segments,
            radius_slack=radius_slack,
        )
        run_campaign(campaign_dir, spec)
        return _campaign_asymmetric_result(campaign_dir, spec, ratios)
    sampler = InstanceSampler(
        config if config is not None else DEFAULT_COVERAGE_CONFIG, seed
    )
    algorithm = AlmostUniversalRV(schedule if schedule is not None else CompactSchedule())

    rows: List[Dict[str, object]] = []
    budget_hits = 0
    for cls in TYPE_CLASSES:
        instances = sampler.batch_of_class(cls, samples_per_type)
        for ratio in ratios:
            radii_a = [instance.r for instance in instances]
            radii_b = [instance.r * ratio for instance in instances]
            if engine == "vectorized":
                outcomes = simulate_batch_asymmetric(
                    instances,
                    algorithm,
                    radius_a=radii_a,
                    radius_b=radii_b,
                    max_time=max_time,
                    max_segments=max_segments,
                    radius_slack=radius_slack,
                )
            else:
                outcomes = [
                    simulate_asymmetric(
                        instance,
                        algorithm,
                        radius_a=r_a,
                        radius_b=r_b,
                        max_time=max_time,
                        max_segments=max_segments,
                        radius_slack=radius_slack,
                    )
                    for instance, r_a, r_b in zip(instances, radii_a, radii_b)
                ]
            met = [outcome for outcome in outcomes if outcome.met]
            frozen = [
                outcome for outcome in outcomes if outcome.frozen_agent is not None
            ]
            unresolved = len(outcomes) - len(met)
            budget_hits += unresolved
            rows.append(
                {
                    "label": cls.value,
                    "ratio": ratio,
                    "count": len(outcomes),
                    "success_rate": len(met) / len(outcomes),
                    "freeze_rate": len(frozen) / len(outcomes),
                    "meeting_time_mean": (
                        float(np.mean([o.meeting_time for o in met])) if met else None
                    ),
                    "freeze_time_mean": (
                        float(np.mean([o.freeze_time for o in frozen]))
                        if frozen
                        else None
                    ),
                    "budget_exhausted": unresolved,
                }
            )

    result = ExperimentResult(name="section-5-asymmetric-radii", rows=rows)
    result.add_note(
        f"Algorithm: {algorithm.name}; engine={engine}; ratios r_b/r_a = "
        f"{tuple(ratios)}; budgets: max_time={max_time:g}, max_segments={max_segments}."
    )
    result.add_note(
        "Section 5 claim: the universal algorithm keeps achieving rendezvous under "
        "asymmetric radii — success_rate should stay 1.0 for every ratio, with the "
        "meeting only getting later as the meeting radius shrinks; rows with "
        "budget_exhausted > 0 are simulations cut short by the budget, not "
        "counterexamples."
    )
    result.add_note(
        "freeze_rate is the fraction of runs in which the larger-radius agent saw "
        "the other one and froze strictly before the meeting (always 0.0 at ratio 1.0)."
    )
    return result
