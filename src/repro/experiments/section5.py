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

The sweep is :func:`asymmetric_campaign_spec`, one arm per ratio, run as a
campaign by :func:`repro.experiments.sweep.run_sweep`.  Its shards run on the
vectorized batch engine (the freeze-aware entry point of
:mod:`repro.sim.batch_asymmetric`, one batched call per shard);
``engine="event"`` puts ``engine: "event"`` in the spec, so every instance
runs on the per-instance event engine instead, which is the cross-check the
asymmetric parity suite automates.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.sampler import SamplerConfig
from repro.core.classification import InstanceClass
from repro.experiments.report import ExperimentResult
from repro.experiments.sweep import run_sweep, with_event_engine
from repro.experiments.theorem32 import DEFAULT_COVERAGE_CONFIG

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
    against each sampled instance's own ``r`` when the shard is built, so the
    whole ratio grid serializes without knowing the instances — and every
    arm simulates the *identical* per-type instance stream (instances are
    keyed by class position, not by arm), keeping ratios comparable row for
    row.
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


def run_asymmetric_radius_experiment(
    samples_per_type: int = 8,
    seed: int = 17,
    *,
    ratios=DEFAULT_RATIOS,
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
    batches each shard through the batch driver, ``"event"`` runs every
    instance on the event engine).  Budgets and the ``radius_slack`` meeting
    tolerance mirror the other Monte-Carlo experiments.

    The sweep runs :func:`asymmetric_campaign_spec` as a campaign in
    ``campaign_dir`` (resumable and durable) or, when ``None``, in a
    temporary directory.
    """
    if engine not in ("event", "vectorized"):
        raise ValueError(f"unknown engine {engine!r}; expected 'event' or 'vectorized'")
    spec = asymmetric_campaign_spec(
        samples_per_type,
        seed,
        ratios=ratios,
        config=config,
        max_time=max_time,
        max_segments=max_segments,
        radius_slack=radius_slack,
    )
    if engine == "event":
        spec = with_event_engine(spec)
    result = run_sweep(
        spec,
        campaign_dir,
        ("count", "success_rate", "freeze_rate", "meeting_time_mean",
         "freeze_time_mean", "budget_exhausted"),
        grid=("ratio", ratios),
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
