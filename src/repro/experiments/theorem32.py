"""THM-3.2 experiment: coverage of ``AlmostUniversalRV`` across the four types.

Theorem 3.2 states that the single algorithm ``AlmostUniversalRV`` achieves
rendezvous on every instance that is non-synchronous or satisfies one of the
strict-inequality clauses — i.e. on every feasible instance outside the
exception sets S1/S2.  The experiment samples instances of each of the four
algorithmic types (Section 3.1.1) and simulates the algorithm on them,
reporting the success rate, the meeting time and the amount of simulation work
per type.  The sweep is :func:`coverage_campaign_spec`, one arm over the four
types, run as a campaign by :func:`repro.experiments.sweep.run_sweep` — kept
in a campaign directory when one is given, in a temporary one otherwise.

Simulation budgets matter here: the paper's constants make deep phases
astronomically long, so a bounded simulation can only *confirm* rendezvous for
instances it catches within the budget; each row therefore reports
``budget_exhausted`` so budget exhaustion is distinguishable from a genuine miss
(which Theorem 3.2 says cannot happen).  The default sampler ranges are chosen
so that the bulk of the samples meet within the default budget.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.sampler import SamplerConfig
from repro.core.classification import InstanceClass
from repro.experiments.report import ExperimentResult
from repro.experiments.sweep import run_sweep, with_event_engine

#: Sampler ranges keeping instances within comfortable simulation budgets:
#: moderate initial distances and generous visibility radii.
DEFAULT_COVERAGE_CONFIG = SamplerConfig(
    min_radius=0.4,
    max_radius=1.0,
    min_distance=1.5,
    max_distance=3.0,
    max_delay_margin=1.5,
    min_clock_rate=0.25,
    max_clock_rate=4.0,
    min_speed=0.5,
    max_speed=2.0,
    max_delay=2.0,
)

TYPE_CLASSES = (
    InstanceClass.TYPE_1,
    InstanceClass.TYPE_2,
    InstanceClass.TYPE_3,
    InstanceClass.TYPE_4,
)


def coverage_campaign_spec(
    samples_per_type: int = 8,
    seed: int = 11,
    *,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e30,
    max_segments: int = 600_000,
    timebase: str = "exact",
    shard_size: int = 256,
):
    """The THM-3.2 sweep as a :class:`~repro.campaign.spec.CampaignSpec`.

    The serializable form of the experiment's Monte-Carlo bulk: one
    ``almost-universal`` arm over the four types.  Running it through
    :func:`repro.campaign.orchestrator.run_campaign` makes the sweep
    checkpointed and resumable.  It is the experiment's only sampling
    scheme: instances come from position-spawned per-instance seeds, so the
    draws under one ``seed`` are the same for every shard size, engine and
    campaign directory.
    """
    from dataclasses import asdict

    from repro.campaign import CampaignArm, CampaignSpec

    simulator = {"max_time": max_time, "max_segments": max_segments}
    if timebase != "float":
        simulator["timebase"] = timebase
    return CampaignSpec(
        name="theorem-3.2-universal-coverage",
        arms=(CampaignArm(algorithm="almost-universal"),),
        classes=tuple(cls.value for cls in TYPE_CLASSES),
        instances_per_cell=samples_per_type,
        seed=seed,
        sampler=asdict(config if config is not None else DEFAULT_COVERAGE_CONFIG),
        simulator=simulator,
        shard_size=shard_size,
    )


def run_universal_coverage_experiment(
    samples_per_type: int = 8,
    seed: int = 11,
    *,
    config: Optional[SamplerConfig] = None,
    max_time: float = 1e30,
    max_segments: int = 600_000,
    timebase: str = "exact",
    engine: str = "auto",
    campaign_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the THM-3.2 coverage experiment and return its per-type table.

    The sweep runs :func:`coverage_campaign_spec` as a campaign in
    ``campaign_dir`` (resumed for free on a re-run) or, when ``None``, in a
    temporary directory; the table aggregates the stored columns.

    ``engine="auto"`` (default) lets the shard runner pick: the vectorized
    batch engine when ``timebase`` is ``"float"``, the event engine
    otherwise (the exact timebase — the default here, since deep phases
    schedule astronomically long waits — has no vectorized counterpart).
    ``engine="vectorized"`` requires ``timebase="float"``; note that
    ``max_time`` is then capped by float arithmetic, so pass a finite horizon
    such as ``1e9``.  ``engine="event"`` runs float-timebase shards on the
    event engine too.
    """
    if engine not in ("auto", "event", "vectorized"):
        raise ValueError(
            f"unknown engine {engine!r}; expected 'auto', 'event' or 'vectorized'"
        )
    if engine == "vectorized" and timebase != "float":
        raise ValueError("engine='vectorized' requires timebase='float'")
    spec = coverage_campaign_spec(
        samples_per_type,
        seed,
        config=config,
        max_time=max_time,
        max_segments=max_segments,
        timebase=timebase,
    )
    if engine == "event" and timebase == "float":
        spec = with_event_engine(spec)
    result = run_sweep(
        spec,
        campaign_dir,
        ("count", "successes", "success_rate", "meeting_time_mean",
         "meeting_time_max", "min_distance_mean", "segments_mean", "budget_exhausted"),
    )
    result.add_note(
        "Theorem 3.2 guarantees eventual rendezvous for every sampled instance; rows with "
        "budget_exhausted > 0 are simulations cut short by the budget, not counterexamples."
    )
    if not any(row["budget_exhausted"] for row in result.rows):
        result.add_note("Every sampled instance met within the budget.")
    return result
