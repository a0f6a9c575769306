"""Sharded, checkpointed, resumable simulation campaigns.

The campaign subsystem turns Monte-Carlo simulation into durable,
larger-than-RAM workloads, and is the one path of the experiment sweeps
(:mod:`repro.experiments.sweep`):

* :mod:`repro.campaign.spec` — campaigns as serializable, content-addressed
  declarations (algorithm grid x instance sampler x simulator options);
* :mod:`repro.campaign.shards` — deterministic partitioning into shards that
  are reproducible in isolation (position-spawned per-instance seeds);
* :mod:`repro.campaign.store` — an append-only on-disk columnar store with a
  crash-safe manifest, streaming aggregation, a quarantine ledger for poison
  shards, and a ``doctor`` integrity/repair pass;
* :mod:`repro.campaign.leases` — atomic shard leases (exclusive-create claim,
  heartbeat mtime, stale takeover) partitioning work between concurrent
  runners;
* :mod:`repro.campaign.executor` — the one shard scheduler, with an
  in-process slot (``workers=1``) or spawned worker processes: lease
  claiming, retry with exponential backoff, quarantine instead of aborting,
  atomic commits, and (spawned) per-shard timeouts and worker-death
  recovery;
* :mod:`repro.campaign.orchestrator` — the entry point: plan, skip finished
  work, hand the rest to the scheduler, stop cleanly on SIGINT/SIGTERM.

``repro campaign run | resume | status | report | doctor`` is the CLI
surface.
"""

from repro.campaign.executor import FaultInjection, ShardExecutor
from repro.campaign.leases import LeaseManager
from repro.campaign.orchestrator import (
    CampaignRunStats,
    run_campaign,
    status_rows,
)
from repro.campaign.shards import Shard, plan_shards, shard_instances, shard_tasks
from repro.campaign.spec import (
    UNIFORM_CLASS,
    CampaignArm,
    CampaignError,
    CampaignSpec,
)
from repro.campaign.store import CampaignStore, CellAggregate

__all__ = [
    "CampaignArm",
    "CampaignError",
    "CampaignRunStats",
    "CampaignSpec",
    "CampaignStore",
    "CellAggregate",
    "FaultInjection",
    "LeaseManager",
    "Shard",
    "ShardExecutor",
    "UNIFORM_CLASS",
    "plan_shards",
    "run_campaign",
    "shard_instances",
    "shard_tasks",
    "status_rows",
]
