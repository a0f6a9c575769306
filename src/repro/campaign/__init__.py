"""Sharded, checkpointed, resumable simulation campaigns.

The campaign subsystem turns the in-memory Monte-Carlo sweeps into durable,
larger-than-RAM workloads:

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
* :mod:`repro.campaign.executor` — the fault-tolerant process pool: retry
  with exponential backoff, per-shard timeouts, worker-death recovery and
  quarantine instead of aborting;
* :mod:`repro.campaign.orchestrator` — the shard loop: skip finished work,
  claim leases, execute the rest (inline or pooled), checkpoint atomically,
  stop cleanly on SIGINT/SIGTERM.

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
from repro.campaign.store import CampaignStore, CellAggregate, records_to_columns

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
    "records_to_columns",
    "run_campaign",
    "shard_instances",
    "shard_tasks",
    "status_rows",
]
