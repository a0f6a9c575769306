"""Batch execution of simulation tasks, in the calling process.

Parallelism is shard-granular: ``repro campaign run --workers N`` spreads a
campaign's shards over spawned slots (:mod:`repro.campaign.executor`), each
running its shards through a :class:`BatchRunner`.
"""

from repro.parallel.runner import BatchRunner, BatchTask, run_batch

__all__ = ["BatchRunner", "BatchTask", "run_batch"]
