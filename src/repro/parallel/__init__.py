"""Campaign shard execution, in the calling process.

Parallelism is shard-granular: ``repro campaign run --workers N`` spreads a
campaign's shards over spawned slots (:mod:`repro.campaign.executor`), each
running one :meth:`BatchRunner.run` call per shard.
"""

from repro.parallel.runner import BatchRunner

__all__ = ["BatchRunner"]
