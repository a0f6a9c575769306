"""The campaign shard runner: one shard, one route, outcomes in order.

A campaign shard (:func:`repro.campaign.shards.shard_tasks`) is homogeneous:
one arm, so one algorithm and one option set over the shard's instances,
plus the per-instance radius and stall columns the arm derives.  Its route is
therefore one answer per shard, which the shard itself carries
(:attr:`~repro.campaign.shards.ShardWork.batched` and
:attr:`~repro.campaign.shards.ShardWork.asymmetric`) and the runner follows.
A float-timebase shard whose options the vectorized batch engine
(:mod:`repro.sim.batch`) understands is one :func:`~repro.sim.batch.simulate_batch` call, or one
:func:`~repro.sim.batch_asymmetric.simulate_batch_asymmetric` call when it
carries per-agent radii.  Every other shard (exact timebase, authoritative
for the S1/S2 boundary runs; trajectory recording; ``raise_on_budget``; an
explicit ``engine`` option) runs instance by instance on the event engine.
Everything runs in the calling process: parallelism is shard-granular
(``repro campaign run --workers N``, see :mod:`repro.campaign.executor`), so
results never depend on which process computed them.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.registry import get_algorithm
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import RendezvousSimulator
from repro.sim.results import AsymmetricOutcome

__all__ = ["BatchRunner"]


class BatchRunner:
    """Runs one campaign shard's work and returns its outcomes in instance order.

    This is the campaign shard body's dispatcher
    (:mod:`repro.campaign.executor`): every shard slot, in-process or
    spawned, takes one :meth:`run` call per shard.
    """

    def run(self, work) -> List[AsymmetricOutcome]:
        """Simulate a :class:`~repro.campaign.shards.ShardWork`, one outcome per instance.

        Every outcome carries the run's freeze event; runs without per-agent
        radii have none (both radii read the instance's ``r``).
        """
        algorithm = get_algorithm(work.algorithm)
        instances = work.instances
        if not work.batched:
            return [
                RendezvousSimulator(**work.instance_options(k))._run(
                    instance, algorithm, "BatchRunner"
                )
                for k, instance in enumerate(instances)
            ]
        options = {key: value for key, value in work.options.items() if key != "timebase"}
        options.update(work.columns)
        if work.asymmetric:
            # An unset side defaults to each instance's own r in the engine.
            return simulate_batch_asymmetric(instances, algorithm, **options)
        results = simulate_batch(instances, algorithm, **options)
        return [
            AsymmetricOutcome(result, instance.r, instance.r)
            for result, instance in zip(results, instances)
        ]
