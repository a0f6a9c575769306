"""One-shard campaigns for the runner tests: a shard, its instances, its work."""

import repro.parallel.runner as runner_module
from repro.campaign import CampaignArm, CampaignSpec, plan_shards, shard_instances, shard_tasks


def one_shard(
    options=None,
    *,
    algorithm="almost-universal-compact",
    classes=("type-1",),
    count=8,
    seed=23,
    max_time=1e5,
    max_segments=20_000,
):
    """The single shard of a one-arm, one-class campaign with its work.

    ``options`` are the arm's simulator options, merged over the budgets.
    Returns ``(shard, instances, work)``.
    """
    spec = CampaignSpec(
        name="one-shard",
        arms=(CampaignArm(algorithm, options=dict(options or {})),),
        classes=classes,
        instances_per_cell=count,
        seed=seed,
        shard_size=count,
        simulator={"max_time": max_time, "max_segments": max_segments},
    )
    (shard,) = plan_shards(spec)
    instances = shard_instances(spec, shard)
    return shard, instances, shard_tasks(spec, shard, instances)


def spy(monkeypatch, name):
    """Record the keyword arguments of every call to a runner-module engine.

    ``name`` is ``"simulate_batch"`` or ``"simulate_batch_asymmetric"``, the
    globals :class:`~repro.parallel.runner.BatchRunner` calls them through.
    """
    calls = []
    real = getattr(runner_module, name)

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, name, recording)
    return calls
