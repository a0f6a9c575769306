"""Deterministic, content-addressed partitioning of a campaign into shards.

A shard is the unit of scheduling, checkpointing and storage: one contiguous
slice of one (arm, class) cell's instance stream, sized to the batch engines'
sweet spot by ``spec.shard_size``.  The plan is a pure function of the spec —
same spec, same shards, same order — and each shard is reproducible **in
isolation**: its instances come from position-spawned child seeds
(:func:`repro.analysis.sampler.spawn_instance_seeds`), so executing shard 17
alone yields bit-identical rows to executing it as part of the full campaign,
regardless of shard size or execution order.

Shard identity is content-addressed: the ``shard_id`` hashes the spec digest
plus the shard's coordinates.  A completion record in the manifest therefore
only ever matches work that is still *meant* — edit the spec (different
digest) and every old record silently stops matching instead of corrupting a
resume.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.campaign.spec import RATIO_OPTIONS, CampaignSpec
from repro.core.instance import Instance
from repro.sim.scenarios import STALL_RANGE_OPTIONS, resolve_stall_options

__all__ = [
    "Shard",
    "class_stream_seed",
    "plan_shards",
    "shard_cache_scope",
    "shard_instances",
    "shard_tasks",
]

#: Spawn-key tag rooting the stall-option draws in their own branch of the
#: class stream's seed tree.  Sampler children append the bare instance
#: position (bounded by ``instances_per_cell``) to the class seed's spawn
#: key, so a first element this large can never collide with them.
_STALL_SPAWN_TAG = 2**32 - 977


@dataclass(frozen=True)
class Shard:
    """One schedulable slice of a campaign.

    ``start`` and ``count`` address positions of the (class-keyed) instance
    stream; ``index`` is the shard's rank in the deterministic plan order.
    """

    index: int
    shard_id: str
    arm_index: int
    class_index: int
    start: int
    count: int

    def describe(self, spec: CampaignSpec) -> str:
        arm = spec.arms[self.arm_index]
        return (
            f"shard {self.index} [{self.shard_id}] arm={arm.label} "
            f"class={spec.classes[self.class_index]} "
            f"rows {self.start}..{self.start + self.count - 1}"
        )


def _shard_id(digest: str, arm_index: int, class_index: int, start: int, count: int) -> str:
    payload = f"{digest}:{arm_index}:{class_index}:{start}:{count}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def plan_shards(spec: CampaignSpec) -> List[Shard]:
    """The campaign's full shard plan, in deterministic execution order.

    Cells iterate arm-major (every class of arm 0, then arm 1, ...), each
    cell split into ``ceil(instances_per_cell / shard_size)`` contiguous
    slices.  The order is part of the contract — the store's export
    concatenates completed shards in plan order, which is what makes a
    resumed campaign's columns byte-identical to an uninterrupted run's.
    """
    digest = spec.digest()
    shards: List[Shard] = []
    for arm_index, class_index in spec.cells():
        start = 0
        while start < spec.instances_per_cell:
            count = min(spec.shard_size, spec.instances_per_cell - start)
            shards.append(
                Shard(
                    index=len(shards),
                    shard_id=_shard_id(digest, arm_index, class_index, start, count),
                    arm_index=arm_index,
                    class_index=class_index,
                    start=start,
                    count=count,
                )
            )
            start += count
    return shards


def class_stream_seed(spec: CampaignSpec, class_index: int):
    """The :class:`~numpy.random.SeedSequence` rooting one class's instance stream.

    One child of the master seed per *class* (spawned by position, so the
    class list order matters but arm order never does); instances of a class
    are shared across arms — every arm simulates the identical stream, which
    keeps arms comparable row for row.
    """
    import numpy as np

    return np.random.SeedSequence(spec.seed).spawn(len(spec.classes))[class_index]


def shard_cache_scope(spec: CampaignSpec):
    """The cross-call compiler-cache admission every shard of ``spec`` runs under.

    Agent A's spec is the same in every instance, so its compiler is always
    cached.  B-side specs are one per instance, and every arm simulates the
    same instance stream (:func:`class_stream_seed`): a later arm of an
    algorithm an earlier arm already ran asks for the same B-side compilers
    again.  Arms run one after another (:func:`plan_shards`), so those
    compilers are still cached when the later arm comes only if every
    algorithm's B-side set fits the cache's entry cap at once.  When an
    algorithm repeats and the sets fit, shards admit every spec (the
    Section 5 ratio grid and the stalling sweep are such campaigns);
    otherwise each B-side compiler would be used once, and caching it would
    only evict entries that recur, so shards admit agent A's alone
    (:func:`repro.sim.rounds.compiler_cache_admission`).  Results never
    depend on the choice.
    """
    from repro.sim.rounds import compiler_cache_admission, compiler_cache_entry_limit

    algorithms = [arm.algorithm for arm in spec.arms]
    distinct = len(set(algorithms))
    compilers = distinct * (len(spec.classes) * spec.instances_per_cell + 1)
    if distinct < len(algorithms) and compilers <= compiler_cache_entry_limit():
        return contextlib.nullcontext()
    return compiler_cache_admission()


def shard_instances(spec: CampaignSpec, shard: Shard) -> List[Instance]:
    """Sample the shard's instances — bit-identical for any shard partition."""
    from repro.analysis.sampler import sample_spawned

    return sample_spawned(
        shard.count,
        seed=class_stream_seed(spec, shard.class_index),
        start=shard.start,
        cls=spec.instance_class(shard.class_index),
        config=spec.sampler_config(),
    )


def shard_tasks(spec: CampaignSpec, shard: Shard, instances: Sequence[Instance]):
    """The shard's :class:`~repro.parallel.runner.BatchTask` list.

    Resolves the arm's :data:`~repro.campaign.spec.RATIO_OPTIONS` against
    each instance's own ``r`` into concrete ``radius_a``/``radius_b`` values,
    and the :data:`~repro.sim.scenarios.STALL_RANGE_OPTIONS` into concrete
    per-instance stall schedules drawn from position-keyed child seeds (like
    the instances themselves, the draws depend only on the spec and the
    stream position — never on the shard partition or execution order).
    Every other option passes through to the runner verbatim.  Tasks are
    tagged with the shard id, so any record can be traced back to the shard
    (and therefore the spec slice) that produced it.
    """
    import numpy as np

    from repro.parallel.runner import BatchTask

    base = spec.arm_options(shard.arm_index)
    ratios: Dict[str, Any] = {key: base.pop(key) for key in RATIO_OPTIONS if key in base}
    stall_ranges: Dict[str, Any] = {
        key: base.pop(key) for key in STALL_RANGE_OPTIONS if key in base
    }
    stream_seed = class_stream_seed(spec, shard.class_index) if stall_ranges else None
    tasks = []
    for offset, instance in enumerate(instances):
        options = dict(base)
        if "radius_a_ratio" in ratios:
            options["radius_a"] = ratios["radius_a_ratio"] * instance.r
        if "radius_b_ratio" in ratios:
            options["radius_b"] = ratios["radius_b_ratio"] * instance.r
        if stall_ranges:
            options.update(stall_ranges)
            child = np.random.SeedSequence(
                entropy=stream_seed.entropy,
                spawn_key=stream_seed.spawn_key
                + (_STALL_SPAWN_TAG, shard.arm_index, shard.start + offset),
            )
            resolve_stall_options(options, np.random.default_rng(child))
        tasks.append(
            BatchTask.make(instance, spec.arms[shard.arm_index].algorithm,
                           tag=shard.shard_id, **options)
        )
    return tasks
