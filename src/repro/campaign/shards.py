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

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.campaign.spec import RATIO_OPTIONS, CampaignSpec
from repro.core.instance import Instance
from repro.sim.scenarios import STALL_RANGE_OPTIONS, resolve_stall_options

__all__ = [
    "Shard",
    "ShardWork",
    "class_stream_seed",
    "plan_shards",
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
    return np.random.SeedSequence(spec.seed).spawn(len(spec.classes))[class_index]


#: Recently sampled stream slices of multi-arm campaigns, keyed by everything
#: the draw depends on.  Every arm simulates the same class streams and the
#: plan is arm-major, so arm 1 finds arm 0's slices here instead of drawing
#: them again, as long as one arm's slices fit in :data:`_SLICE_CACHE_LIMIT`
#: instances (least recently used slices are evicted first).
_SLICE_CACHE: "OrderedDict[Tuple, Tuple[Instance, ...]]" = OrderedDict()
_SLICE_CACHE_LIMIT = 8192
_SLICE_CACHE_LOCK = threading.Lock()


def shard_instances(spec: CampaignSpec, shard: Shard) -> List[Instance]:
    """Sample the shard's instances — bit-identical for any shard partition."""
    from repro.analysis.sampler import sample_spawned

    def sample() -> List[Instance]:
        return sample_spawned(
            shard.count,
            seed=class_stream_seed(spec, shard.class_index),
            start=shard.start,
            cls=spec.instance_class(shard.class_index),
            config=spec.sampler_config(),
        )

    if len(spec.arms) == 1:
        return sample()  # no other arm would reuse the slice
    key = (
        spec.seed,
        spec.classes,
        json.dumps(spec.sampler, sort_keys=True),
        shard.class_index,
        shard.start,
        shard.count,
    )
    with _SLICE_CACHE_LOCK:
        instances = _SLICE_CACHE.pop(key, None)
    if instances is None:
        instances = tuple(sample())
    with _SLICE_CACHE_LOCK:
        _SLICE_CACHE[key] = instances
        cached = sum(len(entry) for entry in _SLICE_CACHE.values())
        while cached > _SLICE_CACHE_LIMIT and len(_SLICE_CACHE) > 1:
            cached -= len(_SLICE_CACHE.popitem(last=False)[1])
    return list(instances)


_RADIUS_OPTIONS = ("radius_a", "radius_b")

#: Simulator options the vectorized batch engines understand.  A shard
#: carrying any other option (or a non-float timebase) runs on the event
#: engine.
_BATCH_OPTIONS = frozenset(
    {
        "max_time",
        "max_segments",
        "radius_slack",
        "track_min_distance",
        "timebase",
        "speed_a",
        "speed_b",
        "stall_agent",
        "stall_time",
        "stall_duration",
        *_RADIUS_OPTIONS,
    }
)


def _batched(options: Mapping[str, Any]) -> bool:
    """Whether a shard with these scalar options runs as one batch-engine call."""
    return _BATCH_OPTIONS.issuperset(options) and options.get("timebase", "float") == "float"


@dataclass(frozen=True)
class ShardWork:
    """One shard's simulations as columns: what ``BatchRunner.run`` takes.

    A shard is homogeneous: one arm, so one ``algorithm`` and one set of
    scalar simulator ``options`` (the arm's ratio and stall-range
    conveniences resolved away) over the sampled ``instances``.  ``columns``
    holds the per-instance float64 values the arm derives from those
    conveniences (``radius_a``/``radius_b``/``stall_time``/
    ``stall_duration``); no key is both an option and a column.  The shard
    also carries its route (:attr:`batched`, :attr:`asymmetric`), which the
    runner follows.
    """

    algorithm: str
    options: Mapping[str, Any]
    instances: Tuple[Instance, ...]
    columns: Mapping[str, np.ndarray]

    @property
    def batched(self) -> bool:
        """Whether the shard is one batch-engine call (else the event engine, per instance)."""
        return _batched(self.options)

    @property
    def asymmetric(self) -> bool:
        """Whether the shard runs under per-agent radii (Section 5)."""
        return any(key in self.options or key in self.columns for key in _RADIUS_OPTIONS)

    def instance_options(self, k: int) -> Dict[str, Any]:
        """The simulator options of instance ``k`` alone (its column values folded in)."""
        options = dict(self.options)
        options.update((key, float(column[k])) for key, column in self.columns.items())
        return options


def _split_options(options: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Pop an arm's ratio and stall-range conveniences out of ``options``."""
    ratios = {key: options.pop(key) for key in RATIO_OPTIONS if key in options}
    stall_ranges = {key: options.pop(key) for key in STALL_RANGE_OPTIONS if key in options}
    return ratios, stall_ranges


def shard_tasks(spec: CampaignSpec, shard: Shard, instances: Sequence[Instance]) -> ShardWork:
    """The shard's :class:`ShardWork` over its sampled ``instances``.

    Resolves the arm's :data:`~repro.campaign.spec.RATIO_OPTIONS` against
    each instance's own ``r`` into ``radius_a``/``radius_b`` columns, and
    the :data:`~repro.sim.scenarios.STALL_RANGE_OPTIONS` into per-instance
    stall schedules drawn from position-keyed child seeds (like the
    instances themselves, the draws depend only on the spec and the stream
    position, never on the shard partition or execution order).  Every
    other option passes through to the runner verbatim.
    """
    options = spec.arm_options(shard.arm_index)
    ratios, stall_ranges = _split_options(options)
    columns: Dict[str, np.ndarray] = {}
    if ratios:
        radii = np.array([instance.r for instance in instances], dtype=float)
        for key, ratio in ratios.items():
            columns[key[: -len("_ratio")]] = ratio * radii
    if stall_ranges:
        stream_seed = class_stream_seed(spec, shard.class_index)
        draws = []
        for position in range(shard.start, shard.start + len(instances)):
            child = np.random.SeedSequence(
                entropy=stream_seed.entropy,
                spawn_key=stream_seed.spawn_key + (_STALL_SPAWN_TAG, shard.arm_index, position),
            )
            draws.append(resolve_stall_options(dict(stall_ranges), np.random.default_rng(child)))
        for key in ("stall_time", "stall_duration"):
            if f"{key}_range" in stall_ranges:
                columns[key] = np.array([draw[key] for draw in draws], dtype=float)
    for key in columns:
        options.pop(key, None)
    return ShardWork(
        algorithm=spec.arms[shard.arm_index].algorithm,
        options=options,
        instances=tuple(instances),
        columns=columns,
    )


def event_routed_radii(options: Mapping[str, Any]) -> bool:
    """Whether an arm with these options runs per-agent radii on the event engine.

    ``options`` are the arm's effective options
    (:meth:`~repro.campaign.spec.CampaignSpec.arm_options`).  Its ratio and
    stall-range conveniences become batch columns, so the options left pick
    the route, as :attr:`ShardWork.batched` does.
    """
    scalar = dict(options)
    ratios, _ = _split_options(scalar)
    radii = bool(ratios) or any(key in scalar for key in _RADIUS_OPTIONS)
    return radii and not _batched(scalar)
