"""Campaign specs and shard plans: serialization, identity, determinism.

The campaign contracts pinned here: a spec round-trips through JSON with a
stable content digest (name excluded), the shard plan is a pure function of
the spec with content-addressed shard ids, and — the load-bearing one — the
sampled instance stream is *independent of the shard partition*: any shard
size yields bit-identical instances at every position, which is what makes
resume and re-partitioning safe.
"""

import numpy as np
import pytest

from repro.analysis.sampler import SamplerConfig, sample_spawned, spawn_instance_seeds
from repro.campaign import (
    CampaignArm,
    CampaignError,
    CampaignSpec,
    plan_shards,
    shard_instances,
    shard_tasks,
)
from repro.campaign.spec import RATIO_OPTIONS
from repro.parallel.runner import BatchRunner


def make_spec(**overrides):
    base = dict(
        name="unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1", "type-2"),
        instances_per_cell=10,
        seed=5,
        simulator={"max_time": 1e6, "max_segments": 50_000},
        shard_size=4,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaignSpec:
    def test_round_trips_through_json(self):
        spec = make_spec(
            arms=(
                CampaignArm(algorithm="almost-universal-compact"),
                CampaignArm(
                    algorithm="almost-universal-compact",
                    label="quarter",
                    options={"radius_a_ratio": 1.0, "radius_b_ratio": 0.25},
                ),
            ),
            sampler={"min_radius": 0.3, "max_radius": 0.9},
        )
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_excludes_name_but_covers_work(self):
        spec = make_spec()
        assert make_spec(name="renamed").digest() == spec.digest()
        assert make_spec(seed=6).digest() != spec.digest()
        assert make_spec(instances_per_cell=11).digest() != spec.digest()
        assert make_spec(shard_size=5).digest() != spec.digest()
        assert make_spec(simulator={"max_time": 2e6}).digest() != spec.digest()

    def test_arm_options_merge_over_campaign_defaults(self):
        spec = make_spec(
            arms=(
                CampaignArm(
                    algorithm="almost-universal-compact",
                    options={"max_segments": 7},
                ),
            )
        )
        assert spec.arm_options(0) == {"max_time": 1e6, "max_segments": 7}

    def test_uniform_class_and_instance_class(self):
        spec = make_spec(classes=("uniform", "type-3"))
        assert spec.instance_class(0) is None
        assert spec.instance_class(1).value == "type-3"

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(arms=()), "at least one arm"),
            (dict(classes=()), "at least one instance class"),
            (dict(classes=("type-9",)), "unknown instance class"),
            (dict(classes=("type-1", "type-1")), "unique"),
            (dict(instances_per_cell=0), "instances_per_cell"),
            (dict(shard_size=0), "shard_size"),
            (dict(name=""), "named"),
            (dict(sampler={"min_radius": -1.0}), "sampler"),
            (dict(simulator={"radius_b_ratio": 0.5}), "per-arm option"),
            (dict(simulator={"timebase": "warp"}), "timebase of campaign defaults"),
            (
                dict(arms=(CampaignArm("almost-universal-compact", options={"engine": "x"}),)),
                "engine of arm",
            ),
        ],
    )
    def test_validation_errors(self, overrides, match):
        with pytest.raises(CampaignError, match=match):
            make_spec(**overrides)

    @pytest.mark.parametrize("where", ["defaults", "arm"])
    def test_vectorized_engine_is_refused_naming_event(self, where):
        # A shard picks its own route; "vectorized" made every instance its
        # own batch call, and failed every exact-timebase shard at run time.
        if where == "defaults":
            overrides = dict(simulator={"max_time": 1e6, "engine": "vectorized"})
        else:
            arm = CampaignArm("almost-universal-compact", options={"engine": "vectorized"})
            overrides = dict(arms=(arm,))
        with pytest.raises(CampaignError, match="must be one of 'event', got 'vectorized'"):
            make_spec(**overrides)
        arm = CampaignArm("almost-universal-compact", options={"engine": "event"})
        assert make_spec(arms=(arm,)).arm_options(0)["engine"] == "event"

    def test_validation_errors_are_value_errors(self):
        # Sweeps pass their arguments through a spec; a bad value raises the
        # same type as the engines' own argument checks.
        with pytest.raises(ValueError):
            make_spec(instances_per_cell=0)

    def test_duplicate_arm_labels_rejected(self):
        with pytest.raises(CampaignError, match="unique"):
            make_spec(
                arms=(
                    CampaignArm(algorithm="almost-universal-compact"),
                    CampaignArm(algorithm="almost-universal-compact"),
                )
            )

    def test_validate_algorithms_catches_typos(self):
        spec = make_spec(arms=(CampaignArm(algorithm="no-such-algorithm"),))
        with pytest.raises(CampaignError, match="no-such-algorithm"):
            spec.validate_algorithms()

    def test_sampler_config_resolves(self):
        spec = make_spec(sampler={"min_radius": 0.3})
        assert isinstance(spec.sampler_config(), SamplerConfig)
        assert make_spec().sampler_config() is None


class TestShardPlan:
    def test_plan_covers_every_cell_exactly(self):
        spec = make_spec()
        plan = plan_shards(spec)
        assert sum(shard.count for shard in plan) == spec.total_instances
        assert [shard.index for shard in plan] == list(range(len(plan)))
        # 10 rows at shard_size 4 -> 4 + 4 + 2 per cell, contiguous.
        per_cell = {}
        for shard in plan:
            per_cell.setdefault((shard.arm_index, shard.class_index), []).append(shard)
        for shards in per_cell.values():
            assert [s.count for s in shards] == [4, 4, 2]
            assert [s.start for s in shards] == [0, 4, 8]

    def test_shard_ids_are_content_addressed(self):
        plan_a = plan_shards(make_spec())
        plan_b = plan_shards(make_spec(name="renamed"))
        assert [s.shard_id for s in plan_a] == [s.shard_id for s in plan_b]
        plan_c = plan_shards(make_spec(seed=6))
        assert set(s.shard_id for s in plan_a).isdisjoint(s.shard_id for s in plan_c)
        assert len({s.shard_id for s in plan_a}) == len(plan_a)

    def test_instances_independent_of_shard_partition(self):
        """The acceptance contract: 1 shard vs N shards, identical instances."""
        whole = make_spec(shard_size=10)
        split = make_spec(shard_size=3)
        assert [
            instance
            for shard in plan_shards(whole)
            for instance in shard_instances(whole, shard)
        ] == [
            instance
            for shard in plan_shards(split)
            for instance in shard_instances(split, shard)
        ]

    def test_arms_share_the_class_instance_stream(self):
        spec = make_spec(
            arms=(
                CampaignArm(algorithm="almost-universal-compact"),
                CampaignArm(algorithm="almost-universal", label="paper"),
            ),
            shard_size=10,
        )
        plan = plan_shards(spec)
        by_cell = {(s.arm_index, s.class_index): s for s in plan}
        assert shard_instances(spec, by_cell[(0, 0)]) == shard_instances(
            spec, by_cell[(1, 0)]
        )

    def test_slices_are_drawn_once_per_class_not_per_arm(self, monkeypatch):
        import repro.analysis.sampler as sampler
        from repro.campaign import shards

        spec = make_spec(
            arms=(
                CampaignArm(algorithm="almost-universal-compact", label="a"),
                CampaignArm(algorithm="almost-universal-compact", label="b"),
            )
        )
        plan = plan_shards(spec)
        monkeypatch.setattr(shards, "_SLICE_CACHE", type(shards._SLICE_CACHE)())
        fresh = [sample_spawned(s.count, seed=shards.class_stream_seed(spec, s.class_index),
                                start=s.start, cls=spec.instance_class(s.class_index))
                 for s in plan]
        draws = []
        real = sampler.sample_spawned

        def counted(*args, **kwargs):
            draws.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampler, "sample_spawned", counted)
        assert [shard_instances(spec, s) for s in plan] == fresh
        assert len(draws) == len(plan) // 2

    def test_slice_cache_is_bounded(self, monkeypatch):
        from repro.campaign import shards

        monkeypatch.setattr(shards, "_SLICE_CACHE", type(shards._SLICE_CACHE)())
        monkeypatch.setattr(shards, "_SLICE_CACHE_LIMIT", 6)
        single = make_spec()
        for shard in plan_shards(single):
            shard_instances(single, shard)
        assert not shards._SLICE_CACHE  # one arm: nothing to reuse, nothing kept
        spec = make_spec(arms=(
            CampaignArm(algorithm="almost-universal-compact", label="a"),
            CampaignArm(algorithm="almost-universal-compact", label="b"),
        ))
        for shard in plan_shards(spec):
            shard_instances(spec, shard)
            assert 0 < sum(map(len, shards._SLICE_CACHE.values())) <= 6

    def test_ratio_options_resolve_against_instance_r(self):
        spec = make_spec(
            arms=(
                CampaignArm(
                    algorithm="almost-universal-compact",
                    options={"radius_a_ratio": 1.0, "radius_b_ratio": 0.25},
                ),
            ),
            shard_size=10,
        )
        shard = plan_shards(spec)[0]
        instances = shard_instances(spec, shard)
        work = shard_tasks(spec, shard, instances)
        outcomes = BatchRunner().run(work)
        assert [(o.radius_a, o.radius_b) for o in outcomes] == [
            (instance.r, 0.25 * instance.r) for instance in instances
        ]
        assert work.algorithm == "almost-universal-compact"
        assert work.instances == tuple(instances)
        assert work.columns["radius_a"].tolist() == [instance.r for instance in instances]
        assert work.columns["radius_b"].tolist() == [0.25 * instance.r for instance in instances]
        assert work.columns["radius_b"].dtype == np.float64
        assert not set(RATIO_OPTIONS) & set(work.options)
        assert work.asymmetric
        for k, instance in enumerate(instances):
            options = work.instance_options(k)
            assert options["radius_b"] == 0.25 * instance.r
            assert options["max_time"] == spec.simulator["max_time"]


class TestSpawnedSeeding:
    def test_children_match_real_spawn(self):
        """Direct construction must equal SeedSequence.spawn's children exactly."""
        spawned = np.random.SeedSequence(5).spawn(8)
        ours = spawn_instance_seeds(5, 8)
        for a, b in zip(spawned, ours):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key
            assert a.pool_size == b.pool_size
            assert np.array_equal(
                np.random.default_rng(a).integers(0, 1 << 30, 4),
                np.random.default_rng(b).integers(0, 1 << 30, 4),
            )

    def test_children_are_position_stable(self):
        all_at_once = spawn_instance_seeds(5, 8)
        sliced = spawn_instance_seeds(5, 3, start=2)
        for a, b in zip(all_at_once[2:5], sliced):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key

    def test_existing_seedsequence_is_never_mutated(self):
        parent = np.random.SeedSequence(5)
        first = spawn_instance_seeds(parent, 4)
        parent.spawn(3)  # a caller spawning on the side must not shift ours
        second = spawn_instance_seeds(parent, 4)
        assert [c.spawn_key for c in first] == [c.spawn_key for c in second]

    def test_sample_spawned_matches_slicing(self):
        whole = sample_spawned(6, seed=11)
        parts = sample_spawned(2, seed=11) + sample_spawned(4, seed=11, start=2)
        assert whole == parts

    def test_sample_spawned_respects_class(self):
        from repro.core.classification import InstanceClass, classify

        for instance in sample_spawned(4, seed=3, cls=InstanceClass.TYPE_2):
            assert classify(instance) is InstanceClass.TYPE_2

    def test_negative_positions_rejected(self):
        with pytest.raises(ValueError):
            spawn_instance_seeds(0, -1)
        with pytest.raises(ValueError):
            spawn_instance_seeds(0, 1, start=-2)
