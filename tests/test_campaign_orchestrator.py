"""Campaign orchestration: crash/resume, recompute counters, cache policy.

The acceptance contract of the campaign subsystem, pinned end to end: kill a
campaign partway (simulated via a shard-failure injection hook and via
``max_shards``), resume it, and (1) **zero** completed shards recompute —
observable through the run stats counters and through
``motion.compiler.rows_compiled_total`` — while (2) the final stored columns
are *bit-identical* to a single uninterrupted run.  A freeze-heavy cell under
both the float (vectorized) and exact (event fallback) timebases doubles as
the ROADMAP's asymmetric exact cross-check: the same instances, two
authoritative paths, compared column against column.
"""

import numpy as np
import pytest

from repro.campaign import (
    CampaignArm,
    CampaignError,
    CampaignSpec,
    CampaignStore,
    plan_shards,
    run_campaign,
)
from repro.campaign.shards import shard_cache_scope
from repro.sim import rounds


def make_spec(**overrides):
    base = dict(
        name="orchestration-unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1", "type-2"),
        instances_per_cell=8,
        seed=13,
        simulator={"max_time": 1e6, "max_segments": 50_000},
        shard_size=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def freeze_heavy_spec(**overrides):
    """Strongly asymmetric radii: the larger-radius agent freezes in most runs."""
    base = dict(
        name="freeze-crosscheck",
        arms=(
            CampaignArm(
                algorithm="almost-universal-compact",
                label="float",
                options={"radius_a_ratio": 1.0, "radius_b_ratio": 0.25},
            ),
            CampaignArm(
                algorithm="almost-universal-compact",
                label="exact",
                options={
                    "radius_a_ratio": 1.0,
                    "radius_b_ratio": 0.25,
                    "timebase": "exact",
                },
            ),
        ),
        classes=("type-1",),
        instances_per_cell=5,
        seed=23,
        simulator={"max_time": 1e6, "max_segments": 50_000},
        shard_size=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def identical_stores(dir_a, dir_b):
    a = CampaignStore(dir_a).export_columns()
    b = CampaignStore(dir_b).export_columns()
    assert set(a) == set(b)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), f"column {name} differs"


class TestRunAndResume:
    def test_uninterrupted_run_completes(self, tmp_path):
        stats = run_campaign(str(tmp_path / "camp"), make_spec())
        plan = plan_shards(make_spec())
        assert stats.complete and not stats.interrupted
        assert stats.shards_executed == len(plan)
        assert stats.shards_skipped == 0
        assert stats.rows_computed == make_spec().total_instances
        assert stats.rows_recomputed == 0

    def test_rerun_of_a_complete_campaign_executes_nothing(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory, make_spec())
        again = run_campaign(directory, make_spec())
        assert again.shards_executed == 0
        assert again.rows_computed == 0
        assert again.shards_skipped == again.shards_planned

    def test_resume_loads_the_stored_spec(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory, make_spec(), max_shards=2)
        stats = run_campaign(directory)  # no spec: a resume
        assert stats.complete
        assert stats.shards_skipped == 2

    def test_resume_without_directory_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="not a campaign directory"):
            run_campaign(str(tmp_path / "missing"))

    def test_max_shards_interrupts_cleanly(self, tmp_path):
        stats = run_campaign(str(tmp_path / "camp"), make_spec(), max_shards=2)
        assert stats.interrupted and not stats.complete
        assert stats.shards_executed == 2

    def test_interrupt_resume_is_bit_identical_with_zero_recompute(self, tmp_path):
        """The headline acceptance: kill partway, resume, compare everything."""
        from repro.motion import compiler as motion_compiler

        straight, resumed = str(tmp_path / "straight"), str(tmp_path / "resumed")
        spec = make_spec()
        run_campaign(straight, spec)

        first = run_campaign(resumed, spec, max_shards=3)
        assert first.interrupted and first.shards_executed == 3
        before_rows = motion_compiler.rows_compiled_total()
        second = run_campaign(resumed, spec)
        assert second.complete
        # Zero finished shards recomputed, pinned by every counter we have:
        assert second.shards_skipped == 3
        assert second.rows_recomputed == 0
        assert first.rows_computed + second.rows_computed == spec.total_instances
        assert set(first.executed_shard_ids).isdisjoint(second.executed_shard_ids)
        # ... and the resumed store is byte-for-byte the uninterrupted one.
        identical_stores(straight, resumed)
        assert motion_compiler.rows_compiled_total() >= before_rows  # sanity

    def test_crash_via_shard_hook_then_resume(self, tmp_path):
        """A mid-campaign exception leaves a valid, resumable directory."""
        straight, crashed = str(tmp_path / "straight"), str(tmp_path / "crashed")
        spec = make_spec()
        run_campaign(straight, spec)

        executed = []

        def dying_hook(shard):
            if len(executed) == 2:
                raise RuntimeError("simulated crash between checkpoints")
            executed.append(shard.shard_id)

        with pytest.raises(RuntimeError, match="simulated crash"):
            run_campaign(crashed, spec, shard_hook=dying_hook)
        assert len(CampaignStore(crashed).completed()) == 2

        stats = run_campaign(crashed, spec)
        assert stats.complete
        assert stats.shards_skipped == 2
        assert sorted(executed) == sorted(
            set(s.shard_id for s in plan_shards(spec)) - set(stats.executed_shard_ids)
        )
        identical_stores(straight, crashed)

    def test_shard_partition_does_not_change_stored_results(self, tmp_path):
        """Same campaign at shard_size 3 vs 8: identical per-row columns."""
        small, large = str(tmp_path / "small"), str(tmp_path / "large")
        run_campaign(small, make_spec(shard_size=3))
        run_campaign(large, make_spec(shard_size=8))
        a = CampaignStore(small).export_columns()
        b = CampaignStore(large).export_columns()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_conflicting_spec_is_refused(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory, make_spec(), max_shards=1)
        with pytest.raises(CampaignError, match="refusing"):
            run_campaign(directory, make_spec(seed=99))


class TestCachePolicy:
    @pytest.fixture
    def fresh_caches(self, monkeypatch):
        monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})

    @staticmethod
    def two_arm_spec():
        # Two arms of one algorithm simulate the same instance stream, so
        # the second asks for every B-side compiler the first one built.
        return make_spec(
            arms=(
                CampaignArm(algorithm="almost-universal-compact", label="first"),
                CampaignArm(algorithm="almost-universal-compact", label="second"),
            )
        )

    def test_single_arm_campaign_admits_only_a_side(self, tmp_path, fresh_caches):
        # No later arm asks for a B-side spec again: only agent A's
        # compiler, shared by every instance, enters the cross-call cache.
        stats = run_campaign(str(tmp_path / "camp"), make_spec())
        assert stats.complete
        assert "cache_policy" not in stats.as_dict()
        assert rounds._COMPILER_CACHE
        assert all(spec_key.name == "A" for _, spec_key in rounds._COMPILER_CACHE)
        assert rounds._SHARED_ONLY is False  # the scope ends with the shard

    def test_repeated_algorithm_reuses_b_side_compilers(self, tmp_path, fresh_caches):
        from repro.motion import compiler as motion_compiler

        directory, spec = str(tmp_path / "camp"), self.two_arm_spec()
        first_arm = sum(1 for shard in plan_shards(spec) if shard.arm_index == 0)
        run_campaign(directory, spec, max_shards=first_arm)
        assert any(spec_key.name == "B" for _, spec_key in rounds._COMPILER_CACHE)
        before = motion_compiler.rows_compiled_total()
        assert run_campaign(directory).complete
        assert motion_compiler.rows_compiled_total() == before

    def test_b_side_beyond_the_entry_cap_is_not_admitted(
        self, tmp_path, fresh_caches, monkeypatch
    ):
        # 2 classes x 8 instances + agent A = 17 compilers; a 16-entry cache
        # could not keep them until the second arm, so only A is admitted.
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_LIMIT", 16)
        assert run_campaign(str(tmp_path / "camp"), self.two_arm_spec()).complete
        assert rounds._COMPILER_CACHE
        assert all(spec_key.name == "A" for _, spec_key in rounds._COMPILER_CACHE)

    @pytest.mark.parametrize(
        "algorithms, limit, shared_only",
        [
            # One arm: no later shard asks for a B-side spec again.
            (("almost-universal-compact",), 4096, True),
            # A repeated algorithm re-uses its 2 x 8 + 1 = 17 compilers.
            (("almost-universal-compact",) * 2, 4096, False),
            (("almost-universal-compact",) * 2, 17, False),
            (("almost-universal-compact",) * 2, 16, True),
            # Distinct algorithms never share a compiler.
            (("almost-universal-compact", "almost-universal"), 4096, True),
            # Between the repeats the other algorithm's 17 entries arrive too.
            (("almost-universal-compact", "almost-universal") * 2, 34, False),
            (("almost-universal-compact", "almost-universal") * 2, 33, True),
        ],
    )
    def test_scope_follows_from_the_spec(self, monkeypatch, algorithms, limit, shared_only):
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_LIMIT", limit)
        arms = tuple(
            CampaignArm(algorithm=name, label=f"arm-{index}")
            for index, name in enumerate(algorithms)
        )
        with shard_cache_scope(make_spec(arms=arms)):
            assert rounds._SHARED_ONLY is shared_only
        assert rounds._SHARED_ONLY is False

    @pytest.mark.parametrize("workers", [1, 2])
    def test_admission_does_not_change_stored_results(
        self, tmp_path, monkeypatch, workers
    ):
        admitted, restricted = str(tmp_path / "admitted"), str(tmp_path / "restricted")
        run_campaign(admitted, self.two_arm_spec(), workers=workers)
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_LIMIT", 16)
        run_campaign(restricted, self.two_arm_spec(), workers=workers)
        identical_stores(admitted, restricted)

    @pytest.mark.parametrize("family", ["section5", "stalling"])
    def test_experiment_campaigns_match_across_admission(
        self, tmp_path, monkeypatch, fresh_caches, family
    ):
        # The ratio grid freezes on shared B-side tables and the stalling
        # sweep stalls them; neither may alter a cached table for later arms.
        from repro.experiments.scenarios import stalling_campaign_spec
        from repro.experiments.section5 import asymmetric_campaign_spec

        build = asymmetric_campaign_spec if family == "section5" else stalling_campaign_spec
        spec = build(samples_per_type=3, seed=5, max_segments=20_000, shard_size=2)
        admitted, restricted = str(tmp_path / "admitted"), str(tmp_path / "restricted")
        with shard_cache_scope(spec):
            assert rounds._SHARED_ONLY is False
        run_campaign(admitted, spec)
        assert any(spec_key.name == "B" for _, spec_key in rounds._COMPILER_CACHE)
        rounds._COMPILER_CACHE.clear()
        rounds._BUILDER_CACHE.clear()
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_LIMIT", 1)
        run_campaign(restricted, spec)
        identical_stores(admitted, restricted)


class TestFreezeHeavyExactCrossCheck:
    """Float-vectorized vs exact-event freeze columns on identical instances.

    Doubles as the ROADMAP's "exact-timebase asymmetric cross-check": the
    exact arm bounds the event engine's accumulated error around freeze
    events, and the campaign machinery guarantees both arms simulated the
    *same* sampled instances (class-keyed streams).
    """

    @pytest.fixture(scope="class")
    def columns(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("freeze") / "camp")
        spec = freeze_heavy_spec()
        # Interrupt and resume mid-way so the cross-check also exercises the
        # checkpoint path for asymmetric and exact shards.
        run_campaign(directory, spec, max_shards=3)
        stats = run_campaign(directory)
        assert stats.complete
        return CampaignStore(directory).export_columns()

    def test_instances_match_across_arms(self, columns):
        float_arm, exact_arm = columns["arm"] == 0, columns["arm"] == 1
        for name in ("instance_r", "instance_x", "instance_y", "instance_t"):
            assert np.array_equal(columns[name][float_arm], columns[name][exact_arm])

    def test_shard_runs_froze(self, columns):
        float_arm = columns["arm"] == 0
        assert (columns["frozen"][float_arm] >= 0).sum() >= 3

    def test_exact_event_agrees_with_vectorized_float(self, columns):
        float_arm, exact_arm = columns["arm"] == 0, columns["arm"] == 1
        assert np.array_equal(columns["met"][float_arm], columns["met"][exact_arm])
        mt_f, mt_e = columns["meeting_time"][float_arm], columns["meeting_time"][exact_arm]
        both = ~np.isnan(mt_f) & ~np.isnan(mt_e)
        assert np.allclose(mt_f[both], mt_e[both], rtol=1e-9, atol=1e-12)
        md_f, md_e = columns["min_distance"][float_arm], columns["min_distance"][exact_arm]
        finite = np.isfinite(md_f) & np.isfinite(md_e)
        assert np.allclose(md_f[finite], md_e[finite], rtol=1e-9, atol=1e-12)


class TestPhaseObservability:
    """REPRO_OBS=on: manifests gain phase slices; results must not change."""

    def test_inline_run_records_wall_phase_slices(self, tmp_path):
        from repro.obs.core import _override_mode
        from repro.obs.phases import WALL_PHASES

        directory = str(tmp_path / "camp")
        with _override_mode("on"):
            stats = run_campaign(directory, make_spec())
        assert stats.complete
        records = CampaignStore(directory).completed()
        assert records
        for record in records.values():
            phases = record["phases"]
            # The inline loop collects only the wall-window leaves — the
            # umbrella span and lease/store_write stay out of the bucket.
            assert set(phases) <= set(WALL_PHASES)
            assert "engine.kernel_solve" in phases
            attributed = sum(phases.get(key, 0.0) for key in WALL_PHASES)
            assert 0.0 < attributed <= record["wall_seconds"] + 1e-6

    def test_instrumented_store_is_byte_identical_to_off(self, tmp_path):
        from repro.obs.core import _override_mode

        plain, traced = str(tmp_path / "off"), str(tmp_path / "on")
        with _override_mode("off"):
            run_campaign(plain, make_spec())
        with _override_mode("on"):
            run_campaign(traced, make_spec())
        identical_stores(plain, traced)

    def test_off_mode_manifest_carries_no_phases(self, tmp_path):
        from repro.obs.core import _override_mode

        directory = str(tmp_path / "camp")
        with _override_mode("off"):
            run_campaign(directory, make_spec())
        for record in CampaignStore(directory).completed().values():
            assert "phases" not in record
