"""Cross-call compiler cache: hits, bit-parity, bounds and eviction.

PR 4 promoted :class:`~repro.motion.compiler.IncrementalTableCompiler` state
into a cross-call cache keyed by ``(program_cache_key, spec)`` (alongside the
builder cache in :mod:`repro.sim.rounds`), so repeated campaigns — BatchRunner
re-runs, sweep grids, CLI experiments — skip trajectory recompilation
entirely.  Pinned here: an identical repeated campaign compiles *zero* new
rows, cached and fresh runs are bit-identical, the cache serves shorter *and*
longer prefixes than any previous run, non-universal programs never enter the
cache, and the entry/row bounds evict LRU-first without pinning an oversized
entry.
"""

import math

import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.motion import compiler as motion_compiler
from repro.motion.compiler import IncrementalTableCompiler, LocalProgramBuilder
from repro.motion.instructions import Move
from repro.motion.program import instruction_blocks
from repro.sim import rounds
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric

MAX_TIME = 1e5
MAX_SEGMENTS = 30_000


@pytest.fixture
def fresh_caches(monkeypatch):
    """Run against empty cross-call caches (other suites may have warmed them)."""
    monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
    monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})


def _campaign(seed=21, count=4, cls=InstanceClass.TYPE_2):
    return InstanceSampler(seed=seed).batch_of_class(cls, count)


def _fields(result):
    """Every outcome scalar, compared *exactly* — the cache claims bit-parity."""
    return (
        result.met,
        result.meeting_time,
        result.termination,
        result.min_distance,
        result.min_distance_time,
        result.simulated_time,
        result.segments_a,
        result.segments_b,
        result.windows_processed,
    )


class TestCompilerCacheHits:
    def test_repeated_campaign_recompiles_zero_rows(self, fresh_caches):
        instances = _campaign()
        algorithm = get_algorithm("almost-universal-compact")
        simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        after_first = motion_compiler.rows_compiled_total()
        simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        assert motion_compiler.rows_compiled_total() == after_first

    def test_repeated_asymmetric_campaign_recompiles_zero_rows(self, fresh_caches):
        instances = _campaign(seed=3)
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(
            radius_b=[instance.r * 0.5 for instance in instances],
            max_time=MAX_TIME,
            max_segments=MAX_SEGMENTS,
        )
        simulate_batch_asymmetric(instances, algorithm, **kwargs)
        after_first = motion_compiler.rows_compiled_total()
        simulate_batch_asymmetric(instances, algorithm, **kwargs)
        assert motion_compiler.rows_compiled_total() == after_first

    def test_cached_run_bit_identical_to_fresh(self, fresh_caches):
        instances = _campaign(seed=5)
        algorithm = get_algorithm("almost-universal-compact")
        fresh = simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        cached = simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        for f, c in zip(fresh, cached):
            assert _fields(f) == _fields(c)

    def test_cached_compiler_serves_shorter_prefixes(self, fresh_caches):
        # A smaller follow-up campaign requests *shorter* trajectory prefixes
        # than the cached compilers have already compiled; snapshots must
        # still be bit-identical to a from-scratch run.
        instances = _campaign(seed=9, count=4)
        algorithm = get_algorithm("almost-universal-compact")
        reference = simulate_batch(
            instances[:2], algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        replay = simulate_batch(
            instances[:2], algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        for r, p in zip(reference, replay):
            assert _fields(r) == _fields(p)

    def test_non_universal_programs_never_enter_the_cache(self, fresh_caches):
        def bespoke(instance, spec, role):  # bare callable: not universal
            return [Move(5.0, 0.0)]

        simulate_batch([Instance(r=0.5, x=2.0, y=0.0)], bespoke, max_time=10.0)
        assert rounds._COMPILER_CACHE == {}

    def test_universal_without_cache_key_not_cached(self, fresh_caches):
        from repro.algorithms.base import UniversalAlgorithm

        class Keyless(UniversalAlgorithm):
            name = "keyless-walk"

            def program(self):
                yield Move(20.0, 0.0)

        simulate_batch([Instance(r=0.5, x=2.0, y=0.0)], Keyless(), max_time=50.0)
        assert rounds._COMPILER_CACHE == {}


def _compiler_with_rows(rows: int) -> IncrementalTableCompiler:
    spec = Instance(r=0.5, x=1.0, y=0.0).agents()[0]
    compiler = IncrementalTableCompiler(spec)
    program = instruction_blocks(Move(1.0, 0.0) for _ in range(rows))
    compiler.table(LocalProgramBuilder(program).snapshot(math.inf))
    assert compiler.rows_compiled == rows
    return compiler


class TestCompilerCacheBounds:
    def test_single_oversized_entry_is_evicted(self, monkeypatch):
        monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_ROW_LIMIT", 8)
        rounds._COMPILER_CACHE["huge"] = _compiler_with_rows(20)
        rounds._trim_compiler_cache()
        assert rounds._COMPILER_CACHE == {}  # not pinned for the process lifetime

    def test_single_entry_within_budget_is_retained(self, monkeypatch):
        monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_ROW_LIMIT", 8)
        rounds._COMPILER_CACHE["small"] = _compiler_with_rows(5)
        rounds._trim_compiler_cache()
        assert set(rounds._COMPILER_CACHE) == {"small"}

    def test_lru_eviction_stops_once_within_budget(self, monkeypatch):
        monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_ROW_LIMIT", 8)
        rounds._COMPILER_CACHE["old"] = _compiler_with_rows(5)
        rounds._COMPILER_CACHE["new"] = _compiler_with_rows(5)
        rounds._trim_compiler_cache()
        assert set(rounds._COMPILER_CACHE) == {"new"}  # LRU order: oldest first

    def test_entry_limit_evicts_lru_first(self, monkeypatch):
        monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_LIMIT", 2)
        for name in ("a", "b", "c"):
            rounds._COMPILER_CACHE[name] = _compiler_with_rows(1)
        rounds._trim_compiler_cache()
        assert list(rounds._COMPILER_CACHE) == ["b", "c"]

    def test_end_to_end_oversized_compiler_not_pinned(self, monkeypatch):
        # Compilers grow *after* insertion; the engines' post-run re-trim
        # (trim_compiler_cache) must evict entries that outgrew the budget.
        monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE", {})
        monkeypatch.setattr(rounds, "_COMPILER_CACHE_ROW_LIMIT", 4)
        instance = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0, chi=1, t=0.5)
        results = simulate_batch(
            [instance], get_algorithm("almost-universal-compact"),
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
        )
        assert results[0].met  # the run itself is unaffected by the eviction
        # The compilers that outgrew the budget were evicted by the post-run
        # trim; whatever remains (a small late-inserted entry may survive)
        # fits the row budget.
        retained = sum(
            c.rows_compiled for c in rounds._COMPILER_CACHE.values()
        )
        assert retained <= 4


class TestCacheAdmissionPolicy:
    """The A-only scope: only agent A's compiler enters the cache.

    Campaign shards whose B-side specs no later shard asks for again run
    inside it, so single-use B-side compilers do not evict the one entry
    every shard re-uses.  Direct engine calls keep admitting every spec —
    pinned here via the rows-compiled counter.
    """

    def test_policy_is_scoped_and_restored(self):
        assert rounds._SHARED_ONLY is False
        with rounds.compiler_cache_admission():
            assert rounds._SHARED_ONLY is True
            with rounds.compiler_cache_admission():
                assert rounds._SHARED_ONLY is True
            assert rounds._SHARED_ONLY is True
        assert rounds._SHARED_ONLY is False

    def test_policy_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with rounds.compiler_cache_admission():
                raise RuntimeError("shard died")
        assert rounds._SHARED_ONLY is False

    def test_shared_only_caches_only_agent_a_specs(self, fresh_caches):
        instances = _campaign()
        algorithm = get_algorithm("almost-universal-compact")
        with rounds.compiler_cache_admission():
            simulate_batch(
                instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
            )
        assert rounds._COMPILER_CACHE, "the shared A-side compiler must be admitted"
        assert all(spec.name == "A" for _, spec in rounds._COMPILER_CACHE)

    def test_rows_recompiled_counter_pins_the_policy(self, fresh_caches):
        """The scope recompiles exactly the B side on repeat; direct calls nothing."""
        instances = _campaign()
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)

        with rounds.compiler_cache_admission():
            before = motion_compiler.rows_compiled_total()
            simulate_batch(instances, algorithm, **kwargs)
            cold_rows = motion_compiler.rows_compiled_total() - before
            simulate_batch(instances, algorithm, **kwargs)
            recompiled = motion_compiler.rows_compiled_total() - before - cold_rows
        # B-side trajectories were not retained -> some rows recompile ...
        assert recompiled > 0
        # ... but strictly fewer than a cold run: the admitted A-side
        # compiler (and the builder cache) still serve their rows.
        assert recompiled < cold_rows

        # Same campaign outside the scope: zero rows on repeat.
        rounds._COMPILER_CACHE.clear()
        rounds._BUILDER_CACHE.clear()
        simulate_batch(instances, algorithm, **kwargs)
        after_cold = motion_compiler.rows_compiled_total()
        simulate_batch(instances, algorithm, **kwargs)
        assert motion_compiler.rows_compiled_total() == after_cold

    def test_results_do_not_depend_on_the_policy(self, fresh_caches):
        instances = _campaign(seed=9)
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        with rounds.compiler_cache_admission():
            restricted = simulate_batch(instances, algorithm, **kwargs)
        rounds._COMPILER_CACHE.clear()
        rounds._BUILDER_CACHE.clear()
        default = simulate_batch(instances, algorithm, **kwargs)
        for a, b in zip(restricted, default):
            assert _fields(a) == _fields(b)
