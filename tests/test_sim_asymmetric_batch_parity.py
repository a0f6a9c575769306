"""Parity suite for the asymmetric-radius batch engine, plus PR-2 satellites.

The asymmetric batch engine's contract mirrors the symmetric one: ``met``,
the meeting time (to 1e-9 relative), the termination reason, the closest
approach *and* the freeze event (agent / time / distance) agree with the
event-driven :func:`repro.sim.asymmetric.simulate_asymmetric` on every
float-timebase run — across all sampler classes and a grid of per-agent
radius ratios, including the degenerate equal-radius case (which must match
the symmetric engine exactly) and invalid zero radii (which both engines must
reject).  Also covered here: the engine selectors and ``BatchRunner`` routing
for asymmetric tasks, the Section 5 sweep experiment, the builder-cache
single-entry eviction bound, and the ``batch_interchangeable`` grouping
opt-in.
"""

import math

import pytest

from repro.algorithms.base import UniversalAlgorithm
from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.motion.compiler import LocalProgramBuilder
from repro.motion.program import instruction_blocks
from repro.motion.instructions import Move
from repro.parallel.runner import BatchRunner, BatchTask, run_batch
from repro.sim import rounds
from repro.sim.asymmetric import simulate_asymmetric
from repro.sim.batch import batch_group_key, simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import RendezvousSimulator, simulate
from repro.sim.results import TerminationReason
from repro.util.errors import KnowledgeError

MAX_TIME = 1e5
MAX_SEGMENTS = 30_000

ALL_CLASSES = (
    InstanceClass.TRIVIAL,
    InstanceClass.TYPE_1,
    InstanceClass.TYPE_2,
    InstanceClass.TYPE_3,
    InstanceClass.TYPE_4,
    InstanceClass.S1_BOUNDARY,
    InstanceClass.S2_BOUNDARY,
    InstanceClass.INFEASIBLE,
)

#: Radius ratios ``r_b / r_a`` swept by the cross-class parity test: the
#: equal-radius degenerate case, a moderate and a strong asymmetry.
RATIOS = (1.0, 0.5, 0.2)


class WalkEast(UniversalAlgorithm):
    name = "walk-east"

    def __init__(self, distance=20.0):
        self.distance = distance

    def program(self):
        yield Move(self.distance, 0.0)


def assert_outcomes_match(event, batch, *, rel=1e-9):
    __tracebackhide__ = True
    assert batch.met == event.met
    assert batch.result.termination == event.result.termination
    assert batch.frozen_agent == event.frozen_agent
    if event.met:
        assert batch.meeting_time == pytest.approx(event.meeting_time, rel=rel, abs=rel)
    if event.freeze_time is not None:
        assert batch.freeze_time == pytest.approx(event.freeze_time, rel=rel, abs=rel)
        assert batch.freeze_distance == pytest.approx(
            event.freeze_distance, rel=1e-6, abs=1e-6
        )
    if math.isfinite(event.result.min_distance):
        assert batch.result.min_distance == pytest.approx(
            event.result.min_distance, rel=rel, abs=rel
        )


class TestAsymmetricParityAcrossClasses:
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_all_sampler_classes(self, ratio):
        sampler = InstanceSampler(seed=77)
        for cls in ALL_CLASSES:
            instances = sampler.batch_of_class(cls, 2)
            algorithm = get_algorithm("almost-universal-compact")
            event = [
                simulate_asymmetric(
                    instance,
                    algorithm,
                    radius_a=instance.r,
                    radius_b=instance.r * ratio,
                    max_time=MAX_TIME,
                    max_segments=MAX_SEGMENTS,
                    radius_slack=1e-9,
                )
                for instance in instances
            ]
            batch = simulate_batch_asymmetric(
                instances,
                get_algorithm("almost-universal-compact"),
                radius_a=[instance.r for instance in instances],
                radius_b=[instance.r * ratio for instance in instances],
                max_time=MAX_TIME,
                max_segments=MAX_SEGMENTS,
                radius_slack=1e-9,
            )
            for e, b in zip(event, batch):
                assert_outcomes_match(e, b)

    @pytest.mark.parametrize(
        "algorithm_name", ("stay-put", "wait-and-sweep", "dedicated", "cgkk")
    )
    def test_algorithm_spread(self, algorithm_name):
        sampler = InstanceSampler(seed=1234)
        for cls in (InstanceClass.TYPE_2, InstanceClass.TYPE_3, InstanceClass.INFEASIBLE):
            instances = sampler.batch_of_class(cls, 2)
            algorithm = get_algorithm(algorithm_name)
            try:
                event = [
                    simulate_asymmetric(
                        instance,
                        algorithm,
                        radius_a=instance.r,
                        radius_b=instance.r * 0.4,
                        max_time=MAX_TIME,
                        max_segments=MAX_SEGMENTS,
                        radius_slack=1e-9,
                    )
                    for instance in instances
                ]
            except KnowledgeError:
                continue  # dedicated witness not applicable to this class
            batch = simulate_batch_asymmetric(
                instances,
                get_algorithm(algorithm_name),
                radius_a=[instance.r for instance in instances],
                radius_b=[instance.r * 0.4 for instance in instances],
                max_time=MAX_TIME,
                max_segments=MAX_SEGMENTS,
                radius_slack=1e-9,
            )
            for e, b in zip(event, batch):
                assert_outcomes_match(e, b)

    def test_larger_radius_on_agent_b(self):
        # The frozen agent is whichever holds the larger radius — here B.
        sampler = InstanceSampler(seed=9)
        instances = sampler.batch_of_class(InstanceClass.TYPE_4, 3)
        algorithm = get_algorithm("almost-universal-compact")
        event = [
            simulate_asymmetric(
                instance, algorithm,
                radius_a=instance.r * 0.3, radius_b=instance.r,
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS, radius_slack=1e-9,
            )
            for instance in instances
        ]
        batch = simulate_batch_asymmetric(
            instances, algorithm,
            radius_a=[i.r * 0.3 for i in instances],
            radius_b=[i.r for i in instances],
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS, radius_slack=1e-9,
        )
        for e, b in zip(event, batch):
            assert_outcomes_match(e, b)
            if b.frozen_agent is not None:
                assert b.frozen_agent == "B"

    def test_max_segments_budget_matches_event_engine(self):
        instance = Instance(r=0.25, x=50.0, y=0.0, t=0.1)
        algorithm = get_algorithm("almost-universal-compact")
        event = simulate_asymmetric(
            instance, algorithm, radius_a=0.25, radius_b=0.1,
            max_time=1e9, max_segments=500,
        )
        batch = simulate_batch_asymmetric(
            [instance], algorithm, radius_a=0.25, radius_b=0.1,
            max_time=1e9, max_segments=500,
        )[0]
        assert event.result.termination == TerminationReason.MAX_SEGMENTS
        assert batch.result.termination == TerminationReason.MAX_SEGMENTS
        assert batch.result.simulated_time == pytest.approx(
            event.result.simulated_time, rel=1e-9
        )


def _result_fields(result):
    """Every deterministic field of a result: all but the name and wall time."""
    return (
        result.met,
        result.termination,
        result.meeting_time,
        result.meeting_point_a,
        result.meeting_point_b,
        result.min_distance,
        result.min_distance_time,
        result.simulated_time,
        result.segments_a,
        result.segments_b,
        result.windows_processed,
    )


class TestDegenerateCasesAndErrors:
    def test_equal_radii_match_symmetric_batch(self):
        # Both entry points share one round driver: with equal radii every
        # result field but the name and the wall time must be identical.
        sampler = InstanceSampler(seed=5)
        instances = []
        for cls in (InstanceClass.TYPE_1, InstanceClass.TYPE_2,
                    InstanceClass.TYPE_3, InstanceClass.TYPE_4):
            instances.extend(sampler.batch_of_class(cls, 3))
        algorithm = get_algorithm("almost-universal-compact")
        budgets = dict(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        scenarios = (
            {},
            {"speed_a": 1.7, "speed_b": [0.6 + 0.1 * k for k in range(len(instances))]},
            {"stall_agent": "B", "stall_time": 3.0, "stall_duration": 12.5},
        )
        for scenario in scenarios:
            symmetric = simulate_batch(instances, algorithm, **budgets, **scenario)
            asymmetric = simulate_batch_asymmetric(
                instances, algorithm, **budgets, **scenario
            )
            for s, a in zip(symmetric, asymmetric):
                assert a.frozen_agent is None  # equal radii never freeze
                assert _result_fields(a.result) == _result_fields(s), scenario

    @pytest.mark.parametrize("ratio", [None, 0.4])
    def test_multi_chunk_rounds_match_default_chunking(self, ratio, monkeypatch):
        # Chunk boundaries cap kernel memory and must never change a result:
        # with a 256-window cap every round splits into many kernel calls,
        # and both entry points must reproduce the single-chunk run bit for
        # bit (freeze events included when the radii differ).
        sampler = InstanceSampler(seed=7)
        instances = []
        for cls in (InstanceClass.TYPE_1, InstanceClass.TYPE_2,
                    InstanceClass.TYPE_3, InstanceClass.TYPE_4):
            instances.extend(sampler.batch_of_class(cls, 5))
        algorithm = get_algorithm("almost-universal-compact")
        budgets = dict(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)

        def run():
            if ratio is None:
                results = simulate_batch(instances, algorithm, **budgets)
                return [_result_fields(result) for result in results]
            outcomes = simulate_batch_asymmetric(
                instances, algorithm,
                radius_a=[instance.r for instance in instances],
                radius_b=[instance.r * ratio for instance in instances],
                **budgets,
            )
            return [
                (o.frozen_agent, o.freeze_time, o.freeze_distance,
                 _result_fields(o.result))
                for o in outcomes
            ]

        default = run()
        monkeypatch.setattr(rounds, "KERNEL_CHUNK_WINDOWS", 256)
        assert run() == default

    def test_zero_radius_ratio_rejected_by_both_engines(self):
        instance = Instance(r=0.5, x=2.0, y=0.0)
        algorithm = get_algorithm("stay-put")
        with pytest.raises(ValueError):
            simulate_asymmetric(instance, algorithm, radius_b=0.0)
        with pytest.raises(ValueError):
            simulate_batch_asymmetric([instance], algorithm, radius_b=0.0)
        with pytest.raises(ValueError):
            simulate_batch_asymmetric([instance], algorithm, radius_a=-1.0)

    def test_radius_shape_mismatch_rejected(self):
        instances = [Instance(r=0.5, x=2.0, y=0.0)] * 3
        with pytest.raises(ValueError):
            simulate_batch_asymmetric(
                instances, get_algorithm("stay-put"), radius_a=[0.5, 0.5]
            )

    def test_invalid_budgets_rejected(self):
        instance = Instance(r=0.5, x=1.0, y=0.0)
        algorithm = get_algorithm("stay-put")
        with pytest.raises(ValueError):
            simulate_batch_asymmetric([instance], algorithm, max_time=math.inf)
        with pytest.raises(ValueError):
            simulate_batch_asymmetric([instance], algorithm, max_segments=0)
        with pytest.raises(ValueError):
            simulate_batch_asymmetric([instance], algorithm, radius_slack=-1.0)

    def test_empty_batch(self):
        assert simulate_batch_asymmetric([], get_algorithm("stay-put")) == []

    @pytest.mark.parametrize("entry_point", [simulate_batch, simulate_batch_asymmetric])
    @pytest.mark.parametrize(
        "options",
        [
            {"stall_agent": "C", "stall_time": 1.0, "stall_duration": 1.0},
            {"stall_agent": "A", "stall_time": -1.0, "stall_duration": 1.0},
            {"stall_agent": "A", "stall_time": 1.0, "stall_duration": 0.0},
            {"speed_a": -1.0},
            {"speed_b": math.nan},
            {"radius_slack": math.nan},
            {"max_time": math.inf},
            {"max_segments": 0},
            {"initial_horizon": -1.0},
        ],
    )
    def test_empty_batch_validates_options(self, entry_point, options):
        # An empty batch rejects every option a one-instance batch rejects.
        algorithm = get_algorithm("stay-put")
        with pytest.raises(ValueError):
            entry_point([Instance(r=0.5, x=2.0, y=0.0)], algorithm, **options)
        with pytest.raises(ValueError):
            entry_point([], algorithm, **options)

    def test_empty_batch_validates_radii(self):
        for radii in ({"radius_a": 0.0}, {"radius_b": math.inf}, {"radius_b": [0.5]}):
            with pytest.raises(ValueError):
                simulate_batch_asymmetric([], get_algorithm("stay-put"), **radii)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "engine, option",
        [
            ("event", "radius_a"),
            ("event", "radius_slack"),
            ("event-asymmetric", "radius_a"),
            ("event-asymmetric", "radius_slack"),
            ("batch", "radius_slack"),  # its radii are the instances' own r
            ("batch-asymmetric", "radius_a"),
            ("batch-asymmetric", "radius_slack"),
        ],
    )
    def test_non_finite_radius_and_slack_rejected(self, engine, option, bad):
        # The campaign spec's rule, applied by every engine: radii positive
        # and finite, slack finite and non-negative.
        instance = InstanceSampler(seed=7).batch_of_class(InstanceClass.TYPE_1, 1)[0]
        algorithm = get_algorithm("almost-universal-compact")
        budgets = dict(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        run = {
            "event": lambda **kw: RendezvousSimulator(**budgets, **kw).run(
                instance, algorithm
            ),
            "event-asymmetric": lambda **kw: simulate_asymmetric(
                instance, algorithm, **budgets, **kw
            ),
            "batch": lambda **kw: simulate_batch([instance], algorithm, **budgets, **kw),
            "batch-asymmetric": lambda **kw: simulate_batch_asymmetric(
                [instance], algorithm, **budgets, **kw
            ),
        }[engine]
        with pytest.raises(ValueError):
            run(**{option: bad})

    def test_trivial_instance_meets_at_time_zero_without_freeze(self):
        # Initial distance within the smaller radius: met at t=0, no freeze.
        instance = Instance(r=2.0, x=1.0, y=0.0)
        outcome = simulate_batch_asymmetric(
            [instance], get_algorithm("stay-put"),
            radius_a=2.0, radius_b=1.5, max_time=10.0,
        )[0]
        assert outcome.met and outcome.meeting_time == 0.0
        assert outcome.frozen_agent is None

    def test_initial_distance_between_radii_freezes_at_time_zero(self):
        # Within the larger radius but outside the smaller one: A freezes
        # immediately at its start position.
        instance = Instance(r=2.0, x=1.0, y=0.0)
        outcome = simulate_batch_asymmetric(
            [instance], get_algorithm("stay-put"),
            radius_a=2.0, radius_b=0.5, max_time=10.0,
        )[0]
        assert not outcome.met
        assert outcome.frozen_agent == "A"
        assert outcome.freeze_time == 0.0
        assert outcome.freeze_distance == pytest.approx(1.0)

    def test_track_min_distance_off(self):
        sampler = InstanceSampler(seed=3)
        instances = sampler.batch_of_class(InstanceClass.TYPE_1, 3)
        algorithm = get_algorithm("almost-universal-compact")
        tracked = simulate_batch_asymmetric(
            instances, algorithm,
            radius_b=[i.r * 0.5 for i in instances],
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
        )
        untracked = simulate_batch_asymmetric(
            instances, algorithm,
            radius_b=[i.r * 0.5 for i in instances],
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            track_min_distance=False,
        )
        for a, b in zip(tracked, untracked):
            assert a.met == b.met
            assert a.meeting_time == b.meeting_time
            assert a.frozen_agent == b.frozen_agent
            assert math.isinf(b.result.min_distance)


class TestFreezeSemantics:
    def test_larger_radius_agent_freezes_first(self):
        # B sleeps 10 time units; A walks east towards B.  A (radius 2) sees B
        # at distance 2 and freezes; it never gets within B's radius 0.5, and
        # the walk-east program gives B no chance to close the gap afterwards.
        instance = Instance(r=0.5, x=5.0, y=0.0, t=10.0)
        outcome = simulate_batch_asymmetric(
            [instance], WalkEast(4.0), radius_a=2.0, radius_b=0.5, max_time=100.0
        )[0]
        assert outcome.frozen_agent == "A"
        assert outcome.freeze_time == pytest.approx(3.0)
        assert outcome.freeze_distance == pytest.approx(2.0)
        assert not outcome.met
        assert outcome.result.termination is TerminationReason.PROGRAMS_FINISHED

    def test_rendezvous_at_smaller_radius_after_freeze(self):
        # Same setup but B's later walk passes through A's frozen position.
        instance = Instance(r=0.5, x=5.0, y=0.0, t=10.0, phi=math.pi)
        outcome = simulate_batch_asymmetric(
            [instance], WalkEast(6.0), radius_a=2.0, radius_b=0.5, max_time=100.0
        )[0]
        assert outcome.frozen_agent == "A"
        assert outcome.met
        assert outcome.result.meeting_distance == pytest.approx(0.5)
        assert outcome.meeting_time == pytest.approx(10.0 + (5.0 - 3.0) - 0.5)

    @pytest.mark.parametrize(
        "instance, radius_a",
        [
            # After A freezes, B grazes A's frozen position at exactly the
            # meeting radius: the crossing is decided below float rounding,
            # so the engines agree only on bit-identical window inputs (the
            # freeze position and the trajectory rows).
            (Instance(r=1.0, x=0.5, y=-1.5, phi=0.0, tau=1.0, v=1.0, chi=-1), 1.0),
            (Instance(r=1.0, x=0.5, y=-1.453916191745678, phi=0.0, tau=1.375,
                      v=1.5, chi=-1), 1.5),
        ],
    )
    def test_grazing_after_freeze_matches_event_engine_exactly(self, instance, radius_a):
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(radius_a=radius_a, radius_b=0.5, max_time=1e4, max_segments=10_000)
        event = simulate_asymmetric(instance, algorithm, engine="event", **kwargs)
        batch = simulate_asymmetric(instance, algorithm, engine="vectorized", **kwargs)
        assert event.frozen_agent == batch.frozen_agent == "A"
        assert (event.freeze_time, event.freeze_distance) == (
            batch.freeze_time, batch.freeze_distance
        )
        assert _result_fields(event.result) == _result_fields(batch.result)

    def test_reports_radii_in_algorithm_name(self):
        instance = Instance(r=0.5, x=2.0, y=0.0, t=3.0)
        outcome = simulate_batch_asymmetric(
            [instance], WalkEast(), radius_a=0.5, radius_b=0.25
        )[0]
        assert "r_a=0.5" in outcome.result.algorithm_name


class TestEngineSelector:
    def test_simulate_asymmetric_vectorized_engine(self, type4_instance):
        algorithm = get_algorithm("almost-universal-compact")
        event = simulate_asymmetric(
            type4_instance, algorithm,
            radius_b=type4_instance.r * 0.5, max_time=MAX_TIME,
        )
        vectorized = simulate_asymmetric(
            type4_instance, algorithm,
            radius_b=type4_instance.r * 0.5, max_time=MAX_TIME,
            engine="vectorized",
        )
        assert_outcomes_match(event, vectorized)

    def test_unknown_engine_rejected(self, type4_instance):
        with pytest.raises(ValueError):
            simulate_asymmetric(
                type4_instance, get_algorithm("stay-put"), engine="warp"
            )

    def test_vectorized_requires_float_timebase(self, type4_instance):
        with pytest.raises(ValueError):
            simulate_asymmetric(
                type4_instance, get_algorithm("stay-put"),
                timebase="exact", engine="vectorized",
            )

    def test_simulator_routes_radius_fields(self, type4_instance):
        event = RendezvousSimulator(
            max_time=MAX_TIME, radius_b=type4_instance.r * 0.5
        ).run(type4_instance, get_algorithm("almost-universal-compact"))
        vectorized = RendezvousSimulator(
            max_time=MAX_TIME, radius_b=type4_instance.r * 0.5,
            engine="vectorized",
        ).run(type4_instance, get_algorithm("almost-universal-compact"))
        assert "r_a=" in event.algorithm_name
        assert vectorized.met == event.met
        assert vectorized.meeting_time == pytest.approx(event.meeting_time, rel=1e-9)

    def test_simulate_wrapper_accepts_radii(self, type4_instance):
        result = simulate(
            type4_instance, get_algorithm("almost-universal-compact"),
            max_time=MAX_TIME, radius_a=type4_instance.r,
            radius_b=type4_instance.r * 0.5, engine="vectorized",
        )
        assert result.met

    def test_asymmetric_rejects_recording(self, type4_instance):
        with pytest.raises(ValueError):
            RendezvousSimulator(
                radius_b=0.1, record_trajectories=True
            ).run(type4_instance, get_algorithm("stay-put"))


class TestBatchRunnerAsymmetric:
    def test_vectorized_routing_matches_event_fallback(self):
        sampler = InstanceSampler(seed=11)
        instances = sampler.batch_of_class(InstanceClass.TYPE_2, 5)
        vectorized = run_batch(
            instances, "almost-universal-compact",
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            radius_a=0.9, radius_b=0.3,
        )
        event = run_batch(
            instances, "almost-universal-compact", engine="event",
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            radius_a=0.9, radius_b=0.3,
        )
        assert len(vectorized) == len(event) == 5
        for a, b in zip(vectorized, event):
            assert a["met"] == b["met"]
            assert a["termination"] == b["termination"]
            assert a["meeting_time"] == pytest.approx(b["meeting_time"], rel=1e-9)
            assert "r_a=0.9" in a["algorithm"] and "r_a=0.9" in b["algorithm"]

    def test_exact_timebase_asymmetric_falls_back_to_event(self):
        tasks = [
            BatchTask.make(
                Instance(r=2.0, x=1.0, y=0.0), "stay-put",
                max_time=10.0, timebase="exact", radius_a=2.0, radius_b=1.5,
            )
        ]
        records = BatchRunner(processes=1).run(tasks)
        assert records[0]["met"] and records[0]["timebase"] == "exact"

    def test_strict_vectorized_accepts_asymmetric_float_tasks(self):
        task = BatchTask.make(
            Instance(r=2.0, x=1.0, y=0.0), "stay-put",
            max_time=10.0, radius_a=2.0, radius_b=1.5,
        )
        records = BatchRunner(engine="vectorized").run([task])
        assert records[0]["met"]


class TestSection5Experiment:
    def test_sweep_small(self):
        from repro.experiments.section5 import run_asymmetric_radius_experiment

        result = run_asymmetric_radius_experiment(
            samples_per_type=2, seed=17, ratios=(1.0, 0.5)
        )
        assert len(result.rows) == 8  # 4 types x 2 ratios
        for row in result.rows:
            assert row["success_rate"] == 1.0, row
            if row["ratio"] == 1.0:
                assert row["freeze_rate"] == 0.0
            else:
                assert row["freeze_rate"] > 0.0

    def test_engines_agree(self):
        from repro.experiments.section5 import run_asymmetric_radius_experiment

        vectorized = run_asymmetric_radius_experiment(
            samples_per_type=2, seed=23, ratios=(0.5,)
        )
        event = run_asymmetric_radius_experiment(
            samples_per_type=2, seed=23, ratios=(0.5,), engine="event"
        )
        for a, b in zip(vectorized.rows, event.rows):
            assert a["success_rate"] == b["success_rate"]
            assert a["freeze_rate"] == b["freeze_rate"]
            assert a["meeting_time_mean"] == pytest.approx(
                b["meeting_time_mean"], rel=1e-9
            )

    def test_unknown_engine_rejected(self):
        from repro.experiments.section5 import run_asymmetric_radius_experiment

        with pytest.raises(ValueError):
            run_asymmetric_radius_experiment(engine="warp")


def _builder_with_rows(rows: int) -> LocalProgramBuilder:
    builder = LocalProgramBuilder(instruction_blocks(Move(1.0, 0.0) for _ in range(rows)))
    builder.ensure_time(math.inf)
    assert len(builder) == rows
    return builder


class TestBuilderCacheBound:
    def test_single_oversized_entry_is_evicted(self, monkeypatch):
        monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
        monkeypatch.setattr(rounds, "_BUILDER_CACHE_ROW_LIMIT", 8)
        rounds._BUILDER_CACHE["huge"] = _builder_with_rows(20)
        rounds._trim_builder_cache()
        assert rounds._BUILDER_CACHE == {}  # not pinned for the process lifetime

    def test_single_entry_within_budget_is_retained(self, monkeypatch):
        monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
        monkeypatch.setattr(rounds, "_BUILDER_CACHE_ROW_LIMIT", 8)
        rounds._BUILDER_CACHE["small"] = _builder_with_rows(5)
        rounds._trim_builder_cache()
        assert set(rounds._BUILDER_CACHE) == {"small"}

    def test_lru_eviction_stops_once_within_budget(self, monkeypatch):
        monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
        monkeypatch.setattr(rounds, "_BUILDER_CACHE_ROW_LIMIT", 8)
        rounds._BUILDER_CACHE["old"] = _builder_with_rows(5)
        rounds._BUILDER_CACHE["new"] = _builder_with_rows(5)
        rounds._trim_builder_cache()
        assert set(rounds._BUILDER_CACHE) == {"new"}  # LRU order: oldest first

    def test_end_to_end_oversized_builder_not_pinned(self, monkeypatch):
        monkeypatch.setattr(rounds, "_BUILDER_CACHE", {})
        monkeypatch.setattr(rounds, "_BUILDER_CACHE_ROW_LIMIT", 4)
        instance = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0, chi=1, t=0.5)
        results = simulate_batch(
            [instance], get_algorithm("almost-universal-compact"),
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
        )
        assert results[0].met  # the run itself is unaffected by the eviction
        assert rounds._BUILDER_CACHE == {}


class StatefulOptedInWitness(UniversalAlgorithm):
    """Carries instance state, but declares its program independent of it."""

    name = "stateful-opted-in"
    batch_interchangeable = True

    def __init__(self):
        self.scratch = []  # non-behavioural per-object state

    def program(self):
        yield Move(20.0, 0.0)


class StatefulUndeclaredWitness(UniversalAlgorithm):
    name = "stateful-undeclared"

    def __init__(self, distance=20.0):
        self.distance = distance

    def program(self):
        yield Move(self.distance, 0.0)


class TestBatchGrouping:
    def test_opted_in_stateful_witness_groups_by_class(self):
        a, b = StatefulOptedInWitness(), StatefulOptedInWitness()
        assert batch_group_key(a) == batch_group_key(b) == StatefulOptedInWitness

    def test_undeclared_stateful_witness_degrades_to_identity(self):
        a, b = StatefulUndeclaredWitness(), StatefulUndeclaredWitness()
        assert batch_group_key(a) != batch_group_key(b)
        assert batch_group_key(a) == batch_group_key(a)

    def test_grouped_substitution_is_correct_for_opted_in_witness(self):
        # One object stands in for the other within a grouped batch call and
        # produces the same outcomes as per-object runs.
        instances = [Instance(r=0.5, x=3.0, y=0.0, t=2.75) for _ in range(2)]
        algorithms = [StatefulOptedInWitness(), StatefulOptedInWitness()]
        grouped = simulate_batch(instances, algorithms[0], max_time=100.0)
        individual = [
            simulate_batch([instance], algorithm, max_time=100.0)[0]
            for instance, algorithm in zip(instances, algorithms)
        ]
        for g, i in zip(grouped, individual):
            assert g.met == i.met and g.meeting_time == i.meeting_time

    def test_dedicated_witnesses_declare_interchangeability(self):
        for name in available_algorithms():
            algorithm = get_algorithm(name)
            if name.startswith("almost-universal"):
                # Carries a schedule: two objects may differ behaviourally.
                assert not algorithm.batch_interchangeable
        for name in ("stay-put", "linear-probe", "wait-and-sweep",
                     "aligned-delay-walk", "line-search", "lemma-3.9", "dedicated"):
            assert get_algorithm(name).batch_interchangeable, name
