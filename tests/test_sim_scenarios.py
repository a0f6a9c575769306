"""The scenario layer: registries, validation, lowering, and parity.

Two new scenario families ship with the unified event engine —
``heterogeneous-speed`` (per-agent speed factors) and ``stalling`` (a faulty
agent that pauses mid-run) — and both must satisfy the same parity contract
as the base engines: per instance, the event path and the vectorized batch
path agree on ``met``, the meeting time (1e-9 relative), the termination
reason and the closest approach.  The suites here pin:

* the event-kind and scenario registries (closed vocabularies, idempotent
  re-registration, activation by options);
* campaign-boundary validation of every scenario-owned option, including the
  derived ``*_range`` options and their draw resolution;
* the lowering primitives (``scaled_agents``, ``stalled_segments`` /
  ``stalled_table``) shared by the event and batch paths;
* event-vs-vectorized parity for each new family alone and composed with the
  Section 5 asymmetric radii.
"""

import math

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.contracts import check_engine_parity, check_outcome_parity
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.motion.compiler import (
    IncrementalTableCompiler,
    LocalProgramBuilder,
    compile_trajectory,
    stalled_segments,
    stalled_table,
)
from repro.sim.asymmetric import simulate_asymmetric
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import simulate
from repro.sim.events import (
    EventKind,
    get_event_kind,
    register_event_kind,
    registered_event_kinds,
)
from repro.sim.scenarios import (
    ScenarioFamily,
    available_scenarios,
    get_scenario,
    register_scenario,
    resolve_stall_options,
    scaled_agents,
    scenarios_for_options,
    stall_schedule,
    validate_scenario_options,
)
from repro.sim.timebase import get_timebase

MAX_TIME = 1e5
MAX_SEGMENTS = 30_000
ALGORITHM = "almost-universal-compact"


class TestEventKindRegistry:
    def test_shipped_kinds(self):
        names = [kind.name for kind in registered_event_kinds()]
        assert names == sorted(names)
        assert {"meeting", "freeze", "stall"} <= set(names)

    def test_declared_semantics(self):
        assert get_event_kind("meeting").resolution == "terminate"
        assert get_event_kind("freeze").detection == "dual_radius"
        assert get_event_kind("freeze").tracking_clamp == "clamp_at_event"
        assert get_event_kind("stall").detection == "scheduled"
        assert get_event_kind("stall").resolution == "pause_resume"

    def test_closed_vocabularies(self):
        with pytest.raises(ValueError):
            EventKind("x", "psychic", "terminate", "full_window")
        with pytest.raises(ValueError):
            EventKind("x", "first_hit", "explode", "full_window")
        with pytest.raises(ValueError):
            EventKind("x", "first_hit", "terminate", "sideways")

    def test_reregistration(self):
        kind = get_event_kind("meeting")
        assert register_event_kind(kind) is kind
        clash = EventKind("meeting", "first_hit", "terminate", "clamp_at_event")
        with pytest.raises(ValueError, match="different semantics"):
            register_event_kind(clash)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            get_event_kind("earthquake")


class TestScenarioRegistry:
    def test_shipped_families(self):
        assert {"symmetric", "asymmetric-radii", "heterogeneous-speed",
                "stalling"} <= set(available_scenarios())

    def test_event_kinds_resolve(self):
        for name in available_scenarios():
            family = get_scenario(name)
            for kind in family.event_kinds:
                assert get_event_kind(kind).name == kind

    def test_activation_by_options(self):
        assert [f.name for f in scenarios_for_options({})] == ["symmetric"]
        assert [f.name for f in scenarios_for_options({"speed_a": 2.0})] == [
            "heterogeneous-speed"
        ]
        names = [
            f.name
            for f in scenarios_for_options(
                {"radius_a": 1.0, "stall_agent": "A"}
            )
        ]
        assert names == ["asymmetric-radii", "stalling"]

    def test_duplicate_registration_rejected(self):
        family = get_scenario("symmetric")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(family)

    def test_undeclared_event_kind_rejected(self):
        with pytest.raises(KeyError):
            ScenarioFamily(
                name="haunted",
                event_kinds=("poltergeist",),
                options=(),
                doc="",
                validate=lambda options, where, error: None,
                sample_options=lambda rng: {},
            )

    def test_samplers_draw_owned_options(self):
        rng = np.random.default_rng(3)
        for name in available_scenarios():
            family = get_scenario(name)
            drawn = family.sample_options(rng)
            assert set(drawn) <= set(family.options)
            # A drawn option set must pass the family's own validation.
            validate_scenario_options(drawn, where=f"sampled {name}")


class TestScenarioValidation:
    def test_valid_options_pass(self):
        validate_scenario_options({})
        validate_scenario_options({"speed_a": 2.0, "speed_b": 0.5})
        validate_scenario_options({"radius_a": 1.0, "radius_b": 2.0})
        validate_scenario_options(
            {"stall_agent": "A", "stall_time": 0.0, "stall_duration": 1.0}
        )
        validate_scenario_options(
            {"stall_agent": "B", "stall_time_range": [0.0, 10.0],
             "stall_duration_range": [0.5, 2.0]}
        )

    @pytest.mark.parametrize("options", [
        {"speed_a": 0.0},
        {"speed_b": -1.0},
        {"speed_a": math.inf},
        {"speed_a": "fast"},
        {"radius_a": 0.0},
        {"radius_b": math.nan},
        {"stall_agent": "A"},
        {"stall_time": 1.0, "stall_duration": 1.0},
        {"stall_agent": "C", "stall_time": 1.0, "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time": -1.0, "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time": 1.0, "stall_duration": 0.0},
        {"stall_agent": "A", "stall_time": 1.0, "stall_duration": math.inf},
        {"stall_agent": "A", "stall_time": 1.0, "stall_time_range": [0.0, 2.0],
         "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time_range": [3.0, 2.0],
         "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time_range": [0.0, 2.0],
         "stall_duration_range": [0.0, 2.0]},
        {"stall_agent": "A", "stall_time_range": [0.0, 2.0]},
    ])
    def test_invalid_options_rejected(self, options):
        with pytest.raises(ValueError):
            validate_scenario_options(options)

    def test_custom_error_type(self):
        class BoundaryError(Exception):
            pass

        with pytest.raises(BoundaryError):
            validate_scenario_options({"speed_a": -2.0}, error=BoundaryError)

    def test_stall_schedule_trio(self):
        assert stall_schedule(None, None, None) is None
        assert stall_schedule("A", 2.0, 3.0) == ("A", 2.0, 3.0)
        with pytest.raises(ValueError, match="together"):
            stall_schedule("A", None, 3.0)

    def test_resolve_stall_options_draws_and_pops(self):
        options = {
            "stall_agent": "A",
            "stall_time_range": [2.0, 4.0],
            "stall_duration_range": [1.0, 1.5],
        }
        resolved = resolve_stall_options(options, np.random.default_rng(11))
        assert resolved is options
        assert "stall_time_range" not in options
        assert "stall_duration_range" not in options
        assert 2.0 <= options["stall_time"] <= 4.0
        assert 1.0 <= options["stall_duration"] <= 1.5

    def test_resolve_is_deterministic(self):
        draws = [
            resolve_stall_options(
                {"stall_time_range": [0.0, 10.0], "stall_duration_range": [1.0, 2.0]},
                np.random.default_rng(7),
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]


class TestScaledAgents:
    def test_identity_fast_path(self):
        instance = Instance(r=0.5, x=2.0, y=1.0)
        assert scaled_agents(instance) == instance.agents()

    def test_scaling_touches_only_speed(self):
        instance = Instance(r=0.5, x=2.0, y=1.0, tau=0.7, v=1.3, t=0.4)
        base_a, base_b = instance.agents()
        spec_a, spec_b = scaled_agents(instance, 2.0, 0.25)
        assert spec_a.units.speed == base_a.units.speed * 2.0
        assert spec_b.units.speed == base_b.units.speed * 0.25
        for base, scaled in ((base_a, spec_a), (base_b, spec_b)):
            assert scaled.units.clock_rate == base.units.clock_rate
            assert scaled.units.wake_time == base.units.wake_time
            assert scaled.frame == base.frame
            assert scaled.name == base.name

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_factor_rejected(self, factor):
        instance = Instance(r=0.5, x=2.0, y=1.0)
        with pytest.raises(ValueError):
            scaled_agents(instance, speed_a=factor)


class TestStallLowering:
    def _table(self, horizon=40.0):
        instance = Instance(r=0.5, x=3.0, y=0.0)
        spec_a, _ = instance.agents()
        algorithm = get_algorithm(ALGORITHM)
        builder = LocalProgramBuilder(algorithm.program_blocks_for(instance, spec_a, "A"))
        # Agent A wakes at 0 with a unit clock: local time is absolute time.
        local = builder.snapshot(horizon, max_steps=MAX_SEGMENTS)
        return IncrementalTableCompiler(spec_a).table(local)

    def test_table_splice_structure(self):
        view = self._table()
        table = view.materialize()
        count = table.segments
        onset = float(table.start_time[min(2, count - 1)]) - 1e-9
        duration = 3.5
        stalled = stalled_table(view, onset, duration)
        assert stalled.segments == count + 1
        insert = int(np.searchsorted(table.start_time[:count], onset, side="left"))
        # The stall row: starts at the boundary, zero velocity, holds position.
        assert stalled.start_time[insert] == table.start_time[insert]
        assert stalled.duration[insert] == duration
        assert stalled.vel_x[insert] == 0.0 and stalled.vel_y[insert] == 0.0
        assert stalled.start_x[insert] == table.start_x[insert]
        assert stalled.start_y[insert] == table.start_y[insert]
        # Earlier motion untouched; later rows shifted by the stall.
        assert np.array_equal(stalled.start_time[:insert], table.start_time[:insert])
        assert np.array_equal(
            stalled.start_time[insert + 1 : count + 1],
            table.start_time[insert:count] + duration,
        )
        assert np.array_equal(
            stalled.start_x[insert + 1 : count + 1], table.start_x[insert:count]
        )
        assert stalled.exhausted == table.exhausted

    def test_onset_beyond_table_is_identity(self):
        table = self._table(horizon=10.0)
        assert stalled_table(table, 1e9, 2.0) is table

    def test_segment_stream_matches_table(self):
        instance = Instance(r=0.5, x=3.0, y=0.0)
        spec_a, _ = instance.agents()
        algorithm = get_algorithm(ALGORITHM)
        onset, duration = 4.0, 2.5
        tb = get_timebase("float")
        blocks = algorithm.program_blocks_for(instance, spec_a, "A")
        segments = list(
            _take(stalled_segments(
                compile_trajectory(spec_a, blocks, timebase=tb),
                onset, duration, tb,
            ), 12)
        )
        table = stalled_table(self._table(horizon=200.0), onset, duration)
        for k, segment in enumerate(segments):
            assert segment.start_time == table.start_time[k]
            assert segment.duration == table.duration[k]
            assert segment.velocity[0] == table.vel_x[k]
            assert segment.velocity[1] == table.vel_y[k]


def _take(iterator, n):
    for _, item in zip(range(n), iterator):
        yield item


class TestHeterogeneousSpeedParity:
    @pytest.mark.parametrize("cls", [InstanceClass.TYPE_1, InstanceClass.TYPE_3])
    def test_event_vs_vectorized(self, cls):
        sampler = InstanceSampler(seed=101)
        instances = sampler.batch_of_class(cls, 4)
        rng = np.random.default_rng(41)
        speeds_a = rng.uniform(0.3, 3.0, len(instances))
        speeds_b = rng.uniform(0.3, 3.0, len(instances))
        batch = simulate_batch(
            instances, get_algorithm(ALGORITHM),
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            speed_a=speeds_a, speed_b=speeds_b,
        )
        for instance, result, sa, sb in zip(instances, batch, speeds_a, speeds_b):
            event = simulate(
                instance, get_algorithm(ALGORITHM),
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS, timebase="float",
                speed_a=float(sa), speed_b=float(sb),
            )
            assert check_engine_parity(event, result)
            assert result.segments_a == event.segments_a
            assert result.segments_b == event.segments_b

    def test_engine_selector(self, type4_instance):
        kwargs = dict(max_time=MAX_TIME, timebase="float",
                      speed_a=1.7, speed_b=0.6)
        event = simulate(type4_instance, get_algorithm(ALGORITHM), **kwargs)
        vectorized = simulate(type4_instance, get_algorithm(ALGORITHM),
                              engine="vectorized", **kwargs)
        assert check_engine_parity(event, vectorized)

    def test_unit_factors_reproduce_base_engine(self):
        sampler = InstanceSampler(seed=5)
        instances = sampler.batch_of_class(InstanceClass.TYPE_2, 3)
        base = simulate_batch(instances, get_algorithm(ALGORITHM),
                              max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        scaled = simulate_batch(instances, get_algorithm(ALGORITHM),
                                max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
                                speed_a=1.0, speed_b=1.0)
        for a, b in zip(base, scaled):
            assert a.met == b.met
            assert a.meeting_time == b.meeting_time
            assert a.min_distance == b.min_distance


class TestStallingParity:
    @pytest.mark.parametrize("agent", ["A", "B"])
    def test_event_vs_vectorized(self, agent):
        sampler = InstanceSampler(seed=77)
        instances = sampler.batch_of_class(InstanceClass.TYPE_2, 4)
        rng = np.random.default_rng(13)
        times = rng.uniform(0.0, 20.0, len(instances))
        durations = rng.uniform(0.5, 10.0, len(instances))
        batch = simulate_batch(
            instances, get_algorithm(ALGORITHM),
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            stall_agent=agent, stall_time=times, stall_duration=durations,
        )
        for instance, result, onset, duration in zip(
            instances, batch, times, durations
        ):
            event = simulate(
                instance, get_algorithm(ALGORITHM),
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS, timebase="float",
                stall_agent=agent, stall_time=float(onset),
                stall_duration=float(duration),
            )
            assert check_engine_parity(event, result)
            # The stall snaps to a segment boundary, so the inserted segment
            # is counted identically on both paths.
            assert result.segments_a == event.segments_a
            assert result.segments_b == event.segments_b

    def test_stall_delays_or_preserves_meeting(self, type2_instance):
        base = simulate(type2_instance, get_algorithm(ALGORITHM),
                        max_time=MAX_TIME, timebase="float")
        stalled = simulate(type2_instance, get_algorithm(ALGORITHM),
                           max_time=MAX_TIME, timebase="float",
                           stall_agent="A", stall_time=0.0, stall_duration=5.0)
        assert base.met and stalled.met
        assert stalled.meeting_time >= base.meeting_time - 1e-9

    def test_stall_on_exact_timebase(self, type2_instance):
        exact = simulate(type2_instance, get_algorithm(ALGORITHM),
                         max_time=1e4, timebase="exact",
                         stall_agent="B", stall_time=2.0, stall_duration=3.0)
        floaty = simulate(type2_instance, get_algorithm(ALGORITHM),
                          max_time=1e4, timebase="float",
                          stall_agent="B", stall_time=2.0, stall_duration=3.0)
        assert exact.met == floaty.met
        if exact.met:
            assert exact.meeting_time == pytest.approx(
                floaty.meeting_time, rel=1e-9
            )

    def test_engine_selector(self, type4_instance):
        kwargs = dict(max_time=MAX_TIME, timebase="float",
                      stall_agent="B", stall_time=1.5, stall_duration=4.0)
        event = simulate(type4_instance, get_algorithm(ALGORITHM), **kwargs)
        vectorized = simulate(type4_instance, get_algorithm(ALGORITHM),
                              engine="vectorized", **kwargs)
        assert check_engine_parity(event, vectorized)


class TestComposedScenarioParity:
    def test_asymmetric_radii_with_speed_and_stall(self):
        sampler = InstanceSampler(seed=19)
        instances = sampler.batch_of_class(InstanceClass.TYPE_1, 4)
        rng = np.random.default_rng(23)
        radii_a = rng.uniform(0.5, 3.0, len(instances))
        radii_b = rng.uniform(0.5, 3.0, len(instances))
        speeds_a = rng.uniform(0.5, 2.0, len(instances))
        speeds_b = rng.uniform(0.5, 2.0, len(instances))
        times = rng.uniform(0.0, 15.0, len(instances))
        durations = rng.uniform(0.5, 8.0, len(instances))
        batch = simulate_batch_asymmetric(
            instances, get_algorithm(ALGORITHM),
            radius_a=radii_a, radius_b=radii_b,
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            speed_a=speeds_a, speed_b=speeds_b,
            stall_agent="B", stall_time=times, stall_duration=durations,
        )
        for k, (instance, outcome) in enumerate(zip(instances, batch)):
            event = simulate_asymmetric(
                instance, get_algorithm(ALGORITHM),
                radius_a=float(radii_a[k]), radius_b=float(radii_b[k]),
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
                speed_a=float(speeds_a[k]), speed_b=float(speeds_b[k]),
                stall_agent="B", stall_time=float(times[k]),
                stall_duration=float(durations[k]),
            )
            assert check_outcome_parity(event, outcome)

    def test_stalled_frozen_agent_discards_pending_stall(self):
        # Freeze the stalled agent before its stall onset: both paths must
        # agree that the stall never happens (the frozen agent is stationary).
        instance = Instance(r=0.5, x=4.0, y=0.0)
        kwargs = dict(
            radius_a=3.5, radius_b=0.5, max_time=MAX_TIME,
            stall_agent="A", stall_time=200.0, stall_duration=50.0,
        )
        event = simulate_asymmetric(instance, get_algorithm(ALGORITHM), **kwargs)
        batch = simulate_batch_asymmetric(
            [instance], get_algorithm(ALGORITHM), **kwargs
        )[0]
        assert event.frozen_agent == "A"
        assert check_outcome_parity(event, batch)


class TestBatchOptionShapes:
    def test_scalar_options_broadcast(self):
        sampler = InstanceSampler(seed=31)
        instances = sampler.batch_of_class(InstanceClass.TYPE_2, 3)
        per_instance = simulate_batch(
            instances, get_algorithm(ALGORITHM),
            max_time=MAX_TIME, speed_a=[1.5] * 3, speed_b=[0.8] * 3,
        )
        scalar = simulate_batch(
            instances, get_algorithm(ALGORITHM),
            max_time=MAX_TIME, speed_a=1.5, speed_b=0.8,
        )
        for a, b in zip(per_instance, scalar):
            assert a.met == b.met
            assert a.meeting_time == b.meeting_time

    def test_wrong_length_rejected(self):
        sampler = InstanceSampler(seed=31)
        instances = sampler.batch_of_class(InstanceClass.TYPE_2, 3)
        with pytest.raises(ValueError, match="speed_a"):
            simulate_batch(instances, get_algorithm(ALGORITHM),
                           max_time=MAX_TIME, speed_a=[1.0, 2.0])

    def test_partial_stall_trio_rejected(self):
        sampler = InstanceSampler(seed=31)
        instances = sampler.batch_of_class(InstanceClass.TYPE_2, 2)
        with pytest.raises(ValueError, match="together"):
            simulate_batch(instances, get_algorithm(ALGORITHM),
                           max_time=MAX_TIME, stall_agent="A")
