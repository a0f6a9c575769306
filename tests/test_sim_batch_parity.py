"""Parity suite: the vectorized batch engine against the event engine.

The batch engine's contract is that ``met``, the meeting time (to 1e-9
relative), the termination reason and the closest approach agree with the
event engine on every float-timebase run — across all sampler classes and a
spread of algorithms (universal and dedicated, finite and infinite,
fast-meeting and budget-limited).  These tests are the ground truth that lets
every campaign switch to the vectorized path.
"""

import math

import pytest

from profiles import SLOW_SETTINGS
from hypothesis import given, strategies as st

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.contracts import check_engine_parity
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.parallel.runner import BatchRunner
from repro.sim.batch import simulate_batch
from repro.sim.engine import RendezvousSimulator, simulate
from repro.sim.results import TerminationReason
from repro.util.errors import KnowledgeError, SimulationBudgetExceeded
from shard_work import one_shard, spy

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

#: Universal + dedicated algorithms covering finite programs (stay-put),
#: infinite enumeration (almost-universal, cgkk), long waits (latecomers,
#: wait-and-sweep) and per-instance knowledge (dedicated).
PARITY_ALGORITHMS = (
    "almost-universal-compact",
    "stay-put",
    "cgkk",
    "wait-and-sweep",
    "dedicated",
)


def assert_results_match(event, batch, *, rel=1e-9):
    # Delegates to the declared parity contracts (parity.verdict,
    # parity.meeting_time, parity.min_distance) so these tests both verify
    # and exercise the registry; under REPRO_CONTRACTS=raise a mismatch
    # surfaces as a ContractViolation naming the violated invariant.
    # min_distance_time is deliberately NOT part of the contract: periodic
    # programs attain near-equal minima in many windows, and ulp-level
    # differences between the engines' accumulated positions legitimately
    # pick different (equally minimal) windows.
    __tracebackhide__ = True
    assert check_engine_parity(event, batch, rel=rel)


class TestEngineParityAcrossClasses:
    @pytest.mark.parametrize("algorithm_name", PARITY_ALGORITHMS)
    def test_all_sampler_classes(self, algorithm_name):
        sampler = InstanceSampler(seed=1234)
        simulator = RendezvousSimulator(
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS, radius_slack=1e-9
        )
        for cls in ALL_CLASSES:
            instances = sampler.batch_of_class(cls, 3)
            algorithm = get_algorithm(algorithm_name)
            try:
                event_results = [simulator.run(i, algorithm) for i in instances]
            except KnowledgeError:
                continue  # dedicated witness not applicable to this class
            batch_results = simulate_batch(
                instances,
                get_algorithm(algorithm_name),
                max_time=MAX_TIME,
                max_segments=MAX_SEGMENTS,
                radius_slack=1e-9,
            )
            for event, batch in zip(event_results, batch_results):
                assert_results_match(event, batch)

    def test_ulp_short_table_coverage_is_not_a_budget_stop(self):
        # Regression: with clock rate tau=0.6 the compiled table's end time
        # maps back through horizon/tau and lands one ulp below the 243.0
        # horizon (242.99999999999997).  The RoundEntry coverage safety net
        # used a strict `end_time < horizon` and misread the fully-covering
        # table as truncated by the per-agent cap, terminating the batch run
        # with a spurious max-segments verdict while the event engine went on
        # to the real meeting near t=425.
        instance = Instance(r=0.5, x=0.0, y=3.0, phi=0.0, tau=0.6,
                            v=0.5, t=0.0, chi=-1)
        algorithm = get_algorithm("almost-universal-compact")
        event = RendezvousSimulator(max_time=1e4, max_segments=10_000).run(
            instance, algorithm
        )
        batch = simulate_batch(
            [instance], algorithm, max_time=1e4, max_segments=10_000
        )[0]
        assert event.met and batch.met
        assert batch.termination == TerminationReason.RENDEZVOUS
        assert_results_match(event, batch)

    def test_results_are_in_input_order(self):
        sampler = InstanceSampler(seed=9)
        instances = sampler.batch_of_class(InstanceClass.TYPE_4, 5)
        results = simulate_batch(instances, get_algorithm("almost-universal-compact"),
                                 max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        assert [r.instance for r in results] == instances

    def test_horizon_schedule_does_not_change_results(self):
        # The adaptive horizon is a performance knob; forcing a tiny or a
        # huge starting horizon must produce identical outcomes.
        sampler = InstanceSampler(seed=21)
        instances = sampler.batch_of_class(InstanceClass.TYPE_3, 4)
        algorithm = "almost-universal-compact"
        reference = simulate_batch(instances, get_algorithm(algorithm),
                                   max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        for horizon in (1.0, 97.0, MAX_TIME):
            again = simulate_batch(
                instances, get_algorithm(algorithm),
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
                initial_horizon=horizon,
            )
            for ref, res in zip(reference, again):
                assert res.met == ref.met
                assert res.termination == ref.termination
                assert res.meeting_time == ref.meeting_time
                assert res.min_distance == pytest.approx(ref.min_distance, rel=1e-12)

    @SLOW_SETTINGS
    @given(
        st.floats(0.3, 1.0),     # r
        st.floats(-4.0, 4.0),    # x
        st.floats(-4.0, 4.0),    # y
        st.floats(0.0, 6.28),    # phi
        st.floats(0.3, 3.0),     # tau
        st.floats(0.3, 3.0),     # v
        st.floats(0.0, 3.0),     # t
        st.sampled_from([-1, 1]),
    )
    def test_property_parity_universal(self, r, x, y, phi, tau, v, t, chi):
        if math.hypot(x, y) <= 1e-6:
            return
        instance = Instance(r=r, x=x, y=y, phi=phi, tau=tau, v=v, t=t, chi=chi)
        event = RendezvousSimulator(max_time=1e4, max_segments=10_000).run(
            instance, get_algorithm("almost-universal-compact")
        )
        batch = simulate_batch(
            [instance], get_algorithm("almost-universal-compact"),
            max_time=1e4, max_segments=10_000,
        )[0]
        assert_results_match(event, batch)


class TestEngineSelector:
    def test_simulate_engine_vectorized(self, type4_instance):
        event = simulate(type4_instance, get_algorithm("almost-universal-compact"),
                         max_time=MAX_TIME, timebase="float")
        vectorized = simulate(type4_instance, get_algorithm("almost-universal-compact"),
                              max_time=MAX_TIME, timebase="float", engine="vectorized")
        assert_results_match(event, vectorized)

    def test_unknown_engine_rejected(self, type4_instance):
        with pytest.raises(ValueError):
            simulate(type4_instance, get_algorithm("stay-put"), engine="warp")

    def test_vectorized_requires_float_timebase(self, type4_instance):
        with pytest.raises(ValueError):
            simulate(type4_instance, get_algorithm("stay-put"),
                     timebase="exact", engine="vectorized")

    def test_vectorized_rejects_recording(self, type4_instance):
        with pytest.raises(ValueError):
            simulate(type4_instance, get_algorithm("stay-put"), timebase="float",
                     record_trajectories=True, engine="vectorized")

    def test_vectorized_raise_on_budget(self, infeasible_instance):
        with pytest.raises(SimulationBudgetExceeded):
            simulate(infeasible_instance, get_algorithm("almost-universal-compact"),
                     max_time=50.0, timebase="float", engine="vectorized",
                     raise_on_budget=True)


class TestTrackMinDistance:
    def test_flag_skips_bookkeeping_but_keeps_verdict(self):
        sampler = InstanceSampler(seed=5)
        instances = sampler.batch_of_class(InstanceClass.TYPE_1, 4)
        tracked = simulate_batch(instances, get_algorithm("almost-universal-compact"),
                                 max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        untracked = simulate_batch(instances, get_algorithm("almost-universal-compact"),
                                   max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
                                   track_min_distance=False)
        for a, b in zip(tracked, untracked):
            assert a.met == b.met
            assert a.meeting_time == b.meeting_time
            assert a.termination == b.termination
            assert math.isinf(b.min_distance) and b.min_distance_time is None

    def test_event_engine_flag(self, infeasible_instance):
        result = RendezvousSimulator(
            max_time=100.0, track_min_distance=False
        ).run(infeasible_instance, get_algorithm("stay-put"))
        assert not result.met
        assert math.isinf(result.min_distance)


class TestBatchRunnerVectorized:
    def test_batch_shard_matches_event_shard(self):
        budgets = dict(classes=("type-2",), count=6, seed=11,
                       max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        _, _, batch = one_shard(**budgets)
        _, _, event = one_shard({"engine": "event"}, **budgets)
        vectorized = BatchRunner().run(batch)
        per_instance = BatchRunner().run(event)
        assert len(vectorized) == len(per_instance) == 6
        for a, b in zip(vectorized, per_instance):
            assert a.met == b.met
            assert a.result.termination == b.result.termination
            assert a.meeting_time == pytest.approx(b.meeting_time, rel=1e-9)

    def test_exact_timebase_shard_runs_on_the_event_engine(self, monkeypatch):
        calls = spy(monkeypatch, "simulate_batch")
        _, _, work = one_shard({"timebase": "exact"}, count=2, max_time=MAX_TIME)
        outcomes = BatchRunner().run(work)
        assert not calls
        assert all(outcome.result.timebase_name == "exact" for outcome in outcomes)


class TestTerminationReasons:
    def test_programs_finished(self):
        instance = Instance(r=0.5, x=3.0, y=0.0, t=0.0)
        result = simulate_batch([instance], get_algorithm("stay-put"), max_time=100.0)[0]
        assert not result.met
        assert result.termination == TerminationReason.PROGRAMS_FINISHED

    def test_max_time(self):
        instance = Instance(r=0.25, x=50.0, y=0.0, t=0.1)
        result = simulate_batch(
            [instance], get_algorithm("almost-universal-compact"), max_time=20.0
        )[0]
        assert not result.met
        assert result.termination == TerminationReason.MAX_TIME
        assert result.simulated_time == 20.0

    def test_max_segments_matches_event_engine(self):
        instance = Instance(r=0.25, x=50.0, y=0.0, t=0.1)
        event = RendezvousSimulator(max_time=1e9, max_segments=500).run(
            instance, get_algorithm("almost-universal-compact")
        )
        batch = simulate_batch(
            [instance], get_algorithm("almost-universal-compact"),
            max_time=1e9, max_segments=500,
        )[0]
        assert event.termination == TerminationReason.MAX_SEGMENTS
        assert batch.termination == TerminationReason.MAX_SEGMENTS
        assert batch.simulated_time == pytest.approx(event.simulated_time, rel=1e-9)

    def test_empty_batch(self):
        assert simulate_batch([], get_algorithm("stay-put")) == []

    def test_invalid_parameters(self):
        instance = Instance(r=0.5, x=1.0, y=0.0)
        algorithm = get_algorithm("stay-put")
        with pytest.raises(ValueError):
            simulate_batch([instance], algorithm, max_time=math.inf)
        with pytest.raises(ValueError):
            simulate_batch([instance], algorithm, max_segments=0)
        with pytest.raises(ValueError):
            simulate_batch([instance], algorithm, radius_slack=-1.0)
        with pytest.raises(ValueError):
            simulate_batch([instance], algorithm, initial_horizon=0.0)
