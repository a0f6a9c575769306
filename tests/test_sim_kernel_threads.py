"""Threaded kernel-chunk dispatch: bit-parity, selection and wiring.

PR 4 added an opt-in thread pool over the kernel chunks of
:func:`repro.sim.rounds.solve_round`: chunks write disjoint output slices and
numpy releases the GIL, so threaded and serial dispatch are **bit-identical**
— only wall time depends on the setting.  Pinned here: exact equality of
every outcome field between ``kernel_threads=1`` and ``> 1`` runs of both
batch engines (with chunk sizes shrunk so the pool genuinely fans out),
selection priority (explicit argument > ``REPRO_KERNEL_THREADS`` > serial),
rejection of invalid counts, and the pass-through from the simulator facade
and the batch runner.
"""

import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.geometry.backends import THREADS_ENV_VAR, resolve_kernel_threads
from repro.parallel.runner import BatchRunner, BatchTask
from repro.sim import rounds
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import RendezvousSimulator

MAX_TIME = 1e5
MAX_SEGMENTS = 30_000

ALL_TYPES = (
    InstanceClass.TYPE_1,
    InstanceClass.TYPE_2,
    InstanceClass.TYPE_3,
    InstanceClass.TYPE_4,
)


def _campaign(count_per_type=6, seed=7):
    sampler = InstanceSampler(seed=seed)
    instances = []
    for cls in ALL_TYPES:
        instances.extend(sampler.batch_of_class(cls, count_per_type))
    return instances


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the chunk targets so rounds split into many chunks and the
    thread pool genuinely runs concurrent kernel calls on this workload."""
    monkeypatch.setattr(rounds, "KERNEL_CHUNK_WINDOWS", 256)
    monkeypatch.setattr(rounds, "_MIN_THREADED_CHUNK", 32)


def _fields(result):
    """Every outcome scalar, compared *exactly* — the dispatch claims bit-parity."""
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


class TestResolveKernelThreads:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_kernel_threads() == 1

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_kernel_threads() == 3

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_kernel_threads(2) == 2

    def test_blank_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "  ")
        assert resolve_kernel_threads() == 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
            resolve_kernel_threads()

    def test_non_positive_counts_rejected(self):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="positive"):
                resolve_kernel_threads(bad)


class TestThreadedBitParity:
    def test_symmetric_engine(self, small_chunks):
        instances = _campaign()
        algorithm = get_algorithm("almost-universal-compact")
        serial = simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        threaded = simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            kernel_threads=3,
        )
        for s, t in zip(serial, threaded):
            assert _fields(s) == _fields(t)

    def test_asymmetric_engine(self, small_chunks):
        instances = _campaign(count_per_type=4, seed=13)
        algorithm = get_algorithm("almost-universal-compact")
        kwargs = dict(
            radius_a=[instance.r for instance in instances],
            radius_b=[instance.r * 0.4 for instance in instances],
            max_time=MAX_TIME,
            max_segments=MAX_SEGMENTS,
        )
        serial = simulate_batch_asymmetric(instances, algorithm, **kwargs)
        threaded = simulate_batch_asymmetric(
            instances, algorithm, kernel_threads=3, **kwargs
        )
        for s, t in zip(serial, threaded):
            assert s.frozen_agent == t.frozen_agent
            assert s.freeze_time == t.freeze_time
            assert s.freeze_distance == t.freeze_distance
            assert _fields(s.result) == _fields(t.result)

    def test_env_var_wiring(self, small_chunks, monkeypatch):
        instances = _campaign(count_per_type=3, seed=3)
        algorithm = get_algorithm("almost-universal-compact")
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        serial = simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        threaded = simulate_batch(
            instances, algorithm, max_time=MAX_TIME, max_segments=MAX_SEGMENTS
        )
        for s, t in zip(serial, threaded):
            assert _fields(s) == _fields(t)

    def test_invalid_thread_counts_rejected_by_engines(self):
        instance = Instance(r=0.5, x=2.0, y=0.0)
        algorithm = get_algorithm("stay-put")
        with pytest.raises(ValueError):
            simulate_batch([instance], algorithm, kernel_threads=0)
        with pytest.raises(ValueError):
            simulate_batch_asymmetric([instance], algorithm, kernel_threads=-1)


class TestBackendThreadSafety:
    def test_thread_pool_actually_engaged_for_numpy(self, small_chunks, monkeypatch):
        engaged = []
        real = rounds._chunk_executor
        monkeypatch.setattr(
            rounds, "_chunk_executor",
            lambda threads: engaged.append(threads) or real(threads),
        )
        simulate_batch(
            _campaign(count_per_type=2, seed=5),
            get_algorithm("almost-universal-compact"),
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS, kernel_threads=3,
        )
        assert engaged and all(threads == 3 for threads in engaged)


class TestWiring:
    def test_simulator_facade_passes_kernel_threads(self, small_chunks, type4_instance):
        algorithm = get_algorithm("almost-universal-compact")
        serial = RendezvousSimulator(
            max_time=MAX_TIME, engine="vectorized"
        ).run(type4_instance, algorithm)
        threaded = RendezvousSimulator(
            max_time=MAX_TIME, engine="vectorized", kernel_threads=2
        ).run(type4_instance, algorithm)
        assert _fields(serial) == _fields(threaded)

    def test_batch_runner_routes_kernel_threads(self):
        instances = _campaign(count_per_type=2, seed=31)
        tasks = [
            BatchTask.make(
                instance, "almost-universal-compact",
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS, kernel_threads=2,
            )
            for instance in instances
        ]
        baseline = [
            BatchTask.make(
                instance, "almost-universal-compact",
                max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
            )
            for instance in instances
        ]
        # kernel_threads is a vectorizable option: the strict engine accepts it.
        threaded = BatchRunner(engine="vectorized").run(tasks)
        serial = BatchRunner(engine="vectorized").run(baseline)
        for s, t in zip(serial, threaded):
            assert s["met"] == t["met"]
            assert s["meeting_time"] == t["meeting_time"]
            assert s["min_distance"] == t["min_distance"]
