"""Tests for the batch runner: vectorized groups, per-task event engine."""

import math

import pytest

import repro.parallel.runner as runner_module
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.parallel.runner import BatchRunner, BatchTask, run_batch
from repro.sim.asymmetric import simulate_asymmetric


class TestBatchTask:
    def test_make_serializes_instance(self):
        instance = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0)
        task = BatchTask.make(instance, "linear-probe", tag="demo", max_time=100.0)
        assert task.instance["x"] == 1.0
        assert task.algorithm == "linear-probe"
        assert task.simulator_options == {"max_time": 100.0}
        assert task.tag == "demo"


class TestInlineExecution:
    def test_run_batch_inline(self):
        instances = [
            Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0),
            Instance(r=0.5, x=-1.0, y=0.5, phi=1.0),
        ]
        records = run_batch(instances, "linear-probe", max_time=1e4, tag="t")
        assert len(records) == 2
        assert all(record["met"] for record in records)
        assert all(record["algorithm"] == "dedicated-linear-probe" for record in records)
        assert all(record["tag"] == "t" for record in records)
        assert records[0]["instance_x"] == 1.0

    def test_order_is_preserved(self):
        # Alternate the timebase so vectorized groups and event-engine tasks
        # interleave: records still come back in input order.
        instances = [Instance(r=2.0, x=float(k % 3 + 1) * 0.1, y=0.0) for k in range(12)]
        tasks = [
            BatchTask.make(
                instance, "stay-put", tag=str(k), max_time=10.0,
                timebase="exact" if k % 2 else "float",
            )
            for k, instance in enumerate(instances)
        ]
        records = BatchRunner().run(tasks)
        assert [rec["tag"] for rec in records] == [str(k) for k in range(12)]
        assert [rec["instance_x"] for rec in records] == [inst.x for inst in instances]


class TestPerTaskRadiusColumns:
    def _ratio_sweep_tasks(self, count=8):
        sampler = InstanceSampler(seed=23)
        instances = sampler.batch_of_class(InstanceClass.TYPE_1, count)
        ratios = (1.0, 0.75, 0.5, 0.25)
        tasks = []
        for k, instance in enumerate(instances):
            tasks.append(
                BatchTask.make(
                    instance,
                    "almost-universal-compact",
                    tag=str(k),
                    max_time=1e5,
                    max_segments=20_000,
                    radius_a=instance.r,
                    radius_b=instance.r * ratios[k % len(ratios)],
                )
            )
        return instances, tasks

    def test_mixed_ratio_sweep_is_one_batch_call(self, monkeypatch):
        instances, tasks = self._ratio_sweep_tasks()
        calls = []
        real = runner_module.simulate_batch_asymmetric

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate_batch_asymmetric", spy)
        records = BatchRunner().run(tasks)
        # Distinct per-task radii stack into per-instance columns of a
        # single vectorized call instead of one group per radius pair.
        assert len(calls) == 1
        assert len(calls[0]["radius_a"]) == len(tasks)
        assert len(records) == len(tasks)

    def test_mixed_ratio_sweep_matches_per_task_event_runs(self):
        instances, tasks = self._ratio_sweep_tasks()
        records = BatchRunner().run(tasks)
        assert [rec["tag"] for rec in records] == [str(k) for k in range(len(tasks))]
        for task, instance, record in zip(tasks, instances, records):
            outcome = simulate_asymmetric(
                instance,
                runner_module.get_algorithm(task.algorithm),
                radius_a=task.simulator_options["radius_a"],
                radius_b=task.simulator_options["radius_b"],
                max_time=task.simulator_options["max_time"],
                max_segments=task.simulator_options["max_segments"],
            )
            assert record["met"] == outcome.met
            assert record["termination"] == outcome.result.termination.value
            if outcome.met:
                assert record["meeting_time"] == pytest.approx(
                    outcome.result.meeting_time, rel=1e-9
                )

    def test_single_sided_radius_defaults_to_instance_r(self):
        instance = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0)
        tasks = [
            BatchTask.make(instance, "almost-universal-compact",
                           max_time=1e4, radius_b=0.25),
        ]
        record = BatchRunner().run(tasks)[0]
        outcome = simulate_asymmetric(
            instance,
            runner_module.get_algorithm("almost-universal-compact"),
            radius_b=0.25,
            max_time=1e4,
        )
        assert record["met"] == outcome.met
        if outcome.met:
            assert record["meeting_time"] == pytest.approx(
                outcome.result.meeting_time, rel=1e-9
            )

    def test_symmetric_tasks_do_not_mix_with_asymmetric(self, monkeypatch):
        instance = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0)
        tasks = [
            BatchTask.make(instance, "almost-universal-compact", max_time=1e4),
            BatchTask.make(instance, "almost-universal-compact", max_time=1e4,
                           radius_a=0.5, radius_b=0.25),
        ]
        symmetric_calls = []
        asymmetric_calls = []
        real_sym = runner_module.simulate_batch
        real_asym = runner_module.simulate_batch_asymmetric
        monkeypatch.setattr(
            runner_module, "simulate_batch",
            lambda *a, **k: symmetric_calls.append(k) or real_sym(*a, **k),
        )
        monkeypatch.setattr(
            runner_module, "simulate_batch_asymmetric",
            lambda *a, **k: asymmetric_calls.append(k) or real_asym(*a, **k),
        )
        records = BatchRunner().run(tasks)
        assert len(symmetric_calls) == 1 and len(asymmetric_calls) == 1
        assert len(records) == 2 and all(rec["met"] for rec in records)
