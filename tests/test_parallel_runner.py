"""Tests for the shard runner: one route per shard, outcomes in instance order."""

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.campaign.store import outcome_columns
from repro.parallel.runner import BatchRunner
from repro.sim.asymmetric import simulate_asymmetric
from shard_work import one_shard, spy

ALGORITHM = "almost-universal-compact"


class TestInlineExecution:
    def test_shard_runs_inline_in_instance_order(self):
        shard, instances, work = one_shard()
        outcomes = BatchRunner().run(work)
        assert len(outcomes) == shard.count
        assert [outcome.result.instance for outcome in outcomes] == list(instances)
        name = get_algorithm(ALGORITHM).name
        assert all(outcome.result.algorithm_name == name for outcome in outcomes)
        assert all(outcome.frozen_agent is None for outcome in outcomes)
        assert any(outcome.met for outcome in outcomes)

    def test_symmetric_shard_is_one_symmetric_batch_call(self, monkeypatch):
        symmetric = spy(monkeypatch, "simulate_batch")
        asymmetric = spy(monkeypatch, "simulate_batch_asymmetric")
        shard, _, work = one_shard()
        assert work.batched and not work.asymmetric
        BatchRunner().run(work)
        assert len(symmetric) == 1 and not asymmetric
        assert "timebase" not in symmetric[0]


class TestRadiusColumns:
    RATIOS = {"radius_a_ratio": 1.0, "radius_b_ratio": 0.5}

    def test_radii_shard_is_one_batch_call(self, monkeypatch):
        calls = spy(monkeypatch, "simulate_batch_asymmetric")
        shard, instances, work = one_shard(self.RATIOS)
        outcomes = BatchRunner().run(work)
        # The whole shard's per-instance radii are columns of one call.
        assert len(calls) == 1
        assert len(calls[0]["radius_a"]) == len(calls[0]["radius_b"]) == shard.count
        assert list(calls[0]["radius_b"]) == [0.5 * instance.r for instance in instances]
        assert len(outcomes) == shard.count

    def test_radii_shard_matches_per_instance_event_runs(self):
        _, instances, work = one_shard(self.RATIOS)
        outcomes = BatchRunner().run(work)
        for instance, outcome in zip(instances, outcomes):
            event = simulate_asymmetric(
                instance,
                get_algorithm(ALGORITHM),
                radius_a=instance.r,
                radius_b=0.5 * instance.r,
                max_time=1e5,
                max_segments=20_000,
            )
            assert outcome.met == event.met
            assert outcome.result.termination == event.result.termination
            assert outcome.frozen_agent == event.frozen_agent
            if event.met:
                assert outcome.meeting_time == pytest.approx(event.meeting_time, rel=1e-9)

    def test_one_sided_ratio_defaults_the_other_radius_to_instance_r(self, monkeypatch):
        calls = spy(monkeypatch, "simulate_batch_asymmetric")
        _, instances, work = one_shard({"radius_b_ratio": 0.25}, count=4)
        outcomes = BatchRunner().run(work)
        assert calls[0].get("radius_a") is None
        for instance, outcome in zip(instances, outcomes):
            assert outcome.radius_a == instance.r
            assert outcome.radius_b == 0.25 * instance.r
            event = simulate_asymmetric(
                instance,
                get_algorithm(ALGORITHM),
                radius_b=0.25 * instance.r,
                max_time=1e5,
                max_segments=20_000,
            )
            assert outcome.met == event.met
            if event.met:
                assert outcome.meeting_time == pytest.approx(event.meeting_time, rel=1e-9)

    def test_scalar_radius_applies_to_every_instance(self, monkeypatch):
        calls = spy(monkeypatch, "simulate_batch_asymmetric")
        _, instances, work = one_shard({"radius_a": 0.75, "radius_b_ratio": 0.5}, count=4)
        assert work.options["radius_a"] == 0.75 and "radius_a" not in work.columns
        outcomes = BatchRunner().run(work)
        assert len(calls) == 1
        assert [outcome.radius_a for outcome in outcomes] == [0.75] * len(instances)


class TestEventRoute:
    @pytest.mark.parametrize(
        "options",
        [{"timebase": "exact"}, {"engine": "event"}],
        ids=["exact-timebase", "event-engine"],
    )
    def test_radii_shard_takes_the_event_engine_and_keeps_its_freeze(
        self, monkeypatch, options
    ):
        symmetric = spy(monkeypatch, "simulate_batch")
        asymmetric = spy(monkeypatch, "simulate_batch_asymmetric")
        shard, _, work = one_shard(
            {"radius_a_ratio": 1.0, "radius_b_ratio": 0.5, **options}, count=4
        )
        assert work.asymmetric and not work.batched
        outcomes = BatchRunner().run(work)
        assert not symmetric and not asymmetric
        assert outcomes[0].result.timebase_name == options.get("timebase", "float")
        columns = outcome_columns(shard, outcomes)
        # A is the larger-radius agent: a met run froze A first.
        met = columns["met"]
        assert met.any()
        assert (columns["frozen"][met] == 0).all()
        assert np.isfinite(columns["freeze_time"][met]).all()

    def test_event_and_batch_shard_columns_agree(self):
        shard, _, batch = one_shard(classes=("type-2",), count=6, seed=11)
        _, _, event = one_shard({"engine": "event"}, classes=("type-2",), count=6, seed=11)
        assert batch.instances == event.instances
        assert batch.batched and not event.batched
        a = outcome_columns(shard, BatchRunner().run(batch))
        b = outcome_columns(shard, BatchRunner().run(event))
        assert a["met"].tolist() == b["met"].tolist()
        assert a["termination"].tolist() == b["termination"].tolist()
        met = a["met"]
        np.testing.assert_allclose(a["meeting_time"][met], b["meeting_time"][met], rtol=1e-9)
        assert np.isnan(a["meeting_time"][~met]).all() and np.isnan(b["meeting_time"][~met]).all()
