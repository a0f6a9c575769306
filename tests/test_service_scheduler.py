"""The scheduler: dispatch, retry/backoff, quarantine, graceful drain.

Real campaign runs (tiny specs) keep the scheduler honest against the actual
orchestrator; failure paths are injected through ``shard_hook`` (the
campaign layer's own fault seam) and through specs whose algorithm arm is
made to fail.
"""

import os
import threading
import time

import pytest

from repro.campaign import CampaignArm, CampaignSpec, CampaignStore
from repro.campaign.executor import FaultInjection
from repro.service import JobQueue, Scheduler, ServiceDaemon, ServiceError


def make_spec(**overrides):
    base = dict(
        name="scheduler-unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1",),
        instances_per_cell=4,
        seed=11,
        simulator={"max_time": 1e5, "max_segments": 20_000},
        shard_size=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_bad_knobs_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ServiceError, match="max_concurrent"):
            Scheduler(queue, max_concurrent=0)
        with pytest.raises(ServiceError, match="max_attempts"):
            Scheduler(queue, max_attempts=-1)
        with pytest.raises(ServiceError, match="retry_backoff"):
            Scheduler(queue, retry_backoff=-0.5)


class TestExecution:
    def test_job_runs_to_complete(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        scheduler = Scheduler(queue)
        scheduler.run_until_idle(timeout=120)
        done = queue.job(job.digest)
        assert done.state == "complete"
        assert done.attempts == 1
        assert done.stats["complete"] is True
        assert done.stats["rows_recomputed"] == 0
        assert scheduler.jobs_completed == 1
        # The store landed under the service's stores/<digest> directory.
        store = CampaignStore(queue.store_path(job.digest))
        columns = store.export_columns()
        assert len(next(iter(columns.values()))) == 4

    def test_exception_retries_then_quarantines(self, tmp_path):
        def explode(shard):
            raise RuntimeError("injected orchestration failure")

        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        scheduler = Scheduler(
            queue,
            max_attempts=2,
            retry_backoff=0.0,
            # A hook raising a plain exception crashes the run itself — the
            # job-level failure mode, as opposed to a FaultInjection which the
            # campaign layer absorbs per shard.
            campaign_options={"shard_hook": explode, "max_attempts": 1},
        )
        scheduler.run_until_idle(timeout=60)
        done = queue.job(job.digest)
        assert done.state == "quarantined"
        assert done.attempts == 2
        assert "injected orchestration failure" in done.error
        assert scheduler.jobs_quarantined == 1

    def test_degraded_store_quarantines_job_immediately(self, tmp_path):
        def poison(shard):
            raise FaultInjection("fail")

        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        scheduler = Scheduler(
            queue,
            max_attempts=5,
            retry_backoff=0.0,
            campaign_options={"shard_hook": poison, "max_attempts": 1},
        )
        scheduler.run_until_idle(timeout=60)
        done = queue.job(job.digest)
        # One dispatch only: retrying a degraded store would re-hit the same
        # poison shards, so the scheduler quarantines without burning attempts.
        assert done.state == "quarantined"
        assert done.attempts == 1
        assert "doctor --repair" in done.error

    def test_two_jobs_with_bounded_concurrency(self, tmp_path):
        queue = JobQueue(tmp_path)
        a, _ = queue.submit(make_spec(seed=1))
        b, _ = queue.submit(make_spec(seed=2))
        scheduler = Scheduler(queue, max_concurrent=1)
        scheduler.run_until_idle(timeout=240)
        assert queue.job(a.digest).state == "complete"
        assert queue.job(b.digest).state == "complete"
        assert scheduler.jobs_completed == 2


class TestDrain:
    def test_stop_leaves_job_running_for_resume(self, tmp_path):
        started = threading.Event()

        def slow(shard):
            started.set()
            time.sleep(0.2)

        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec(instances_per_cell=16, shard_size=1))
        scheduler = Scheduler(queue, campaign_options={"shard_hook": slow})
        thread = threading.Thread(target=scheduler.run_forever, daemon=True)
        thread.start()
        assert started.wait(timeout=60)
        scheduler.stop(timeout=60)
        thread.join(timeout=10)
        assert scheduler.inflight() == 0
        interrupted = queue.job(job.digest)
        # The drained job stays `running` — the recovery signal, not an error.
        assert interrupted.state == "running"
        assert interrupted in queue.eligible()

        # A fresh scheduler (the "next session") resumes it to completion
        # with zero recomputed shards.
        resumed = Scheduler(JobQueue(tmp_path))
        resumed.run_until_idle(timeout=120)
        done = resumed.queue.job(job.digest)
        assert done.state == "complete"
        assert done.stats["rows_recomputed"] == 0
        assert done.attempts == 2


class TestWarmPool:
    """The scheduler's one slot pool: lent to every run, closed at drain."""

    def test_concurrent_jobs_never_share_a_worker(self, tmp_path):
        borrowed = {}
        first_dispatch = set()
        both_running = threading.Barrier(2, timeout=120)

        def meet(shard):
            # Each job's first dispatch waits for the other's, so both jobs
            # hold their borrowed slots at the same time.
            name = threading.current_thread().name
            if name not in first_dispatch:
                first_dispatch.add(name)
                both_running.wait()

        queue = JobQueue(tmp_path)
        for seed in (1, 2):
            queue.submit(make_spec(seed=seed))
        scheduler = Scheduler(
            queue, max_concurrent=2, campaign_options={"workers": 2, "shard_hook": meet}
        )
        borrow = scheduler.pool.borrow

        def recording_borrow(count):
            slots, spawned = borrow(count)
            borrowed[threading.current_thread().name] = {s.process.pid for s in slots}
            return slots, spawned

        scheduler.pool.borrow = recording_borrow
        try:
            scheduler.run_until_idle(timeout=240)
        finally:
            scheduler.stop(timeout=60)
        assert scheduler.jobs_completed == 2
        first, second = borrowed.values()
        assert len(first) == len(second) == 2
        assert not first & second

    def test_later_jobs_reuse_slots_and_drain_leaves_no_child(self, tmp_path):
        daemon = ServiceDaemon(tmp_path, campaign_options={"workers": 2})
        daemon.start()
        try:
            jobs = []
            for seed in (1, 2):
                job, _ = daemon.submit(make_spec(seed=seed))
                deadline = time.monotonic() + 120
                while daemon.queue.job(job.digest).state != "complete":
                    assert time.monotonic() < deadline, daemon.queue.job(job.digest).as_dict()
                    time.sleep(0.05)
                jobs.append(daemon.queue.job(job.digest))
            pids = {worker.process.pid for worker in daemon.scheduler.pool._idle}
        finally:
            daemon.stop(timeout=60)
        assert [job.stats["slots_spawned"] for job in jobs] == [2, 0]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def settled(queue, digest, timeout=60.0):
    """Poll until the job is terminal or ``timeout`` passes; its last state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = queue.job(digest).state
        if state in ("complete", "quarantined"):
            return state
        time.sleep(0.02)
    return queue.job(digest).state


class TestWakeUps:
    """``run_forever`` blocks between passes; each case needs one wake-up.

    The loop has no poll interval, so a missing wake-up leaves the job
    unscheduled (or the thread unjoined) until the bounded wait fails.
    """

    def _start(self, scheduler):
        thread = threading.Thread(target=scheduler.run_forever, daemon=True)
        thread.start()
        return thread

    def test_job_submitted_while_idle_completes(self, tmp_path):
        daemon = ServiceDaemon(tmp_path)
        daemon.start()
        try:
            time.sleep(0.2)  # the scheduler thread has gone idle
            job, created = daemon.submit(make_spec())
            assert created
            assert settled(daemon.queue, job.digest) == "complete"
        finally:
            daemon.stop(timeout=60)

    def test_job_queued_behind_a_running_one_completes(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, _ = queue.submit(make_spec(seed=1))
        second, _ = queue.submit(make_spec(seed=2))
        scheduler = Scheduler(queue, max_concurrent=1)
        thread = self._start(scheduler)
        try:
            assert settled(queue, first.digest) == "complete"
            assert settled(queue, second.digest) == "complete"
        finally:
            scheduler.stop(timeout=60)
            thread.join(timeout=10)
        assert scheduler.jobs_completed == 2

    def test_job_parked_in_retry_backoff_completes(self, tmp_path):
        calls = []

        def fail_first_dispatch(shard):
            calls.append(shard.shard_id)
            if len(calls) == 1:
                raise RuntimeError("injected orchestration failure")

        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        scheduler = Scheduler(
            queue,
            max_attempts=2,
            retry_backoff=0.05,
            campaign_options={"shard_hook": fail_first_dispatch, "max_attempts": 1},
        )
        thread = self._start(scheduler)
        try:
            assert settled(queue, job.digest) == "complete"
        finally:
            scheduler.stop(timeout=60)
            thread.join(timeout=10)
        assert queue.job(job.digest).attempts == 2
        # The retry deadline leaves with the dispatch that honours it.
        assert scheduler._not_before == {}

    def test_wake_up_during_a_pass_is_not_lost(self, tmp_path):
        # The job arrives while the first pass reads the queue, so that pass
        # misses it and only the wake-up set during the pass can dispatch it.
        queue = JobQueue(tmp_path)
        scheduler = Scheduler(queue)
        spec = make_spec()
        eligible = queue.eligible

        def eligible_then_submit():
            jobs = eligible()
            if queue.job(spec.digest()) is None:
                queue.submit(spec)
                scheduler.wake()
            return jobs

        queue.eligible = eligible_then_submit
        thread = self._start(scheduler)
        try:
            assert settled(queue, spec.digest()) == "complete"
        finally:
            scheduler.stop(timeout=60)
            thread.join(timeout=10)

    def test_stop_joins_an_idle_scheduler_promptly(self, tmp_path):
        scheduler = Scheduler(JobQueue(tmp_path))
        thread = self._start(scheduler)
        time.sleep(0.2)  # blocked with nothing to do
        started = time.monotonic()
        scheduler.stop()
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0
