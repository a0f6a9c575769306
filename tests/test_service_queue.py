"""The durable job queue: journal replay, monotonic transitions, dedup, backpressure.

The queue's crash-safety story is pinned at the unit level here (every
acknowledged mutation survives a reopen; torn tails are skipped losslessly);
the process-level ``kill -9`` versions live in ``test_crash_consistency.py``.
"""

import json
import os

import pytest

from repro.campaign import CampaignArm, CampaignSpec
from repro.service import JOB_STATES, TERMINAL_STATES, JobQueue, QueueFull, ServiceError


def make_spec(**overrides):
    base = dict(
        name="queue-unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1",),
        instances_per_cell=4,
        seed=3,
        simulator={"max_time": 1e5, "max_segments": 20_000},
        shard_size=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSubmission:
    def test_submit_creates_and_journals(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, created = queue.submit(make_spec())
        assert created
        assert job.state == "submitted"
        assert job.digest == make_spec().digest()
        records = queue.journal_records()
        assert records[-1]["state"] == "submitted"
        assert records[-1]["spec"]["name"] == "queue-unit"

    def test_duplicate_digest_dedups_to_one_job_and_store(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, created_first = queue.submit(make_spec())
        # A different *name* changes nothing: name is excluded from the digest.
        second, created_second = queue.submit(make_spec(name="another-name"))
        assert created_first and not created_second
        assert first is second
        assert queue.store_path(first.digest) == queue.store_path(second.digest)
        assert len(queue.jobs()) == 1
        # The dedup never journals a second submitted record.
        assert sum(1 for r in queue.journal_records() if r.get("state") == "submitted") == 1

    def test_completed_job_dedups_as_cache_hit(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        queue.mark_running(job.digest)
        queue.mark_complete(job.digest, stats={"rows_computed": 4})
        again, created = queue.submit(make_spec())
        assert not created
        assert again.state == "complete"

    def test_depth_limit_rejects_explicitly(self, tmp_path):
        queue = JobQueue(tmp_path, depth_limit=2)
        queue.submit(make_spec(seed=1))
        queue.submit(make_spec(seed=2))
        with pytest.raises(QueueFull, match="depth limit 2"):
            queue.submit(make_spec(seed=3))
        # Terminal jobs free capacity: the gauge counts unfinished work only.
        job = queue.jobs()[0]
        queue.mark_running(job.digest)
        queue.mark_complete(job.digest)
        accepted, created = queue.submit(make_spec(seed=3))
        assert created and accepted.state == "submitted"

    def test_submit_rejects_non_spec(self, tmp_path):
        with pytest.raises(ServiceError, match="CampaignSpec"):
            JobQueue(tmp_path).submit({"name": "not-a-spec"})

    def test_bad_depth_limit_rejected(self, tmp_path):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ServiceError, match="depth_limit"):
                JobQueue(tmp_path, depth_limit=bad)


class TestTransitions:
    def test_lifecycle_and_attempt_counting(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        assert queue.mark_running(job.digest).attempts == 1
        # A retry is running -> running with the attempt bumped.
        assert queue.mark_running(job.digest).attempts == 2
        done = queue.mark_complete(job.digest, stats={"rows_computed": 4})
        assert done.state == "complete"
        assert done.stats == {"rows_computed": 4}

    def test_terminal_states_are_final(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        queue.mark_running(job.digest)
        queue.mark_quarantined(job.digest, error="boom")
        for move in (
            lambda: queue.mark_running(job.digest),
            lambda: queue.mark_complete(job.digest),
            lambda: queue.mark_quarantined(job.digest, error="again"),
        ):
            with pytest.raises(ServiceError, match="invalid job transition"):
                move()

    def test_backwards_and_unknown_transitions_refused(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ServiceError, match="unknown job"):
            queue.mark_running("no-such-digest")
        job, _ = queue.submit(make_spec())
        # complete straight from submitted is allowed (rank only increases) —
        # but the refused journal line must never have been written.
        queue.mark_complete(job.digest)
        before = len(queue.journal_records())
        with pytest.raises(ServiceError):
            queue.mark_running(job.digest)
        assert len(queue.journal_records()) == before

    def test_state_tables_are_consistent(self):
        assert set(TERMINAL_STATES) <= set(JOB_STATES)


class TestReplay:
    def test_reopen_reconstructs_everything(self, tmp_path):
        queue = JobQueue(tmp_path)
        a, _ = queue.submit(make_spec(seed=1))
        b, _ = queue.submit(make_spec(seed=2))
        queue.mark_running(a.digest)
        queue.mark_complete(a.digest, stats={"rows_computed": 4})
        queue.mark_running(b.digest)

        reopened = JobQueue(tmp_path)
        assert [job.digest for job in reopened.jobs()] == [a.digest, b.digest]
        ra, rb = reopened.jobs()
        assert ra.state == "complete" and ra.stats == {"rows_computed": 4}
        assert rb.state == "running" and rb.attempts == 1
        # The crash orphan is eligible again; the finished job is not.
        assert [job.digest for job in reopened.eligible()] == [b.digest]
        assert reopened.torn_lines == 0
        assert reopened.invalid_records == 0

    def test_stats_with_retired_fields_replay_cleanly(self, tmp_path):
        # Journals written before the campaign cache policy was removed carry
        # "cache_policy" in their run stats; stats are stored opaque, so such
        # a journal still replays with every job and field intact.
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        queue.mark_running(job.digest)
        old_stats = {"spec_digest": job.digest, "cache_policy": "shared-only",
                     "workers": 2, "rows_computed": 4, "complete": True}
        queue.mark_complete(job.digest, stats=old_stats)

        reopened = JobQueue(tmp_path)
        assert reopened.invalid_records == 0 and reopened.torn_lines == 0
        replayed = reopened.job(job.digest)
        assert replayed.state == "complete"
        assert replayed.stats == old_stats

    def test_torn_tail_is_skipped_losslessly(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        queue.mark_running(job.digest)
        with open(queue.journal_path, "a") as handle:
            handle.write('{"event": "job", "state": "comp')  # torn mid-write
        reopened = JobQueue(tmp_path)
        assert reopened.torn_lines == 1
        # The torn transition was never acknowledged: the job is still running.
        assert reopened.job(job.digest).state == "running"

    def test_torn_tail_fuzz(self, tmp_path):
        """Every prefix truncation of the final line replays without error."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        queue.mark_running(job.digest)
        queue.mark_complete(job.digest)
        full = open(queue.journal_path, "rb").read()
        lines = full.splitlines(keepends=True)
        body, last = b"".join(lines[:-1]), lines[-1]
        for cut in range(len(last)):
            with open(queue.journal_path, "wb") as handle:
                handle.write(body + last[:cut])
            reopened = JobQueue(tmp_path)
            state = reopened.job(job.digest).state
            # Torn tail => the final (complete) transition may be lost, but
            # never a corrupted in-between state.
            assert state in ("running", "complete")
            assert reopened.invalid_records == 0
            # Appending over the torn tail must isolate the fragment, not
            # merge with it: the new record replays intact.
            if state == "running":
                reopened.mark_complete(job.digest)
                final = JobQueue(tmp_path)
                assert final.job(job.digest).state == "complete"
                assert final.invalid_records == 0

    def test_invalid_records_skipped_not_fatal(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        with open(queue.journal_path, "a") as handle:
            # A transition for an unknown job, a backwards transition after
            # completion, a wrong event, and a non-dict line.
            handle.write(json.dumps({"event": "job", "state": "running", "digest": "ghost"}) + "\n")
            handle.write(json.dumps({"event": "wat"}) + "\n")
            handle.write(json.dumps([1, 2]) + "\n")
        reopened = JobQueue(tmp_path)
        assert reopened.invalid_records == 3
        assert reopened.job(job.digest).state == "submitted"

    def test_daemon_lifecycle_records(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.clean_shutdown is None
        queue.record_daemon_start()
        assert JobQueue(tmp_path).clean_shutdown is False
        queue.record_daemon_shutdown()
        assert JobQueue(tmp_path).clean_shutdown is True

    def test_journal_is_fsynced_per_append(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(make_spec())
        queue.mark_running(job.digest)
        assert len(synced) >= 2
