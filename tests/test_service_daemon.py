"""The daemon lifecycle: recover -> ready -> serve -> drain.

The acceptance test of the service layer lives here: a daemon session is cut
down mid-campaign, a fresh session replays the journal, repairs the store and
resumes — and the result is byte-identical to an uninterrupted run with zero
recomputed shards (the ``service.recover_resume_identity`` contract, checked
through :func:`repro.contracts.invariants.check_recovery_identity`).
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.campaign import CampaignArm, CampaignSpec, CampaignStore, run_campaign
from repro.campaign.leases import LeaseManager
from repro.campaign.shards import plan_shards
from repro.contracts.invariants import check_recovery_identity
from repro.service import DAEMON_FILE, ServiceDaemon, ServiceError, read_daemon_file


def make_spec(**overrides):
    base = dict(
        name="daemon-unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1",),
        instances_per_cell=6,
        seed=17,
        simulator={"max_time": 1e5, "max_segments": 20_000},
        shard_size=2,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def wait_for(predicate, timeout=120, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def daemon(tmp_path):
    instance = ServiceDaemon(tmp_path)
    yield instance
    instance.stop(timeout=60)


class TestLifecycle:
    def test_start_publishes_daemon_file_and_goes_ready(self, tmp_path, daemon):
        assert not daemon.is_ready()
        assert daemon.not_ready_reason() == "recovering"
        daemon.start()
        assert daemon.is_ready()
        info = read_daemon_file(tmp_path)
        assert info["pid"] == os.getpid()
        assert info["port"] == daemon.port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{daemon.port}/readyz", timeout=10
        ) as response:
            assert response.status == 200

    def test_double_start_refused(self, daemon):
        daemon.start()
        with pytest.raises(ServiceError, match="already started"):
            daemon.start()

    def test_drain_journals_clean_shutdown_and_removes_daemon_file(
        self, tmp_path, daemon
    ):
        daemon.start()
        daemon.stop()
        assert daemon.not_ready_reason() == "draining"
        assert not daemon.is_ready()
        assert read_daemon_file(tmp_path) is None
        assert daemon.queue.clean_shutdown is True
        # Idempotent: a second stop (the fixture's) is a no-op.
        daemon.stop()

    def test_submit_refused_while_not_ready_but_dedup_answered(self, tmp_path):
        daemon = ServiceDaemon(tmp_path)
        spec = make_spec()
        from repro.service import NotReady

        with pytest.raises(NotReady, match="recovering"):
            daemon.submit(spec)
        # Journal the job out of band, then ask again: dedup is read-only
        # and allowed even when not ready.
        daemon.queue.submit(spec)
        job, created = daemon.submit(spec)
        assert not created and job.digest == spec.digest()

    def test_submitted_job_runs_to_completion(self, tmp_path, daemon):
        daemon.start()
        job, created = daemon.submit(make_spec())
        assert created
        assert wait_for(
            lambda: daemon.queue.job(job.digest).state == "complete"
        ), daemon.queue.job(job.digest).as_dict()
        status = daemon.campaign_status(job.digest)
        assert status["campaign"]["shards_complete"] == status["campaign"]["shards_total"]
        report = daemon.campaign_report(job.digest)
        assert report["rows_stored"] == report["rows_total"] == 6
        assert daemon.campaign_status("no-such-digest") is None
        assert daemon.campaign_report("no-such-digest") is None

    def test_metrics_aggregate_queue_scheduler_and_run_stats(self, tmp_path, daemon):
        before = daemon.metrics()
        assert before["queue"]["jobs_total"] == 0
        assert before["queue"]["depth"] == 0
        assert before["shards"]["shards_per_second"] is None
        daemon.start()
        job, _ = daemon.submit(make_spec())
        assert wait_for(lambda: daemon.queue.job(job.digest).state == "complete")
        metrics = daemon.metrics()
        assert metrics["ready"] is True
        assert metrics["queue"]["jobs_by_state"] == {"complete": 1}
        assert metrics["queue"]["depth"] == 0
        assert metrics["queue"]["attempts_total"] == 1
        assert metrics["queue"]["torn_lines"] == 0
        assert metrics["scheduler"]["jobs_completed"] == 1
        assert metrics["scheduler"]["jobs_quarantined"] == 0
        # 6 instances / shard_size 2 = 3 shards, each attempted exactly once.
        assert metrics["shards"]["shards_executed"] == 3
        assert metrics["shards"]["shard_attempts"] == 3
        assert metrics["shards"]["shards_retried"] == 0
        assert metrics["shards"]["rows_computed"] == 6
        assert metrics["shards"]["shards_per_second"] > 0

    def test_session_shard_window_resets_on_restart(self, tmp_path, daemon):
        daemon.start()
        job, _ = daemon.submit(make_spec())
        assert wait_for(lambda: daemon.queue.job(job.digest).state == "complete")
        metrics = daemon.metrics()
        # First session: this scheduler executed everything, so the
        # since-startup window matches the lifetime totals.
        assert metrics["shards_session"]["shards_executed"] == 3
        assert metrics["shards_session"]["rows_computed"] == 6
        assert metrics["shards_session"]["shards_per_second"] > 0
        daemon.stop(timeout=60)

        successor = ServiceDaemon(tmp_path)
        try:
            successor.start()
            assert wait_for(successor.is_ready)
            fresh = successor.metrics()
            # Lifetime totals replay from the journal; the session window
            # starts empty — the distinction the two keys exist for.
            assert fresh["shards"]["shards_executed"] == 3
            assert fresh["shards_session"]["shards_executed"] == 0
            assert fresh["shards_session"]["shards_per_second"] is None
        finally:
            successor.stop(timeout=60)

    def test_metrics_served_over_http(self, tmp_path, daemon):
        daemon.start()
        with urllib.request.urlopen(
            f"http://127.0.0.1:{daemon.port}/metrics", timeout=10
        ) as response:
            payload = json.loads(response.read())
        assert payload["ready"] is True
        assert payload["queue"]["depth"] == 0

    def test_status_before_store_exists(self, tmp_path):
        daemon = ServiceDaemon(tmp_path)
        job, _ = daemon.queue.submit(make_spec())
        status = daemon.campaign_status(job.digest)
        assert status["job"]["state"] == "submitted"
        assert status["campaign"] is None
        assert daemon.campaign_report(job.digest)["cells"] == []


class TestRecovery:
    def _interrupt_mid_campaign(self, service_dir, spec):
        """Session one: start the job, stop the daemon mid-run (hard enough
        that the job is still `running` in the journal)."""
        ran = threading.Event()

        def observed(shard):
            ran.set()
            time.sleep(0.05)

        daemon = ServiceDaemon(
            service_dir, campaign_options={"shard_hook": observed}
        )
        daemon.start()
        job, _ = daemon.submit(spec)
        assert ran.wait(timeout=120)
        daemon.stop(timeout=60)
        return job

    def test_recover_then_resume_is_byte_identical(self, tmp_path):
        spec = make_spec(instances_per_cell=10, shard_size=2)
        service_dir = tmp_path / "service"
        job = self._interrupt_mid_campaign(service_dir, spec)

        queue_state = ServiceDaemon(service_dir).queue.job(job.digest)
        assert queue_state.state == "running"  # the crash-orphan signal

        # Session two: startup recovery repairs the store, the scheduler
        # resumes, and the job completes.
        daemon = ServiceDaemon(service_dir)
        daemon.start()
        try:
            assert daemon.queue.clean_shutdown is False  # start journaled
            assert wait_for(
                lambda: daemon.queue.job(job.digest).state == "complete"
            ), daemon.queue.job(job.digest).as_dict()
            stats = daemon.queue.job(job.digest).stats
            recovered = CampaignStore(
                daemon.queue.store_path(job.digest)
            ).export_columns()
        finally:
            daemon.stop(timeout=60)

        # Reference: the same spec run uninterrupted.
        reference_dir = tmp_path / "reference"
        run_campaign(str(reference_dir), spec)
        reference = CampaignStore(str(reference_dir)).export_columns()

        assert check_recovery_identity(
            reference, recovered, rows_recomputed=stats["rows_recomputed"]
        )

    def test_recover_skips_jobs_without_stores(self, tmp_path):
        daemon = ServiceDaemon(tmp_path)
        job, _ = daemon.queue.submit(make_spec())
        daemon.queue.mark_running(job.digest)  # crashed before initialize
        fresh = ServiceDaemon(tmp_path)
        assert fresh.recover() == []

    def test_recover_repairs_orphaned_shard_data(self, tmp_path):
        # A committed store with one orphaned npz (crash between the data
        # replace and the manifest append) under a `running` job.
        daemon = ServiceDaemon(tmp_path)
        job, _ = daemon.queue.submit(make_spec())
        daemon.queue.mark_running(job.digest)
        store_dir = daemon.queue.store_path(job.digest)
        run_campaign(store_dir, make_spec(), max_shards=1)
        store = CampaignStore(store_dir)
        orphan = os.path.join(store.directory, store.SHARD_DIR, "deadbeef.npz")
        with open(orphan, "wb") as handle:
            handle.write(b"half-written")

        fresh = ServiceDaemon(tmp_path)
        assert fresh.recover() == [job.digest]
        assert not os.path.exists(orphan)
        assert store.doctor()["clean"]


class TestDeadLeaseTakeover:
    """Recovery clears a lease only when its owner is provably gone."""

    def _orphan_with_lease(self, tmp_path, owner):
        daemon = ServiceDaemon(tmp_path)
        job, _ = daemon.queue.submit(make_spec())
        daemon.queue.mark_running(job.digest)
        store_dir = daemon.queue.store_path(job.digest)
        run_campaign(store_dir, make_spec(), max_shards=1)
        store = CampaignStore(store_dir)
        planned = [shard.shard_id for shard in plan_shards(make_spec())]
        shard = next(s for s in planned if s not in store.completed())
        assert LeaseManager(store.lease_dir, owner=owner).acquire(shard)
        return store, LeaseManager(store.lease_dir).lease_path(shard)

    @staticmethod
    def _gone_pid():
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        return child.pid

    def test_fresh_lease_of_a_dead_local_pid_is_cleared(self, tmp_path):
        owner = f"{socket.gethostname()}:{self._gone_pid()}:0badf00d"
        store, lease = self._orphan_with_lease(tmp_path, owner)
        ServiceDaemon(tmp_path).recover()
        assert not os.path.exists(lease)
        assert store.doctor()["active_leases"] == []

    @pytest.mark.parametrize(
        "owner",
        [
            pytest.param(f"{socket.gethostname()}:{os.getpid()}:0badf00d", id="live-pid"),
            pytest.param("elsewhere.example:999999:0badf00d", id="other-host"),
            pytest.param("runner-a", id="custom-owner"),
            pytest.param(f"{socket.gethostname()}:pid:0badf00d", id="unparsed-pid"),
        ],
    )
    def test_lease_without_proof_of_death_is_kept(self, tmp_path, owner):
        store, lease = self._orphan_with_lease(tmp_path, owner)
        ServiceDaemon(tmp_path).recover()
        assert os.path.exists(lease)
        assert len(store.doctor()["active_leases"]) == 1


class TestDaemonFile:
    def test_read_daemon_file_absent_or_corrupt(self, tmp_path):
        assert read_daemon_file(tmp_path) is None
        (tmp_path / DAEMON_FILE).write_text("{torn")
        assert read_daemon_file(tmp_path) is None
        (tmp_path / DAEMON_FILE).write_text(json.dumps([1]))
        assert read_daemon_file(tmp_path) is None


class TestTrace:
    def test_two_job_session_keeps_every_worker_span_once(self, tmp_path, monkeypatch):
        from repro.obs import trace
        from repro.obs.core import _override_mode

        path = str(tmp_path / "trace.json")
        # Spawned workers resolve the trace sink from the environment; this
        # process's sink is pointed at the same file with a fresh buffer.
        monkeypatch.setenv(trace.TRACE_ENV, path)
        monkeypatch.setenv("REPRO_OBS", "on")
        monkeypatch.setattr(trace, "_PATH", path)
        monkeypatch.setattr(trace, "_EVENTS", [])
        monkeypatch.setattr(trace, "_ABSORBED", [])
        monkeypatch.setattr(trace, "_MERGED", False)
        monkeypatch.setattr(trace, "_FLUSH_REGISTERED", True)  # no atexit litter
        daemon = ServiceDaemon(tmp_path / "service", campaign_options={"workers": 2})
        with _override_mode("on"):
            daemon.start()
            try:
                for seed in (1, 2):
                    job, _ = daemon.submit(make_spec(seed=seed, instances_per_cell=4))
                    assert wait_for(
                        lambda: daemon.queue.job(job.digest).state == "complete"
                    ), daemon.queue.job(job.digest).as_dict()
            finally:
                daemon.stop(timeout=60)
        events = json.load(open(path))["traceEvents"]
        shards = [
            event for event in events
            if event["name"] == "campaign.shard" and event["pid"] != os.getpid()
        ]
        assert len(shards) == 4  # two jobs of two shards, both jobs kept
        keys = [(event["name"], event["pid"], event["tid"], event["ts"]) for event in events]
        assert len(keys) == len(set(keys))
        assert trace.validate(path) == len(events)
        assert not [name for name in os.listdir(tmp_path) if ".seg-" in name]
