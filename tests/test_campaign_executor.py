"""Fault-tolerant execution: worker pools, injected faults, quarantine, signals.

The acceptance contract of the robustness work, pinned end to end: whatever
goes wrong mid-campaign — a worker SIGKILLed, a shard hung past its timeout,
a poison shard exhausting its attempts, an operator's Ctrl-C, two runner
processes racing over one store — the surviving store is always valid, resume
recomputes zero finished shards, and the final exported columns are
byte-identical to a sequential uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignArm,
    CampaignError,
    CampaignSpec,
    CampaignStore,
    FaultInjection,
    plan_shards,
    run_campaign,
)
from repro.campaign.executor import SlotPool, retry_delay
from repro.contracts.core import ContractViolation, _override_mode

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def make_spec(**overrides):
    base = dict(
        name="executor-unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1", "type-2"),
        instances_per_cell=6,
        seed=13,
        simulator={"max_time": 1e6, "max_segments": 50_000},
        shard_size=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def identical_stores(dir_a, dir_b):
    a = CampaignStore(str(dir_a)).export_columns()
    b = CampaignStore(str(dir_b)).export_columns()
    assert set(a) == set(b)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), f"column {name} differs"


@pytest.fixture(scope="module")
def sequential_reference(tmp_path_factory):
    """One uninterrupted ``workers=1`` run: the byte-identity baseline."""
    directory = tmp_path_factory.mktemp("reference") / "camp"
    stats = run_campaign(str(directory), make_spec())
    assert stats.complete
    return directory


class TestRetryDelay:
    def test_grows_exponentially_with_jitter_bounds(self):
        for attempt in (1, 2, 3, 4):
            base = 0.25 * 2.0 ** (attempt - 1)
            for _ in range(20):
                delay = retry_delay(attempt, 0.25)
                assert base <= delay <= base * 1.5

    def test_zero_base_means_no_wait(self):
        assert retry_delay(3, 0.0) == 0.0

    def test_fault_kinds_are_validated(self):
        with pytest.raises(ValueError):
            FaultInjection("explode")


class TestValidation:
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("workers", 0),
            ("workers", -2),
            ("workers", True),
            ("max_attempts", 0),
            ("max_shards", 0),
            ("shard_timeout", 0.0),
            ("shard_timeout", -5.0),
            ("lease_timeout", 0.0),
        ],
    )
    def test_non_positive_knobs_are_rejected_with_the_knob_name(
        self, tmp_path, knob, value
    ):
        with pytest.raises(CampaignError, match=knob):
            run_campaign(str(tmp_path / "camp"), make_spec(), **{knob: value})

    def test_negative_retry_backoff_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="retry_backoff"):
            run_campaign(str(tmp_path / "camp"), make_spec(), retry_backoff=-1.0)

    def test_validation_runs_before_the_store_is_touched(self, tmp_path):
        directory = tmp_path / "camp"
        with pytest.raises(CampaignError):
            run_campaign(str(directory), make_spec(), workers=0)
        assert not directory.exists()


class TestInlineFaults:
    """The ``workers=1`` path shares the retry/quarantine failure model."""

    def test_flaky_shard_retries_and_completes(self, tmp_path, sequential_reference):
        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[1].shard_id
        failed = set()

        def flaky_hook(shard):
            if shard.shard_id == target and shard.shard_id not in failed:
                failed.add(shard.shard_id)
                raise FaultInjection("fail")

        stats = run_campaign(
            str(directory), spec, shard_hook=flaky_hook, retry_backoff=0.01
        )
        assert stats.complete
        assert stats.shards_retried == 1
        assert stats.shard_attempts == stats.shards_planned + 1
        assert stats.rows_recomputed == 0
        identical_stores(directory, sequential_reference)

    def test_poison_shard_quarantines_instead_of_aborting(self, tmp_path):
        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[0].shard_id

        def poison_hook(shard):
            if shard.shard_id == target:
                raise FaultInjection("fail")

        stats = run_campaign(
            str(directory), spec, shard_hook=poison_hook,
            max_attempts=2, retry_backoff=0.01,
        )
        assert not stats.complete
        assert stats.shards_quarantined == 1
        assert stats.shards_executed == stats.shards_planned - 1
        entry = CampaignStore(str(directory)).failed_shards()[target]
        assert entry["attempts"] == 2
        assert "injected shard fault" in entry["error"]

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_process_faults_need_the_worker_pool(self, tmp_path, kind):
        def hook(shard):
            raise FaultInjection(kind)

        with pytest.raises(CampaignError, match="workers >= 2"):
            run_campaign(str(tmp_path / "camp"), make_spec(), shard_hook=hook)

    def test_resume_skips_quarantined_until_repaired(self, tmp_path, sequential_reference):
        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[2].shard_id

        def poison_hook(shard):
            if shard.shard_id == target:
                raise FaultInjection("fail")

        run_campaign(
            str(directory), spec, shard_hook=poison_hook,
            max_attempts=2, retry_backoff=0.01,
        )
        store = CampaignStore(str(directory))

        # Resume without repair: the quarantined shard stays skipped, the
        # campaign stays degraded, and the export refuses the partial store.
        resumed = run_campaign(str(directory))
        assert resumed.shards_quarantined == 1
        assert resumed.shards_executed == 0
        with pytest.raises(CampaignError, match="incomplete"):
            store.export_columns()

        # doctor --repair clears the ledger; resume then retries exactly the
        # poisoned shard and the finished store is byte-identical.
        report = store.doctor(repair=True)
        assert any("quarantine" in action for action in report["repaired"])
        final = run_campaign(str(directory))
        assert final.complete
        assert final.shards_executed == 1
        assert final.rows_recomputed == 0
        identical_stores(directory, sequential_reference)

    def test_sigint_interrupts_cleanly_and_resume_finishes(
        self, tmp_path, sequential_reference
    ):
        directory = tmp_path / "camp"
        fired = []

        def interrupt_hook(shard):
            # Ctrl-C arrives while the second shard is in flight; the loop
            # must finish that shard, release every lease and stop.
            if len(fired) == 1:
                os.kill(os.getpid(), signal.SIGINT)
            fired.append(shard.shard_id)

        stats = run_campaign(str(directory), make_spec(), shard_hook=interrupt_hook)
        assert stats.interrupted
        assert 0 < stats.shards_executed < stats.shards_planned
        lease_dir = CampaignStore(str(directory)).lease_dir
        assert not os.path.isdir(lease_dir) or not os.listdir(lease_dir)

        resumed = run_campaign(str(directory))
        assert resumed.complete
        assert resumed.shards_skipped == stats.shards_executed
        assert resumed.rows_recomputed == 0
        identical_stores(directory, sequential_reference)


class TestWorkerPool:
    """``workers >= 2``: the spawned pool with death/hang/poison recovery."""

    def test_pool_run_is_byte_identical_to_sequential(
        self, tmp_path, sequential_reference
    ):
        directory = tmp_path / "camp"
        stats = run_campaign(str(directory), make_spec(), workers=2)
        assert stats.complete
        assert stats.workers == 2
        assert stats.worker_restarts == 0
        assert stats.rows_recomputed == 0
        identical_stores(directory, sequential_reference)

    def test_killed_worker_is_replaced_and_its_shard_rerun(
        self, tmp_path, sequential_reference
    ):
        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[0].shard_id
        killed = set()

        def kill_once_hook(shard):
            if shard.shard_id == target and shard.shard_id not in killed:
                killed.add(shard.shard_id)
                raise FaultInjection("kill")

        stats = run_campaign(
            str(directory), spec, workers=2,
            shard_hook=kill_once_hook, retry_backoff=0.01,
        )
        assert stats.complete
        assert stats.worker_restarts >= 1
        assert stats.shards_retried >= 1
        assert stats.rows_recomputed == 0
        identical_stores(directory, sequential_reference)

    def test_hung_shard_times_out_and_reruns(self, tmp_path, sequential_reference):
        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[1].shard_id
        hung = set()

        def hang_once_hook(shard):
            if shard.shard_id == target and shard.shard_id not in hung:
                hung.add(shard.shard_id)
                raise FaultInjection("hang")

        stats = run_campaign(
            str(directory), spec, workers=2, shard_timeout=1.0,
            shard_hook=hang_once_hook, retry_backoff=0.01,
        )
        assert stats.complete
        assert stats.worker_restarts >= 1
        assert stats.rows_recomputed == 0
        identical_stores(directory, sequential_reference)

    def test_poison_shard_quarantines_with_traceback(self, tmp_path):
        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[3].shard_id

        def poison_hook(shard):
            if shard.shard_id == target:
                raise FaultInjection("fail")

        stats = run_campaign(
            str(directory), spec, workers=2,
            shard_hook=poison_hook, max_attempts=2, retry_backoff=0.01,
        )
        assert not stats.complete
        assert stats.shards_quarantined == 1
        assert stats.shards_executed == stats.shards_planned - 1
        entry = CampaignStore(str(directory)).failed_shards()[target]
        assert entry["attempts"] == 2
        assert "injected shard fault" in entry["error"]
        assert "Traceback" in entry["error"]  # captured inside the worker

    def test_sigterm_abandons_in_flight_work_and_releases_leases(
        self, tmp_path, sequential_reference
    ):
        directory = tmp_path / "camp"
        fired = []

        def stop_hook(shard):
            if not fired:
                os.kill(os.getpid(), signal.SIGTERM)
            fired.append(shard.shard_id)

        stats = run_campaign(str(directory), make_spec(), workers=2, shard_hook=stop_hook)
        assert stats.interrupted
        assert not stats.complete
        lease_dir = CampaignStore(str(directory)).lease_dir
        assert not os.path.isdir(lease_dir) or not os.listdir(lease_dir)

        resumed = run_campaign(str(directory), workers=2)
        assert resumed.complete
        assert resumed.rows_recomputed == 0
        identical_stores(directory, sequential_reference)


class TestWarmSlots:
    """One slot pool lent to several runs, as the service daemon lends its own."""

    def test_reused_slots_match_fresh_slots_across_specs(
        self, tmp_path, sequential_reference
    ):
        exact = make_spec(
            name="executor-exact",
            arms=(CampaignArm(algorithm="cgkk"),),
            simulator={"max_time": 1e6, "max_segments": 10_000, "timebase": "exact"},
        )
        fresh = run_campaign(str(tmp_path / "fresh-exact"), exact, workers=2)
        assert fresh.complete and fresh.slots_spawned == 2
        pool = SlotPool()
        try:
            runs = [
                run_campaign(str(tmp_path / name), spec, workers=2, pool=pool)
                for name, spec in (
                    ("warm-float", make_spec()),
                    ("warm-exact", exact),
                    ("warm-float-again", make_spec()),
                )
            ]
        finally:
            pool.close()
        assert [stats.slots_spawned for stats in runs] == [2, 0, 0]
        assert all(stats.complete and stats.worker_restarts == 0 for stats in runs)
        identical_stores(tmp_path / "warm-float", sequential_reference)
        identical_stores(tmp_path / "warm-exact", tmp_path / "fresh-exact")
        identical_stores(tmp_path / "warm-float-again", sequential_reference)

    def test_idle_slot_killed_between_jobs_is_replaced_on_borrow(
        self, tmp_path, sequential_reference
    ):
        pool = SlotPool()
        try:
            run_campaign(str(tmp_path / "first"), make_spec(seed=5), workers=2, pool=pool)
            victim = pool._idle[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            stats = run_campaign(str(tmp_path / "second"), make_spec(), workers=2, pool=pool)
        finally:
            pool.close()
        assert stats.complete
        assert stats.slots_spawned == 1
        # Replaced before any dispatch: no shard was charged an attempt.
        assert stats.worker_restarts == 0
        assert stats.shards_retried == 0
        assert stats.shard_attempts == stats.shards_executed
        identical_stores(tmp_path / "second", sequential_reference)

    def test_worker_exits_quietly_when_its_parent_goes(self, capfd):
        pool = SlotPool()
        (worker,), spawned = pool.borrow(1)
        assert spawned == 1
        # The parent's end of the pipe closing is all a worker sees of a
        # parent killed with SIGKILL.
        worker.conn.close()
        worker.process.join(timeout=60)
        assert worker.process.exitcode == 0
        assert "Traceback" not in capfd.readouterr().err


class TestEventDrivenDispatch:
    def test_no_wait_while_a_free_slot_could_take_a_ready_shard(
        self, tmp_path, sequential_reference, monkeypatch
    ):
        # Each turn commits finished shards before it dispatches, so a slot
        # freed by a result takes the next due shard before the loop blocks.
        from repro.campaign.executor import ShardExecutor

        stalls = []
        wait = ShardExecutor._wait

        def recording_wait(self, ready, *args):
            now = time.monotonic()
            idle = any(slot.current is None for slot in self._slots)
            due = any(not_before <= now for _, _, not_before in ready)
            stalls.append(idle and due)
            return wait(self, ready, *args)

        monkeypatch.setattr(ShardExecutor, "_wait", recording_wait)
        spec = make_spec(shard_size=2)
        assert len(plan_shards(spec)) >= 6
        stats = run_campaign(str(tmp_path / "camp"), spec, workers=2)
        assert stats.complete
        assert stalls and not any(stalls)
        identical_stores(tmp_path / "camp", sequential_reference)


class TestCommitFailure:
    """A store that refuses a write is a store fault, not a shard fault."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_commit_propagates_for_every_worker_count(
        self, tmp_path, monkeypatch, workers
    ):
        def refuse(self, shard, columns, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(CampaignStore, "write_shard", refuse)
        directory = tmp_path / "camp"
        with pytest.raises(OSError, match="disk full"):
            run_campaign(
                str(directory), make_spec(), workers=workers, retry_backoff=0.01
            )
        store = CampaignStore(str(directory))
        # Neither retried into quarantine nor recorded; every lease released.
        assert store.failed_shards() == {}
        assert store.completed() == {}
        assert not os.path.isdir(store.lease_dir) or not os.listdir(store.lease_dir)


CONCURRENT_DRIVER = """\
import json, sys
sys.path.insert(0, {src!r})
from repro.campaign import run_campaign

directory, owner, stats_path = sys.argv[1:4]
stats = run_campaign(directory, owner=owner)
payload = stats.as_dict()
payload["executed_shard_ids"] = stats.executed_shard_ids
with open(stats_path, "w") as handle:
    json.dump(payload, handle)
"""


class TestConcurrentRunners:
    def test_two_processes_partition_the_campaign_without_duplication(
        self, tmp_path, sequential_reference
    ):
        directory = tmp_path / "camp"
        CampaignStore(str(directory)).initialize(make_spec())
        driver = tmp_path / "driver.py"
        driver.write_text(CONCURRENT_DRIVER.format(src=SRC))

        procs, stats_paths = [], []
        for name in ("runner-a", "runner-b"):
            stats_path = tmp_path / f"{name}.json"
            stats_paths.append(stats_path)
            procs.append(
                subprocess.Popen(
                    [sys.executable, str(driver), str(directory), name, str(stats_path)],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                )
            )
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr.decode()

        results = [json.loads(path.read_text()) for path in stats_paths]
        executed = [result["executed_shard_ids"] for result in results]
        # Zero duplicated shard computations: the lease protocol partitions
        # the plan, so no shard id appears in both runners' executed lists
        # (nor twice in one).
        combined = executed[0] + executed[1]
        assert len(combined) == len(set(combined))
        assert all(result["rows_recomputed"] == 0 for result in results)
        # Between them (plus any shards one skipped because the other had
        # already committed) the campaign finished, byte-identically.
        assert any(result["complete"] for result in results)
        identical_stores(directory, sequential_reference)

    def test_foreign_fresh_lease_parks_the_shard_until_peer_commits(
        self, tmp_path, sequential_reference
    ):
        # Simulate a live peer: hold one shard's lease from the test, let a
        # run park it, then commit the shard "as the peer" and release.
        from repro.campaign.leases import LeaseManager
        from repro.campaign.shards import shard_instances, shard_tasks
        from repro.campaign.store import outcome_columns
        from repro.parallel.runner import BatchRunner
        import threading

        directory = tmp_path / "camp"
        spec = make_spec()
        store = CampaignStore(str(directory))
        store.initialize(spec)
        held = plan_shards(spec)[0]
        peer = LeaseManager(store.lease_dir, owner="peer")
        assert peer.acquire(held.shard_id)

        def commit_as_peer():
            time.sleep(0.6)
            outcomes = BatchRunner().run(shard_tasks(spec, held, shard_instances(spec, held)))
            store.write_shard(held, outcome_columns(held, outcomes))
            peer.release(held.shard_id)

        thread = threading.Thread(target=commit_as_peer)
        thread.start()
        try:
            stats = run_campaign(str(directory), spec)
        finally:
            thread.join()
        # The run never computed the peer's shard itself...
        assert held.shard_id not in stats.executed_shard_ids
        assert stats.lease_conflicts >= 1
        assert stats.shards_completed_elsewhere == 1
        # ...yet the campaign finished, byte-identical to the reference.
        assert stats.complete
        identical_stores(directory, sequential_reference)


class TestForeignPoll:
    def test_one_lease_listing_per_poll(self, tmp_path, monkeypatch):
        # Every shard is parked under a live peer's fresh lease: one poll
        # keeps them all parked and lists the lease directory once, not once
        # per shard.
        import collections

        from repro.campaign.executor import ShardExecutor
        from repro.campaign.leases import LeaseManager

        store = CampaignStore(str(tmp_path / "camp"))
        spec = make_spec()
        store.initialize(spec)
        shards = plan_shards(spec)
        peer = LeaseManager(store.lease_dir, owner="peer")
        assert all(peer.acquire(shard.shard_id) for shard in shards)
        leases = LeaseManager(store.lease_dir, owner="runner")
        listings = []
        stale_leases = leases.stale_leases
        monkeypatch.setattr(
            leases, "stale_leases", lambda: listings.append(1) or stale_leases()
        )
        executor = ShardExecutor(
            store=store, spec=spec, leases=leases, stats=None, emit=lambda _: None,
            workers=1, pool=None, plan_size=len(shards),
        )
        foreign = {shard.shard_id: shard for shard in shards}
        ready = collections.deque()
        assert not executor._poll_foreign(ready, foreign)
        assert len(foreign) == len(shards) >= 4 and not ready
        assert len(listings) == 1


class TestRecomputeAccounting:
    """``rows_recomputed`` counts rows committed over a shard already on record."""

    def _run_with_peer_commit(self, directory, reference):
        # The hook runs after this run claimed the shard's lease and checked
        # the manifest: committing the reference bytes there plays a peer
        # that finished the shard behind our back, so our commit recomputes it.
        spec = make_spec()
        target = plan_shards(spec)[1]
        store = CampaignStore(str(directory))

        def peer_commit(shard):
            if shard.shard_id == target.shard_id and shard.shard_id not in store.completed():
                columns = CampaignStore(str(reference)).read_shard(shard.shard_id)
                store.write_shard(shard, columns)

        return target, run_campaign(str(directory), spec, shard_hook=peer_commit)

    def test_recommitted_shard_counts_its_rows(self, tmp_path, sequential_reference):
        directory = tmp_path / "camp"
        with _override_mode("off"):
            target, stats = self._run_with_peer_commit(directory, sequential_reference)
        assert target.shard_id in stats.executed_shard_ids
        assert stats.rows_recomputed == target.count
        assert stats.complete
        identical_stores(directory, sequential_reference)

    def test_takeover_recommit_keeps_the_contract(self, tmp_path, sequential_reference):
        # This run claims the target's lease, then stalls in the hook past
        # lease_timeout without a heartbeat; a peer takes the stale lease
        # over and commits the shard first.  The run's own commit of the same
        # shard is a takeover recommit: counted, byte-identical, and no
        # breach of "never execute a shard recorded complete at the start".
        from repro.campaign.leases import LeaseManager

        directory = tmp_path / "camp"
        spec = make_spec()
        target = plan_shards(spec)[1]
        store = CampaignStore(str(directory))
        lease_timeout = 0.3
        peer = LeaseManager(store.lease_dir, owner="peer", stale_after=lease_timeout)

        def stall_then_peer_takes_over(shard):
            if shard.shard_id != target.shard_id or shard.shard_id in store.completed():
                return
            time.sleep(lease_timeout * 2)
            assert peer.acquire(shard.shard_id)
            columns = CampaignStore(str(sequential_reference)).read_shard(shard.shard_id)
            store.write_shard(shard, columns)
            peer.release(shard.shard_id)

        with _override_mode("raise"):
            stats = run_campaign(
                str(directory),
                spec,
                shard_hook=stall_then_peer_takes_over,
                lease_timeout=lease_timeout,
            )
        assert peer.takeovers == 1
        assert stats.executed_shard_ids.count(target.shard_id) == 1
        assert stats.rows_recomputed == target.count
        assert stats.complete
        identical_stores(directory, sequential_reference)

    def test_contract_fires_when_a_recorded_shard_runs_again(
        self, tmp_path, monkeypatch
    ):
        # A scheduler that executed a shard the manifest recorded before the
        # call began is what the contract exists to catch.
        from repro.campaign import orchestrator

        directory = tmp_path / "camp"
        spec = make_spec()
        run_campaign(str(directory), spec, max_shards=1)
        first = plan_shards(spec)[0]
        real_run = orchestrator.ShardExecutor.run

        def rerun_first(executor, pending):
            real_run(executor, pending)
            executor.stats.executed_shard_ids.append(first.shard_id)

        monkeypatch.setattr(orchestrator.ShardExecutor, "run", rerun_first)
        with _override_mode("raise"), pytest.raises(
            ContractViolation, match="campaign.resume_no_recompute"
        ):
            run_campaign(str(directory))


class TestWorkerPhaseObservability:
    """REPRO_OBS=on in the pool: workers measure, the parent just commits.

    Spawned workers re-resolve the mode from the inherited environment, time
    their own IPC (two-message protocol: pickled columns, then metadata with
    the phase dict), and the parent — still off-mode itself — dispatches on
    the message tag and writes whatever phases arrive into the manifest.
    """

    def test_pool_ships_phases_and_ipc_bytes(
        self, tmp_path, monkeypatch, sequential_reference
    ):
        from repro.obs.phases import IPC_BYTES_KEY, IPC_PHASES, WALL_PHASES

        monkeypatch.setenv("REPRO_OBS", "on")
        directory = tmp_path / "camp"
        stats = run_campaign(str(directory), make_spec(), workers=2)
        assert stats.complete
        records = CampaignStore(str(directory)).completed()
        assert records
        allowed = set(WALL_PHASES) | set(IPC_PHASES) | {IPC_BYTES_KEY}
        for record in records.values():
            phases = record["phases"]
            assert set(phases) <= allowed
            assert phases[IPC_BYTES_KEY] > 0
            for key in IPC_PHASES:
                assert phases[key] >= 0.0
            attributed = sum(phases.get(key, 0.0) for key in WALL_PHASES)
            assert 0.0 < attributed <= record["wall_seconds"] + 1e-6
        # Instrumentation must not perturb the computation itself.
        identical_stores(directory, sequential_reference)
