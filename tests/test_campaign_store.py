"""The on-disk columnar store: atomicity, manifest recovery, streaming reads.

The store's contract is what makes campaigns crash-safe: a shard data file
exists completely or not at all, a manifest line never references missing
data, and a half-dead directory (torn manifest line, deleted shard file,
corrupted bytes) degrades to "those shards re-run" — never to a wrong or
partial aggregate silently standing in for a complete one.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.campaign import (
    CampaignArm,
    CampaignError,
    CampaignSpec,
    CampaignStore,
    plan_shards,
)
from repro.campaign.shards import shard_instances, shard_tasks
from repro.campaign.store import RESULT_COLUMNS, outcome_columns
from repro.core.instance import Instance
from repro.parallel.runner import BatchRunner
from repro.sim.columns import TERMINATION_BY_CODE
from repro.sim.results import AsymmetricOutcome, SimulationResult, TerminationReason


def make_spec(**overrides):
    base = dict(
        name="store-unit",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1",),
        instances_per_cell=6,
        seed=2,
        simulator={"max_time": 1e5, "max_segments": 20_000},
        shard_size=3,
    )
    base.update(overrides)
    return CampaignSpec(**base)


FAKE_INSTANCE = Instance(r=0.5, x=1.0, y=1.0)


def fake_outcome(met=True, **overrides):
    fields = dict(
        instance=FAKE_INSTANCE,
        algorithm_name="fake",
        met=met,
        termination=TerminationReason.RENDEZVOUS if met else TerminationReason.MAX_TIME,
        meeting_time=2.5 if met else None,
        min_distance=0.4,
        min_distance_time=1.5,
        simulated_time=2.5,
        segments_a=3,
        segments_b=4,
        windows_processed=7,
    )
    fields.update(overrides)
    return AsymmetricOutcome(SimulationResult(**fields), 0.5, 0.5)


def fake_columns(shard, outcomes=None):
    """Store columns for ``shard`` from fake outcomes (one per row by default)."""
    if outcomes is None:
        outcomes = [fake_outcome() for _ in range(shard.count)]
    return outcome_columns(shard, outcomes)


@pytest.fixture
def store(tmp_path):
    store = CampaignStore(str(tmp_path / "camp"))
    store.initialize(make_spec())
    return store


def write_all(store, spec=None):
    spec = spec if spec is not None else store.load_spec()
    plan = plan_shards(spec)
    for shard in plan:
        store.write_shard(shard, fake_columns(shard), wall_seconds=0.1)
    return plan


class TestInitialize:
    def test_creates_spec_and_reopens_idempotently(self, store):
        assert store.exists()
        assert store.load_spec() == make_spec()
        store.initialize(make_spec(name="renamed"))  # same digest: fine

    def test_refuses_a_different_campaign(self, store):
        with pytest.raises(CampaignError, match="refusing"):
            store.initialize(make_spec(seed=3))

    def test_load_without_spec_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="not a campaign directory"):
            CampaignStore(str(tmp_path / "nothing")).load_spec()


class TestWriteAndRead:
    def test_write_then_completed_and_read(self, store):
        plan = write_all(store)
        done = store.completed()
        assert set(done) == {shard.shard_id for shard in plan}
        columns = store.read_shard(plan[0].shard_id)
        assert set(columns) == set(RESULT_COLUMNS)
        assert columns["met"].all()
        assert (columns["position"] == np.arange(plan[0].count)).all()

    def test_outcome_columns_store_each_field_in_its_column(self):
        shard = plan_shards(make_spec())[0]
        other = Instance(r=0.25, x=-2.0, y=3.0, phi=0.5, tau=1.5, v=2.0, t=0.125, chi=-1)
        outcomes = [
            fake_outcome(),
            AsymmetricOutcome(
                SimulationResult(
                    instance=other,
                    algorithm_name="fake",
                    met=False,
                    termination=TerminationReason.MAX_SEGMENTS,
                    meeting_time=None,
                    min_distance=0.4,
                    min_distance_time=None,
                    simulated_time=9.5,
                    segments_a=11,
                    segments_b=13,
                    windows_processed=17,
                ),
                0.25,
                0.5,
                frozen_agent="B",
                freeze_time=1.25,
                freeze_distance=0.75,
            ),
            AsymmetricOutcome(
                fake_outcome(min_distance=float("inf")).result,
                0.5,
                0.25,
                frozen_agent="A",
                freeze_time=2.0,
                freeze_distance=0.375,
            ),
        ]
        columns = outcome_columns(shard, outcomes)
        assert columns["met"].tolist() == [True, False, True]
        assert columns["termination"].tolist() == [
            TERMINATION_BY_CODE.index(TerminationReason.RENDEZVOUS),
            TERMINATION_BY_CODE.index(TerminationReason.MAX_SEGMENTS),
            TERMINATION_BY_CODE.index(TerminationReason.RENDEZVOUS),
        ]
        np.testing.assert_array_equal(columns["meeting_time"], [2.5, np.nan, 2.5])
        np.testing.assert_array_equal(columns["min_distance"], [0.4, 0.4, np.inf])
        np.testing.assert_array_equal(columns["min_distance_time"], [1.5, np.nan, 1.5])
        np.testing.assert_array_equal(columns["simulated_time"], [2.5, 9.5, 2.5])
        assert columns["segments_a"].tolist() == [3, 11, 3]
        assert columns["segments_b"].tolist() == [4, 13, 4]
        assert columns["windows"].tolist() == [7, 17, 7]
        assert columns["frozen"].tolist() == [-1, 1, 0]
        np.testing.assert_array_equal(columns["freeze_time"], [np.nan, 1.25, 2.0])
        np.testing.assert_array_equal(columns["freeze_distance"], [np.nan, 0.75, 0.375])
        assert columns["position"].tolist() == [0, 1, 2]
        assert columns["arm"].tolist() == [0, 0, 0] and columns["cls"].tolist() == [0, 0, 0]
        for name in ("r", "x", "y", "phi", "tau", "v", "t", "chi"):
            assert columns[f"instance_{name}"].tolist() == [
                getattr(FAKE_INSTANCE, name),
                getattr(other, name),
                getattr(FAKE_INSTANCE, name),
            ]

    def test_shard_columns_encode_sentinels(self):
        # A radii shard that does not track the closest approach, on a budget
        # too short for some instances: both freeze codes, no-freeze rows
        # and unmet rows all occur, and NaN stands in for every None.
        spec = make_spec(
            arms=(
                CampaignArm("almost-universal-compact", "a-big", {"radius_b_ratio": 0.5}),
                CampaignArm("almost-universal-compact", "b-big", {"radius_a_ratio": 0.5}),
            ),
            instances_per_cell=4,
            seed=3,
            shard_size=4,
            simulator={"max_time": 1e3, "max_segments": 20_000, "track_min_distance": False},
        )
        frozen_codes = set()
        for shard in plan_shards(spec):
            instances = shard_instances(spec, shard)
            outcomes = BatchRunner().run(shard_tasks(spec, shard, instances))
            results = [outcome.result for outcome in outcomes]
            columns = outcome_columns(shard, outcomes)
            met = columns["met"]
            assert met.tolist() == [outcome.met for outcome in outcomes]
            assert np.isnan(columns["meeting_time"][~met]).all()
            assert np.isfinite(columns["meeting_time"][met]).all()
            assert np.isinf(columns["min_distance"]).all()
            assert np.isnan(columns["min_distance_time"]).all()
            expected = [{"A": 0, "B": 1}.get(o.frozen_agent, -1) for o in outcomes]
            assert columns["frozen"].tolist() == expected
            unfrozen = columns["frozen"] == -1
            assert np.isnan(columns["freeze_time"][unfrozen]).all()
            assert np.isnan(columns["freeze_distance"][unfrozen]).all()
            assert np.isfinite(columns["freeze_time"][~unfrozen]).all()
            # Every column holds its own field of the outcome it came from.
            for name, values in (
                ("meeting_time", [result.meeting_time for result in results]),
                ("simulated_time", [result.simulated_time for result in results]),
                ("freeze_time", [outcome.freeze_time for outcome in outcomes]),
                ("freeze_distance", [outcome.freeze_distance for outcome in outcomes]),
            ):
                np.testing.assert_array_equal(
                    columns[name], [np.nan if value is None else value for value in values]
                )
            for name, attribute in (
                ("segments_a", "segments_a"),
                ("segments_b", "segments_b"),
                ("windows", "windows_processed"),
            ):
                assert columns[name].tolist() == [
                    getattr(result, attribute) for result in results
                ]
            assert not np.array_equal(
                columns["freeze_time"][~unfrozen], columns["freeze_distance"][~unfrozen]
            )
            assert columns["termination"].tolist() == [
                TERMINATION_BY_CODE.index(outcome.result.termination) for outcome in outcomes
            ]
            assert columns["instance_x"].tolist() == [instance.x for instance in instances]
            assert columns["instance_chi"].tolist() == [instance.chi for instance in instances]
            frozen_codes.update(columns["frozen"].tolist())
            assert not met.all() and met.any()
        assert frozen_codes == {-1, 0, 1}

    def test_row_count_mismatch_rejected(self, store):
        shard = plan_shards(store.load_spec())[0]
        columns = fake_columns(shard, [fake_outcome()] * (shard.count - 1))
        with pytest.raises(CampaignError, match="rows"):
            store.write_shard(shard, columns)

    def test_unknown_or_missing_columns_rejected(self, store):
        shard = plan_shards(store.load_spec())[0]
        columns = fake_columns(shard)
        columns["bogus"] = np.zeros(shard.count)
        with pytest.raises(CampaignError, match="bogus"):
            store.write_shard(shard, columns)
        del columns["bogus"], columns["met"]
        with pytest.raises(CampaignError, match="met"):
            store.write_shard(shard, columns)

    def test_no_temp_files_survive(self, store):
        write_all(store)
        shard_dir = os.path.join(store.directory, CampaignStore.SHARD_DIR)
        assert not [name for name in os.listdir(shard_dir) if name.startswith(".tmp")]


class TestManifestRecovery:
    def test_torn_final_line_is_skipped(self, store):
        plan = write_all(store)
        with open(store.manifest_path, "a") as handle:
            handle.write('{"shard_id": "deadbeef", "rows":')  # crash mid-append
        assert set(store.completed()) == {shard.shard_id for shard in plan}

    def test_record_without_data_file_is_dropped(self, store):
        plan = write_all(store)
        os.unlink(store.shard_path(plan[0].shard_id))
        assert plan[0].shard_id not in store.completed()
        assert plan[1].shard_id in store.completed()

    def test_checksum_verification_drops_corrupt_shards(self, store):
        plan = write_all(store)
        with open(store.shard_path(plan[0].shard_id), "r+b") as handle:
            handle.seek(0)
            handle.write(b"corrupt!")
        assert plan[0].shard_id in store.completed()  # default trusts the manifest
        assert plan[0].shard_id not in store.completed(verify=True)
        problems = store.verify(plan)
        assert any("checksum" in problem for problem in problems)

    def test_verify_reports_incomplete_shards(self, store):
        plan = plan_shards(store.load_spec())
        problems = store.verify(plan)
        assert len(problems) == len(plan)
        assert all("incomplete" in problem for problem in problems)

    def test_manifest_records_carry_bookkeeping(self, store):
        write_all(store)
        for record in store.manifest_records():
            assert set(record) >= {
                "shard_id", "index", "arm", "cls", "start", "rows",
                "sha256", "wall_seconds", "completed_utc",
            }


class TestReaders:
    def test_export_concatenates_in_plan_order(self, store):
        plan = write_all(store)
        columns = store.export_columns(plan)
        assert len(columns["met"]) == sum(shard.count for shard in plan)
        assert columns["position"].tolist() == [0, 1, 2, 3, 4, 5]

    def test_export_refuses_partial_campaigns(self, store):
        plan = write_all(store)
        os.unlink(store.shard_path(plan[-1].shard_id))
        with pytest.raises(CampaignError, match="incomplete"):
            store.export_columns(plan)

    def test_aggregate_streams_per_cell(self, store):
        plan = write_all(store)
        cells = store.aggregate(plan)
        assert set(cells) == {(0, 0)}
        row = cells[(0, 0)].as_row()
        assert row["count"] == 6
        assert row["success_rate"] == 1.0
        assert row["meeting_time_mean"] == pytest.approx(2.5)
        assert row["budget_exhausted"] == 0

    def test_aggregate_counts_budget_exhaustion(self, store):
        spec = store.load_spec()
        plan = plan_shards(spec)
        for shard in plan:
            outcomes = [fake_outcome(met=False) for _ in range(shard.count)]
            store.write_shard(shard, fake_columns(shard, outcomes))
        row = store.aggregate(plan)[(0, 0)].as_row()
        assert row["successes"] == 0
        assert row["budget_exhausted"] == 6
        assert row["meeting_time_mean"] is None


class TestLastRecordWins:
    """Duplicate manifest lines (concurrent appenders racing a lease takeover)
    must count each shard exactly once everywhere."""

    def duplicate_first_record(self, store):
        record = dict(store.manifest_records()[0])
        record["wall_seconds"] = 99.0  # only bookkeeping differs; data is identical
        with open(store.manifest_path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def test_completed_keeps_the_last_record(self, store):
        plan = write_all(store)
        duplicate = self.duplicate_first_record(store)
        done = store.completed()
        assert len(done) == len(plan)
        assert done[duplicate["shard_id"]]["wall_seconds"] == 99.0

    def test_aggregate_counts_duplicated_shards_once(self, store):
        plan = write_all(store)
        self.duplicate_first_record(store)
        row = store.aggregate(plan)[(0, 0)].as_row()
        assert row["count"] == 6  # not 9

    def test_status_rows_totals_do_not_double_count(self, store):
        from repro.campaign import status_rows

        write_all(store)
        self.duplicate_first_record(store)
        status = status_rows(store.directory)
        assert status["rows_stored"] == 6
        assert status["shards_complete"] == 2

    def test_export_is_unchanged_by_duplicates(self, store):
        plan = write_all(store)
        before = store.export_columns(plan)
        self.duplicate_first_record(store)
        after = store.export_columns(plan)
        for name in before:
            assert before[name].tobytes() == after[name].tobytes()


class TestQuarantineLedger:
    def test_quarantine_roundtrip(self, store):
        plan = plan_shards(store.load_spec())
        entry = store.quarantine(plan[0], error="Traceback: boom", attempts=3)
        stored = store.failed_shards()[plan[0].shard_id]
        assert stored == entry
        assert stored["attempts"] == 3
        assert "boom" in stored["error"]

    def test_clear_failed_is_idempotent(self, store):
        plan = plan_shards(store.load_spec())
        store.quarantine(plan[0], error="x", attempts=1)
        store.clear_failed(plan[0].shard_id)
        store.clear_failed(plan[0].shard_id)
        assert store.failed_shards() == {}

    def test_unreadable_ledger_entry_surfaces_as_stub(self, store):
        plan = plan_shards(store.load_spec())
        store.quarantine(plan[0], error="x", attempts=1)
        with open(store.failed_path(plan[0].shard_id), "w") as handle:
            handle.write("{not json")
        entry = store.failed_shards()[plan[0].shard_id]
        assert entry["error"] == "unreadable ledger entry"


class TestDoctor:
    def test_healthy_store_is_clean_and_complete(self, store):
        write_all(store)
        report = store.doctor()
        assert report["clean"] and report["complete"]
        assert report["healthy"] == report["shards_planned"]
        assert report["incomplete"] == []

    def test_partial_store_is_clean_but_incomplete(self, store):
        plan = plan_shards(store.load_spec())
        store.write_shard(plan[0], fake_columns(plan[0]))
        report = store.doctor()
        assert report["clean"]
        assert not report["complete"]
        assert report["incomplete"] == [shard.shard_id for shard in plan[1:]]

    def test_corrupt_shard_detected_and_repaired(self, store):
        plan = write_all(store)
        with open(store.shard_path(plan[0].shard_id), "r+b") as handle:
            handle.write(b"corrupt!")
        report = store.doctor()
        assert report["corrupt"] == [plan[0].shard_id]
        assert not report["clean"]

        repaired = store.doctor(repair=True)
        assert f"deleted shard {plan[0].shard_id}" in repaired["repaired"]
        assert repaired["clean"]
        # Resume now recomputes exactly the deleted shard.
        assert store.doctor()["incomplete"] == [plan[0].shard_id]

    def test_orphaned_data_file_detected_and_repaired(self, store):
        write_all(store)
        orphan = store.shard_path("deadbeefdeadbeef")
        with open(orphan, "wb") as handle:
            handle.write(b"not even npz")
        report = store.doctor()
        assert report["orphaned"] == ["deadbeefdeadbeef"]
        assert not report["clean"]
        store.doctor(repair=True)
        assert not os.path.exists(orphan)

    def test_stale_lease_detected_and_repaired(self, store):
        from repro.campaign.leases import LeaseManager

        write_all(store)
        leases = LeaseManager(store.lease_dir, owner="dead-runner")
        leases.acquire("some-shard")
        past = time.time() - 3600.0
        os.utime(leases.lease_path("some-shard"), (past, past))
        report = store.doctor()
        assert report["stale_leases"] == ["some-shard"]
        assert not report["clean"]
        repaired = store.doctor(repair=True)
        assert "removed stale lease some-shard" in repaired["repaired"]
        assert store.doctor()["stale_leases"] == []

    def test_fresh_lease_reported_active_and_never_repaired(self, store):
        from repro.campaign.leases import LeaseManager

        write_all(store)
        leases = LeaseManager(store.lease_dir, owner="live-runner")
        leases.acquire("some-shard")
        report = store.doctor(repair=True)
        assert report["active_leases"] == ["some-shard"]
        assert os.path.exists(leases.lease_path("some-shard"))
        assert report["clean"]

    def test_quarantined_shard_flags_and_repair_clears(self, store):
        plan = write_all(store)
        store.quarantine(plan[0], error="poison", attempts=3)
        report = store.doctor()
        assert report["quarantined"] == [plan[0].shard_id]
        assert not report["clean"]
        repaired = store.doctor(repair=True)
        assert f"cleared quarantine {plan[0].shard_id}" in repaired["repaired"]
        assert store.failed_shards() == {}

    def test_wrong_row_count_detected(self, store):
        plan = write_all(store)
        # Rewrite the manifest claiming the wrong row count for shard 0 while
        # keeping the checksum honest (outside edit of the manifest).
        records = store.manifest_records()
        records[0]["rows"] = 99
        with open(store.manifest_path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        report = store.doctor()
        assert report["wrong_rows"] == [plan[0].shard_id]
        assert not report["clean"]


class TestStatusLeaseSurfacing:
    """`status_rows` carries lease health and the quarantined shard list, so
    `campaign status` and the service status endpoint show a wedged or
    degraded campaign without a separate doctor run."""

    def test_quiet_store_reports_zero_lease_activity(self, store):
        from repro.campaign import status_rows

        write_all(store)
        status = status_rows(store.directory)
        assert status["leases_active"] == 0
        assert status["leases_stale"] == 0
        assert status["quarantined"] == []

    def test_active_stale_and_quarantined_all_surface(self, store):
        import os
        import time

        from repro.campaign import status_rows
        from repro.campaign.leases import LeaseManager

        plan = plan_shards(store.load_spec())
        store.quarantine(plan[1], error="poison", attempts=3)
        leases = LeaseManager(store.lease_dir, stale_after=60.0)
        assert leases.acquire(plan[0].shard_id)
        stale = LeaseManager(store.lease_dir, stale_after=60.0)
        assert stale.acquire("ancient-shard")
        lease_path = os.path.join(store.lease_dir, "ancient-shard.lease")
        old = time.time() - 3600
        os.utime(lease_path, (old, old))

        status = status_rows(store.directory, lease_timeout=60.0)
        assert status["leases_active"] == 1
        assert status["leases_stale"] == 1
        assert status["quarantined"] == [plan[1].shard_id]
        assert status["shards_quarantined"] == 1
