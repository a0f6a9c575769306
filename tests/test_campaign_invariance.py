"""Property: shard size, workers, slot reuse and interruption leave the store unchanged.

Shards are position-seeded and the export concatenates them in plan order,
so the stored columns cannot depend on how a campaign was cut or run.  Each
draw picks a timebase, a shard size, the worker count of a first run, whether
spawned slots come fresh or from a warm pool whose workers already served
earlier jobs with other specs, and, optionally, a ``max_shards``
interruption followed by a resume under its own worker count; the exported
columns must be byte-identical to one uninterrupted ``workers=1`` run of
that timebase with a shard size outside the drawn set, and no call may
recompute a row.  The exact timebase routes every shard through the per-task
event engine, so both shard bodies — one batch-engine call, or the event
engine task by task — are covered across in-process and spawned slots (the
only process pool).  Every fresh ``workers=2`` leg spawns worker processes,
so the example budget is pinned small here (and the property stays out of
the deep profile's CI leg).
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignArm,
    CampaignSpec,
    CampaignStore,
    plan_shards,
    run_campaign,
)
from repro.campaign.executor import SlotPool

INSTANCES_PER_CELL = 8

#: Simulator options per timebase; the event engine gets a smaller budget.
SIMULATOR = {
    "float": {"max_time": 1e6, "max_segments": 30_000},
    "exact": {"max_time": 1e6, "max_segments": 10_000, "timebase": "exact"},
}


def make_spec(shard_size, timebase="float", algorithm="almost-universal-compact"):
    return CampaignSpec(
        name="knob-invariance",
        arms=(CampaignArm(algorithm=algorithm),),
        classes=("type-1", "type-2"),
        instances_per_cell=INSTANCES_PER_CELL,
        seed=29,
        simulator=SIMULATOR[timebase],
        shard_size=shard_size,
    )


@pytest.fixture(scope="module")
def reference_columns(tmp_path_factory):
    references = {}
    for timebase in SIMULATOR:
        directory = tmp_path_factory.mktemp(f"knob-reference-{timebase}") / "camp"
        stats = run_campaign(str(directory), make_spec(4, timebase))
        assert stats.complete
        references[timebase] = CampaignStore(str(directory)).export_columns()
    return references


@pytest.fixture(scope="module")
def warm_pool(tmp_path_factory):
    """Spawned slots that already served a job with another algorithm."""
    pool = SlotPool()
    directory = tmp_path_factory.mktemp("knob-warm-up") / "camp"
    stats = run_campaign(str(directory), make_spec(4, "exact", "cgkk"), workers=2, pool=pool)
    assert stats.complete
    yield pool
    pool.close()


@st.composite
def _runs(draw):
    timebase = draw(st.sampled_from(sorted(SIMULATOR)))
    shard_size = draw(st.sampled_from((3, 5, 8, 16)))
    planned = len(plan_shards(make_spec(shard_size)))
    max_shards = draw(st.none() | st.integers(1, planned - 1))
    workers = draw(st.sampled_from((1, 2)))
    resume_workers = None if max_shards is None else draw(st.sampled_from((1, 2)))
    warm = draw(st.booleans())
    return timebase, shard_size, workers, max_shards, resume_workers, warm


@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(drawn=_runs())
def test_store_bytes_ignore_shard_size_workers_and_interruption(
    reference_columns, warm_pool, drawn
):
    timebase, shard_size, workers, max_shards, resume_workers, warm = drawn
    pool = warm_pool if warm else None
    with tempfile.TemporaryDirectory() as root:
        directory = f"{root}/camp"
        first = run_campaign(
            directory,
            make_spec(shard_size, timebase),
            workers=workers,
            max_shards=max_shards,
            pool=pool,
        )
        assert first.rows_recomputed == 0
        if max_shards is not None:
            assert first.interrupted and not first.complete
            resumed = run_campaign(directory, workers=resume_workers, pool=pool)
            assert resumed.complete
            assert resumed.shards_skipped == first.shards_executed
            assert resumed.rows_recomputed == 0
        else:
            assert first.complete
        columns = CampaignStore(directory).export_columns()
    reference = reference_columns[timebase]
    assert set(columns) == set(reference)
    for name, column in reference.items():
        assert columns[name].tobytes() == column.tobytes(), name
