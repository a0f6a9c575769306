"""Campaign execution: plan, skip, schedule, crash-safe checkpointing, resume.

:func:`run_campaign` is the one entry point: given a directory (and, on first
run, a spec) it plans the shards, skips every shard the manifest already
records (and every quarantined one), and hands the rest to the one shard
scheduler, :class:`~repro.campaign.executor.ShardExecutor`.  ``workers``
picks its slot kind — ``1`` computes each shard in this process through a
:class:`~repro.parallel.runner.BatchRunner` (vectorizable shards one
batch-engine call each), ``>= 2`` runs spawned worker processes that survive
death and hangs — while lease claiming, retry with backoff, poison-shard
quarantine and commits run the same for both.  Spawned slots are the only
process pool: exact-timebase campaigns, too, parallelize by whole shards.
They come from a :class:`~repro.campaign.executor.SlotPool`: the service
daemon's, kept warm across its jobs, or a private one per call.
Each finished shard is committed atomically
(:meth:`~repro.campaign.store.CampaignStore.write_shard`) before the next
result is taken, so a crash loses at most the shards in flight and
``resume`` recomputes **zero** finished shards; a commit that fails
propagates, for every worker count.  By the spawned-seeding contract of
:mod:`repro.campaign.shards` the resumed store is bit-identical to an
uninterrupted run's — for every worker count, retry history and interleaving
of concurrent runners (the lease protocol of :mod:`repro.campaign.leases`
keeps those from duplicating work).
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.executor import ShardExecutor, SlotPool
from repro.campaign.leases import DEFAULT_STALE_AFTER, LeaseManager
from repro.campaign.shards import Shard, event_routed_radii, plan_shards
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.store import RECORD_FORMAT, CampaignStore
from repro.contracts import core as _contracts
from repro.contracts.invariants import CAMPAIGN_RESUME_NO_RECOMPUTE
from repro.obs import trace as _trace
from repro.util.logging import get_logger

logger = get_logger("campaign.orchestrator")

__all__ = ["CampaignRunStats", "run_campaign", "status_rows"]


@dataclass
class CampaignRunStats:
    """What one :func:`run_campaign` call did (the resume counters live here).

    ``shards_skipped`` counts finished shards the manifest let the call skip.
    ``rows_recomputed`` counts *takeover recommits*: rows committed for
    shards the manifest already recorded complete at commit time, because a
    peer finished the shard after this call's lease claim (typically by
    taking over the lease once this call stalled past ``lease_timeout``).
    The store's last-record-wins rule makes such a recommit harmless: the
    shard is deterministic, so its bytes are the same.  A crash-free resume
    has no peer, so the crash/resume suite pins it at 0.  The
    ``campaign.resume_no_recompute`` contract checks ``executed_shard_ids``
    instead: no shard recorded complete when the call began is executed.
    """

    spec_digest: str
    workers: int = 1
    shards_planned: int = 0
    shards_skipped: int = 0
    shards_executed: int = 0
    rows_computed: int = 0
    rows_recomputed: int = 0
    # Fault-tolerance counters: total dispatch attempts (>= shards_executed),
    # dispatches that were retries, poison shards moved to the failed/ ledger,
    # shards a concurrent runner finished first, dead/hung workers replaced,
    # and the lease protocol's takeover/conflict tallies.
    shard_attempts: int = 0
    shards_retried: int = 0
    shards_quarantined: int = 0
    shards_completed_elsewhere: int = 0
    worker_restarts: int = 0
    # Worker processes this call spawned (replacements included); 0 when a
    # warm pool lent it every slot.
    slots_spawned: int = 0
    lease_takeovers: int = 0
    lease_conflicts: int = 0
    interrupted: bool = False
    wall_seconds: float = 0.0
    executed_shard_ids: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Every planned shard is accounted for by the end of this call.

        Shards a concurrent runner committed while we ran
        (``shards_completed_elsewhere``) count: they are finished work, just
        not ours.
        """
        accounted = (
            self.shards_skipped + self.shards_executed + self.shards_completed_elsewhere
        )
        return accounted == self.shards_planned

    def as_dict(self) -> Dict[str, Any]:
        return {
            "spec_digest": self.spec_digest,
            "workers": self.workers,
            "shards_planned": self.shards_planned,
            "shards_skipped": self.shards_skipped,
            "shards_executed": self.shards_executed,
            "rows_computed": self.rows_computed,
            "rows_recomputed": self.rows_recomputed,
            "shard_attempts": self.shard_attempts,
            "shards_retried": self.shards_retried,
            "shards_quarantined": self.shards_quarantined,
            "shards_completed_elsewhere": self.shards_completed_elsewhere,
            "worker_restarts": self.worker_restarts,
            "slots_spawned": self.slots_spawned,
            "lease_takeovers": self.lease_takeovers,
            "lease_conflicts": self.lease_conflicts,
            "interrupted": self.interrupted,
            "complete": self.complete,
            "wall_seconds": round(self.wall_seconds, 3),
        }


class _SignalGuard:
    """Graceful SIGINT/SIGTERM for the shard loop.

    The handler only raises a flag; the loop finishes (or, with workers,
    abandons) the shard in flight, releases every held lease and returns with
    ``stats.interrupted = True`` — never dying mid-write.  Handlers install
    only in the main thread (Python's restriction) and the previous handlers
    are always restored.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.stop = False
        self._previous: Dict[int, Any] = {}

    def _handle(self, signum, frame) -> None:
        self.stop = True

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def _require_positive(name: str, value, *, optional: bool = True) -> None:
    """A clear :class:`CampaignError` for non-positive execution knobs."""
    if value is None:
        if optional:
            return
        raise CampaignError(f"{name} must be a positive number, got None")
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
        raise CampaignError(f"{name} must be a positive number, got {value!r}")


def _refuse_unrecorded_freezes(
    store: CampaignStore, spec: CampaignSpec, plan: List[Shard], done: Dict[str, Any]
) -> None:
    """Refuse to finish a directory whose stored radii shards lost their freezes.

    Before record format 2, a per-agent-radii shard run on the event engine
    (exact timebase, or an explicit ``engine`` option) stored ``frozen = -1``
    and NaN freeze columns even when an agent froze.  Finishing such a
    directory would mix those shards with shards that record the freeze, so
    its columns would differ from an uninterrupted run's.
    """
    stale_arms = {
        shard.arm_index
        for shard in plan
        if shard.shard_id in done and done[shard.shard_id].get("format", 1) < RECORD_FORMAT
    }
    for arm_index in sorted(stale_arms):
        if event_routed_radii(spec.arm_options(arm_index)):
            raise CampaignError(
                f"{store.directory} holds shards of arm "
                f"{spec.arms[arm_index].label!r} stored before per-agent-radii "
                "runs on the event engine recorded their freeze (frozen = -1 there); "
                "run the campaign in a fresh directory"
            )


def run_campaign(
    directory: str,
    spec: Optional[CampaignSpec] = None,
    *,
    max_shards: Optional[int] = None,
    shard_hook: Optional[Callable[[Shard], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    shard_timeout: Optional[float] = None,
    max_attempts: int = 3,
    retry_backoff: float = 0.25,
    lease_timeout: float = DEFAULT_STALE_AFTER,
    owner: Optional[str] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    pool: Optional[SlotPool] = None,
) -> CampaignRunStats:
    """Run (or resume) a campaign in ``directory`` until complete or interrupted.

    Parameters
    ----------
    directory:
        The campaign directory.  Created and initialized when ``spec`` is
        given and the directory is fresh; an existing directory must hold an
        equal spec (same digest) or the call refuses.
    spec:
        The campaign to run.  ``None`` loads the spec from the directory —
        that is a *resume*, and requires the directory to exist.
    max_shards:
        Execute at most this many shards, then stop with
        ``stats.interrupted = True`` — the controlled form of "kill it
        partway" (CI interrupts campaigns this way; a real crash just stops
        harder).  ``None`` runs to completion.
    shard_hook:
        Called with each :class:`Shard` immediately before it executes (on
        every dispatch, including retries).  Exists for fault injection — a
        hook raising :class:`~repro.campaign.executor.FaultInjection` makes
        that one dispatch fail, die or hang *inside the slot* (die and hang
        need ``workers >= 2``); any other
        exception simulates a crash between checkpoints and propagates
        (everything already written stays valid) — and for external progress
        tracking.
    workers:
        The slot kind of the one shard scheduler
        (:class:`~repro.campaign.executor.ShardExecutor`).  ``1`` (default)
        computes and commits shards one at a time in this process.  ``>= 2``
        dispatches whole shards to that many spawned worker processes,
        borrowed from ``pool``: worker death and hangs are survived, the
        slot is replaced, and the lost shard re-runs.  Leases, retries,
        quarantine and commits behave the same for every value, and so do
        the stored bytes.
    shard_timeout:
        Seconds a single shard attempt may run before its worker is killed
        and the shard re-queued (counts as a failed attempt).  ``None``
        disables the deadline.  Requires ``workers >= 2`` to be enforceable —
        the in-process slot cannot kill itself — and is ignored there.
    max_attempts:
        Total attempts a shard gets (failures, lost workers and timeouts all
        count) before it is *quarantined* to the store's ``failed/`` ledger
        with its traceback, and the campaign continues without it.
    retry_backoff:
        Base of the exponential retry backoff (seconds); attempt ``k``
        waits ``retry_backoff * 2**(k-1)`` plus up to 50% jitter.
    lease_timeout:
        Seconds without a heartbeat before a shard lease counts as stale and
        may be taken over.  Concurrent runners (several processes or hosts
        pointed at one store) partition the campaign via these leases; keep
        this above the worst-case shard wall time.
    owner:
        Lease owner id (defaults to host:pid:nonce); set it only to make
        test assertions or logs more readable.
    should_stop:
        External stop request, polled at the same points as the signal
        guard's flag.  The service daemon's graceful drain runs campaigns in
        scheduler threads (where signal handlers cannot install) and flips
        this instead: the shard in flight finishes or is abandoned, leases
        release, and the call returns with ``stats.interrupted = True`` —
        identical semantics to a SIGTERM of a foreground run.
    pool:
        Where ``workers >= 2`` borrows its spawned slots.  The service
        scheduler passes the one pool it keeps for the daemon's lifetime, so
        later jobs find their workers already running.  ``None`` (every
        other caller) gives the call a private pool, closed before it
        returns.  Which process computes a shard never changes its bytes.
    """
    _require_positive("max_shards", max_shards)
    _require_positive("workers", workers, optional=False)
    _require_positive("shard_timeout", shard_timeout)
    _require_positive("max_attempts", max_attempts, optional=False)
    _require_positive("lease_timeout", lease_timeout, optional=False)
    if retry_backoff < 0:
        raise CampaignError(f"retry_backoff must be >= 0, got {retry_backoff!r}")
    workers = int(workers)
    max_attempts = int(max_attempts)

    store = CampaignStore(directory)
    if spec is None:
        spec = store.load_spec()
    else:
        spec = store.initialize(spec)
    spec.validate_algorithms()
    emit = progress if progress is not None else (lambda line: logger.debug("%s", line))

    plan = plan_shards(spec)
    done = store.completed()
    quarantined = store.failed_shards()
    stats = CampaignRunStats(
        spec_digest=spec.digest(),
        workers=workers,
        shards_planned=len(plan),
    )
    pending = []
    for shard in plan:
        if shard.shard_id in done:
            stats.shards_skipped += 1
        elif shard.shard_id in quarantined:
            stats.shards_quarantined += 1
        else:
            pending.append(shard)
    if pending:
        _refuse_unrecorded_freezes(store, spec, plan, done)
    emit(
        f"campaign {spec.name!r} [{stats.spec_digest}]: {len(plan)} shards planned, "
        f"{stats.shards_skipped} already complete, {len(pending)} to run "
        f"(workers: {workers})"
    )
    if stats.shards_quarantined:
        emit(
            f"skipping {stats.shards_quarantined} quarantined shard(s); "
            "`repro campaign doctor --repair` clears the ledger to retry them"
        )

    leases = LeaseManager(store.lease_dir, owner=owner, stale_after=lease_timeout)
    slot_pool = pool if pool is not None else SlotPool()
    start = time.perf_counter()
    with _SignalGuard() as guard:
        if should_stop is None:
            stop_requested = lambda: guard.stop  # noqa: E731
        else:
            stop_requested = lambda: guard.stop or bool(should_stop())  # noqa: E731
        try:
            ShardExecutor(
                store=store,
                spec=spec,
                leases=leases,
                stats=stats,
                emit=emit,
                workers=workers,
                pool=slot_pool,
                plan_size=len(plan),
                shard_timeout=shard_timeout,
                max_attempts=max_attempts,
                retry_backoff=retry_backoff,
                max_shards=max_shards,
                shard_hook=shard_hook,
                should_stop=stop_requested,
            ).run(pending)
        finally:
            if pool is None:
                slot_pool.close()
            stats.wall_seconds = time.perf_counter() - start
        if stop_requested():
            stats.interrupted = True
            emit("interrupted: in-flight work abandoned cleanly, leases released")
    if stats.complete:
        emit(
            f"campaign complete: {stats.rows_computed} rows computed this call, "
            f"{stats.rows_recomputed} recomputed, {stats.wall_seconds:.2f}s"
        )
    elif stats.shards_quarantined:
        emit(
            f"campaign degraded: {stats.shards_quarantined} shard(s) quarantined "
            f"(see {store.FAILED_DIR}/), the rest of the store is valid"
        )
    if _contracts.enabled():
        rerun = sorted(set(stats.executed_shard_ids).intersection(done))
        CAMPAIGN_RESUME_NO_RECOMPUTE.check(
            not rerun,
            f"shards recorded complete before the call were executed: {rerun}",
        )
    if _trace.active():
        # Fold every worker segment (plus this process's buffer) into the one
        # Perfetto-loadable file.  A worker flushes before it reports a shard,
        # so this run's shards are all in; segments of workers still alive
        # (a daemon's warm slots) stay on disk for later merges.
        merged = _trace.merge()
        if merged is not None:
            emit(f"trace written: {merged}")
    return stats


def status_rows(
    directory: str, *, lease_timeout: float = DEFAULT_STALE_AFTER
) -> Dict[str, Any]:
    """Machine-readable status of a campaign directory (no execution).

    Streams the store once: shard completion counts plus the per-(arm,
    class) aggregates, labelled with the spec's arm labels and class names.
    Lease state is surfaced here too — active (heartbeating) vs stale claim
    counts and the quarantined shard ids — so ``repro campaign status`` and
    the service status endpoint show a wedged or degraded campaign without a
    separate ``doctor`` run.
    """
    store = CampaignStore(directory)
    spec = store.load_spec()
    plan = plan_shards(spec)
    done = store.completed()
    cells = store.aggregate(plan)
    rows = []
    for (arm_index, class_index), aggregate in sorted(cells.items()):
        row = {
            "arm": spec.arms[arm_index].label,
            "class": spec.classes[class_index],
        }
        row.update(aggregate.as_row())
        rows.append(row)
    failed = store.failed_shards()
    leases = LeaseManager(store.lease_dir, stale_after=lease_timeout)
    return {
        "name": spec.name,
        "digest": spec.digest(),
        "shards_total": len(plan),
        "shards_complete": sum(1 for shard in plan if shard.shard_id in done),
        "shards_quarantined": sum(1 for shard in plan if shard.shard_id in failed),
        "quarantined": sorted(
            shard.shard_id for shard in plan if shard.shard_id in failed
        ),
        "leases_active": len(leases.active_leases()),
        "leases_stale": len(leases.stale_leases()),
        "rows_total": spec.total_instances,
        # `done` is keyed by shard id (last record wins), so duplicate
        # manifest lines from concurrent writers never double-count rows.
        "rows_stored": sum(int(record.get("rows", 0)) for record in done.values()),
        "cells": rows,
    }
