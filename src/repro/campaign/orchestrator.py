"""Campaign execution: shard loop, crash-safe checkpointing, resume.

:func:`run_campaign` is the one entry point: given a directory (and, on first
run, a spec) it plans the shards, skips every shard the manifest already
records (and every quarantined one), claims each remaining shard's lease, and
executes — sequentially through a persistent
:class:`~repro.parallel.runner.BatchRunner` (``workers=1``, vectorizable
shards one inline batch-engine call each), or with ``workers >= 2`` over the
fault-tolerant process pool of
:class:`~repro.campaign.executor.ShardExecutor` (retry with backoff,
per-shard timeouts, worker-death recovery, poison-shard quarantine).  Each
finished shard is committed atomically
(:meth:`~repro.campaign.store.CampaignStore.write_shard`) before the next one
starts, so a crash loses at most the shards in flight and ``resume``
recomputes **zero** finished shards; by the spawned-seeding contract of
:mod:`repro.campaign.shards` the resumed store is bit-identical to an
uninterrupted run's — for every worker count, retry history and interleaving
of concurrent runners (the lease protocol of :mod:`repro.campaign.leases`
keeps those from duplicating work).

Every shard runs inside :func:`repro.campaign.shards.shard_cache_scope`,
inline and in the pool's workers alike: agent A's compiler is shared by every
shard, and B-side compilers enter the cross-call compiler cache only when a
later arm of the same algorithm will ask for them again (and they fit the
cache); otherwise they die with their shard.
"""

from __future__ import annotations

import collections
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.executor import FaultInjection, ShardExecutor, retry_delay
from repro.campaign.leases import DEFAULT_STALE_AFTER, LeaseManager
from repro.campaign.shards import (
    Shard,
    plan_shards,
    shard_cache_scope,
    shard_instances,
    shard_tasks,
)
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.store import CampaignStore, records_to_columns
from repro.contracts import core as _contracts
from repro.contracts.invariants import CAMPAIGN_RESUME_NO_RECOMPUTE
from repro.obs import core as _obs
from repro.obs import trace as _trace
from repro.util.logging import get_logger

logger = get_logger("campaign.orchestrator")

__all__ = ["CampaignRunStats", "run_campaign", "status_rows"]


@dataclass
class CampaignRunStats:
    """What one :func:`run_campaign` call did (the resume counters live here).

    ``shards_skipped`` counts finished shards the manifest let the call skip;
    ``rows_recomputed`` counts rows executed for shards that were *already*
    recorded complete — by construction always 0, and pinned at 0 by the
    crash/resume suite: it is the observable form of the "resume recomputes
    nothing" contract.
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


def run_campaign(
    directory: str,
    spec: Optional[CampaignSpec] = None,
    *,
    runner=None,
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
    runner:
        A :class:`~repro.parallel.runner.BatchRunner` to execute shards
        through.  ``None`` creates one for the call (and closes it after);
        pass a long-lived runner to share its persistent worker pool across
        campaigns.
    max_shards:
        Execute at most this many shards, then stop with
        ``stats.interrupted = True`` — the controlled form of "kill it
        partway" (CI interrupts campaigns this way; a real crash just stops
        harder).  ``None`` runs to completion.
    shard_hook:
        Called with each :class:`Shard` immediately before it executes (on
        every dispatch, including retries).  Exists for fault injection — a
        hook raising :class:`~repro.campaign.executor.FaultInjection` makes
        that one dispatch fail, die or hang *inside the worker*; any other
        exception simulates a crash between checkpoints and propagates
        (everything already written stays valid) — and for external progress
        tracking.
    workers:
        ``1`` (default) runs shards sequentially in-process, exactly the
        historical behavior.  ``>= 2`` dispatches whole shards over a
        fault-tolerant pool of spawned worker processes
        (:class:`~repro.campaign.executor.ShardExecutor`): worker death and
        hangs are survived, the pool is rebuilt, and the lost shard re-runs.
        Stored bytes are identical for every value.
    shard_timeout:
        Seconds a single shard attempt may run before its worker is killed
        and the shard re-queued (counts as a failed attempt).  ``None``
        disables the deadline.  Requires ``workers >= 2`` to be enforceable —
        the sequential path cannot kill itself — and is ignored inline.
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
    start = time.perf_counter()
    with _SignalGuard() as guard:
        if should_stop is None:
            stop_requested = lambda: guard.stop  # noqa: E731
        else:
            stop_requested = lambda: guard.stop or bool(should_stop())  # noqa: E731
        try:
            if workers > 1:
                executor = ShardExecutor(
                    store=store,
                    spec=spec,
                    leases=leases,
                    stats=stats,
                    emit=emit,
                    workers=workers,
                    plan_size=len(plan),
                    shard_timeout=shard_timeout,
                    max_attempts=max_attempts,
                    retry_backoff=retry_backoff,
                    max_shards=max_shards,
                    shard_hook=shard_hook,
                    should_stop=stop_requested,
                )
                executor.run(pending)
            else:
                _run_inline(
                    store=store,
                    spec=spec,
                    leases=leases,
                    stats=stats,
                    emit=emit,
                    plan_size=len(plan),
                    pending=pending,
                    runner=runner,
                    max_shards=max_shards,
                    max_attempts=max_attempts,
                    retry_backoff=retry_backoff,
                    shard_hook=shard_hook,
                    stop_requested=stop_requested,
                )
        finally:
            leases.release_all()
            stats.lease_takeovers = leases.takeovers
            stats.lease_conflicts = leases.conflicts
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
        CAMPAIGN_RESUME_NO_RECOMPUTE.check(
            stats.rows_recomputed == 0,
            f"{stats.rows_recomputed} rows recomputed for already-complete shards",
        )
    if _trace.active():
        # The pool is down by now, so worker segments are final; fold them
        # (plus this process's buffer) into the one Perfetto-loadable file.
        merged = _trace.merge()
        if merged is not None:
            emit(f"trace written: {merged}")
    return stats


def _run_inline(
    *,
    store: CampaignStore,
    spec: CampaignSpec,
    leases: LeaseManager,
    stats: CampaignRunStats,
    emit: Callable[[str], None],
    plan_size: int,
    pending: Sequence[Shard],
    runner,
    max_shards: Optional[int],
    max_attempts: int,
    retry_backoff: float,
    shard_hook: Optional[Callable[[Shard], None]],
    stop_requested: Callable[[], bool],
) -> None:
    """The sequential (``workers=1``) shard loop, with the same failure model.

    Retry/backoff, quarantine and lease claiming match the pooled executor;
    only ``shard_timeout`` and the ``"kill"``/``"hang"`` fault kinds need a
    worker process and are out of scope here.  Shards whose lease a
    concurrent runner holds are parked and re-checked until the peer commits
    them (or its lease goes stale and is taken over).
    """
    own_runner = runner is None
    if own_runner:
        from repro.parallel.runner import BatchRunner

        runner = BatchRunner()
    ready = collections.deque((shard, 1, 0.0) for shard in pending)
    foreign: Dict[str, Shard] = {}
    try:
        while ready or foreign:
            if stop_requested():
                return
            progressed = False
            for _ in range(len(ready)):
                if stop_requested():
                    return
                if max_shards is not None and stats.shards_executed >= max_shards:
                    stats.interrupted = True
                    emit(f"stopping after {stats.shards_executed} shards (--max-shards)")
                    return
                shard, attempt, not_before = ready.popleft()
                if time.monotonic() < not_before:
                    ready.append((shard, attempt, not_before))
                    continue
                if _completed_elsewhere(store, spec, shard, stats, emit):
                    progressed = True
                    continue
                with _obs.span("campaign.lease"):
                    acquired = leases.acquire(shard.shard_id)
                if not acquired:
                    foreign[shard.shard_id] = shard
                    continue
                if _completed_elsewhere(store, spec, shard, stats, emit):
                    leases.release(shard.shard_id)
                    progressed = True
                    continue
                progressed = True
                fault = None
                if shard_hook is not None:
                    try:
                        shard_hook(shard)
                    except FaultInjection as injected:
                        if injected.kind != "fail":
                            leases.release(shard.shard_id)
                            raise CampaignError(
                                f"fault kind {injected.kind!r} needs the worker pool; "
                                "run with workers >= 2"
                            )
                        fault = injected.kind
                stats.shard_attempts += 1
                if attempt > 1:
                    stats.shards_retried += 1
                shard_start = time.perf_counter()
                try:
                    if fault is not None:
                        raise RuntimeError("injected shard fault")
                    # The umbrella span sits *outside* the collector window so
                    # only leaf phases land in the manifest's phases dict.
                    with _obs.span("campaign.shard", shard=shard.shard_id):
                        with _obs.collect() as phases:
                            with _obs.span("campaign.sample"):
                                instances = shard_instances(spec, shard)
                                tasks = shard_tasks(spec, shard, instances)
                            with shard_cache_scope(spec):
                                records = runner.run(tasks)
                            with _obs.span("campaign.collate"):
                                columns = records_to_columns(shard, records)
                        # Matches the worker loop: wall excludes the commit.
                        wall = time.perf_counter() - shard_start
                        with _obs.span("campaign.store_write"):
                            store.write_shard(
                                shard, columns, wall_seconds=wall, phases=phases
                            )
                except Exception as error:
                    if attempt >= max_attempts:
                        import traceback as traceback_module

                        store.quarantine(
                            shard,
                            error=traceback_module.format_exc(),
                            attempts=attempt,
                        )
                        leases.release(shard.shard_id)
                        stats.shards_quarantined += 1
                        emit(
                            f"  {shard.describe(spec)}: QUARANTINED after {attempt} "
                            f"attempts ({error!r}; see "
                            f"{store.FAILED_DIR}/{shard.shard_id}.json)"
                        )
                    else:
                        delay = retry_delay(attempt, retry_backoff)
                        # Keep the lease across the backoff so concurrent
                        # runners don't pile onto a failing shard.
                        ready.append((shard, attempt + 1, time.monotonic() + delay))
                        emit(
                            f"  {shard.describe(spec)}: attempt {attempt} failed "
                            f"({error!r}), retrying in {delay:.2f}s"
                        )
                    continue
                leases.release(shard.shard_id)
                stats.shards_executed += 1
                stats.rows_computed += shard.count
                stats.executed_shard_ids.append(shard.shard_id)
                retry_note = f" (attempt {attempt})" if attempt > 1 else ""
                emit(
                    f"  {shard.describe(spec)}: {shard.count} rows in "
                    f"{time.perf_counter() - shard_start:.2f}s{retry_note} "
                    f"[{stats.shards_skipped + stats.shards_executed}/{plan_size}]"
                )
            if foreign:
                done = store.completed()
                for shard_id, shard in list(foreign.items()):
                    if shard_id in done:
                        del foreign[shard_id]
                        stats.shards_completed_elsewhere += 1
                        emit(f"  {shard.describe(spec)}: completed by a concurrent runner")
                        progressed = True
                    elif leases.owner_of(shard_id) is None or shard_id in set(
                        leases.stale_leases()
                    ):
                        del foreign[shard_id]
                        ready.append((shard, 1, 0.0))
                        progressed = True
            if not progressed:
                leases.heartbeat()
                time.sleep(0.05)
    finally:
        if own_runner:
            runner.close()


def _completed_elsewhere(
    store: CampaignStore,
    spec: CampaignSpec,
    shard: Shard,
    stats: CampaignRunStats,
    emit: Callable[[str], None],
) -> bool:
    """Concurrent-runner completion check (file stat screen, then manifest)."""
    if not os.path.exists(store.shard_path(shard.shard_id)):
        return False
    if shard.shard_id in store.completed():
        stats.shards_completed_elsewhere += 1
        emit(f"  {shard.describe(spec)}: completed by a concurrent runner")
        return True
    return False


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
