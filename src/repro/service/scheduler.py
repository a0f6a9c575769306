"""The scheduler loop: leases queued jobs to the campaign orchestrator.

One :class:`Scheduler` per daemon.  It repeatedly takes eligible jobs from
the :class:`~repro.service.queue.JobQueue` (``submitted`` work and crash- or
retry-orphaned ``running`` work) and executes each as a campaign run in its
own worker thread, at most ``max_concurrent`` at a time — campaigns
themselves fan out over shards (``workers``), so job-level concurrency stays
deliberately small.  The scheduler owns one
:class:`~repro.campaign.executor.SlotPool` for its lifetime and lends it to
every run: a job borrows its spawned workers and gives them back warm, so
only the first job of a session pays the interpreter spawn, and the slots
of concurrent jobs never overlap.

The failure model mirrors the shard executor one level up: a job whose
campaign run *raises* is retried with exponential backoff
(:func:`repro.campaign.executor.retry_delay`) up to ``max_attempts`` total
dispatches, then journaled ``quarantined``; a run that merely *degrades*
(some shards quarantined in the store, the rest valid) quarantines the job
immediately with the shard ids in its error — retrying would re-hit the same
poison shards until ``doctor --repair`` clears them.  Backoff state is
in-memory only: after a daemon restart a parked retry is simply eligible
again, which errs on the side of progress.

The loop is event-driven: it blocks on one wake-up event between
scheduling passes, and four things set it — a new submission
(:meth:`Scheduler.wake`, called by ``ServiceDaemon.submit``), a job run
returning (its slot is free, or its retry deadline is set),
:meth:`Scheduler.stop`, and a timeout at the earliest future retry deadline
the last pass held a job back for.  Each loop clears the event before it
looks at any state, so a wake-up that lands during a pass ends the wait that
follows at once instead of being lost.  There is no poll interval.

Graceful drain: :meth:`Scheduler.stop` flips the stop event that every
in-flight ``run_campaign`` polls (its ``should_stop`` hook), so shards in
flight finish or abandon cleanly, leases release, and the interrupted jobs
stay ``running`` in the journal — the next daemon session resumes them with
zero recomputed shards.  Once the runs have returned, the slot pool closes.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional

from repro.campaign.executor import SlotPool, retry_delay
from repro.campaign.orchestrator import run_campaign
from repro.obs import core as _obs
from repro.service.queue import Job, JobQueue, ServiceError
from repro.util.logging import get_logger, log_event

logger = get_logger("service.scheduler")

__all__ = ["Scheduler"]


class Scheduler:
    """Dispatches queue jobs to ``run_campaign`` worker threads."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        max_concurrent: int = 1,
        max_attempts: int = 3,
        retry_backoff: float = 1.0,
        campaign_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not isinstance(max_concurrent, int) or isinstance(max_concurrent, bool) \
                or max_concurrent <= 0:
            raise ServiceError(
                f"max_concurrent must be a positive integer, got {max_concurrent!r}"
            )
        if not isinstance(max_attempts, int) or isinstance(max_attempts, bool) \
                or max_attempts <= 0:
            raise ServiceError(
                f"max_attempts must be a positive integer, got {max_attempts!r}"
            )
        if retry_backoff < 0:
            raise ServiceError(f"retry_backoff must be >= 0, got {retry_backoff!r}")
        self.queue = queue
        self.max_concurrent = max_concurrent
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        #: Extra keyword arguments forwarded to every ``run_campaign`` call
        #: (``workers``, ``shard_timeout``, ``lease_timeout``, and — in the
        #: fault-injection tests — ``shard_hook``).
        self.campaign_options = dict(campaign_options or {})
        #: The spawned slots every run borrows (``workers >= 2``); closed by
        #: :meth:`stop`.
        self.pool = SlotPool()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Thread] = {}
        #: Retry deadlines of failed jobs not yet dispatched again.
        self._not_before: Dict[str, float] = {}
        #: Jobs this scheduler finished (any terminal transition), for tests
        #: and the daemon's idle detection.
        self.jobs_completed = 0
        self.jobs_quarantined = 0
        #: Shard work done by *this* scheduler session (since construction),
        #: accumulated from each run's stats under the lock.  The daemon's
        #: ``/metrics`` reports these as the since-startup window next to the
        #: lifetime totals summed from the journal, which otherwise grow
        #: without bound across sessions and drown recent throughput.
        self.session_shard_totals: Dict[str, float] = {
            "shard_attempts": 0,
            "shards_executed": 0,
            "shards_retried": 0,
            "shards_quarantined": 0,
            "rows_computed": 0,
            "wall_seconds": 0.0,
        }

    # -- introspection -----------------------------------------------------------
    def stopping(self) -> bool:
        return self._stop.is_set()

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def idle(self) -> bool:
        """No job running and nothing eligible to dispatch."""
        with self._lock:
            if self._inflight:
                return False
        return not self.queue.eligible()

    # -- the loop ----------------------------------------------------------------
    def step(self) -> Optional[float]:
        """One scheduling pass: dispatch eligible jobs into free slots.

        Returns the earliest retry deadline (``time.monotonic``) this pass
        held a job back for, or None: the loop's timed wake-up.  A deadline
        counts only while it is ahead of the pass, and a pass stops looking
        at the concurrency cap, whose freeing wakes the loop anyway.
        """
        if self._stop.is_set():
            return None
        retry_at: Optional[float] = None
        now = time.monotonic()
        for job in self.queue.eligible():
            with self._lock:
                if len(self._inflight) >= self.max_concurrent:
                    break
                if job.digest in self._inflight:
                    continue
                not_before = self._not_before.get(job.digest, 0.0)
                if not_before > now:
                    retry_at = not_before if retry_at is None else min(retry_at, not_before)
                    continue
                self._not_before.pop(job.digest, None)
                thread = threading.Thread(
                    target=self._run_job,
                    args=(job,),
                    name=f"repro-job-{job.digest[:8]}",
                    daemon=True,
                )
                self._inflight[job.digest] = thread
            thread.start()
        return retry_at

    def wake(self) -> None:
        """Ask the loop for a scheduling pass now (a job was submitted)."""
        self._wake.set()

    def _wait(self, retry_at: Optional[float], limit: Optional[float] = None) -> None:
        """Block until a wake-up, the retry deadline ``retry_at`` or ``limit`` seconds."""
        timeout = limit
        if retry_at is not None:
            until = max(0.0, retry_at - time.monotonic())
            timeout = until if limit is None else min(limit, until)
        self._wake.wait(timeout)

    def run_forever(self) -> None:
        """The daemon's scheduler thread body: step until stopped."""
        while True:
            self._wake.clear()
            if self._stop.is_set():
                return
            self._wait(self.step())

    def run_until_idle(self, timeout: float = 60.0) -> None:
        """Drive the loop until every job settled (tests and batch mode)."""
        deadline = time.monotonic() + timeout
        while True:
            self._wake.clear()
            if self.idle() or self._stop.is_set():
                return
            left = deadline - time.monotonic()
            if left < 0:
                raise ServiceError(f"scheduler not idle after {timeout}s")
            self._wait(self.step(), left)

    def stop(self, *, timeout: Optional[float] = None) -> None:
        """Graceful drain: stop dispatching, interrupt in-flight runs, join.

        In-flight campaigns see the stop through their ``should_stop`` hook,
        abandon cleanly (leases released, every committed shard kept) and
        leave their jobs ``running`` for the next session to resume.  Then
        the slot pool stops and joins its idle workers; a run still going
        after ``timeout`` stops its own when it gives them back.
        """
        self._stop.set()
        self._wake.set()
        with self._lock:
            threads = list(self._inflight.values())
        for thread in threads:
            thread.join(timeout)
        self.pool.close()

    # -- one job -----------------------------------------------------------------
    def _run_job(self, job: Job) -> None:
        digest = job.digest
        try:
            marked = self.queue.mark_running(digest)
            attempt = marked.attempts
            log_event(
                logger, logging.INFO, "job dispatched",
                digest=digest, attempt=attempt, state="running",
                worker_pid=os.getpid(), trace_id=digest,
            )
            with _obs.span("service.dispatch", digest=digest[:16]):
                stats = run_campaign(
                    self.queue.store_path(digest),
                    job.spec(),
                    progress=self._progress(digest, attempt),
                    should_stop=self._stop.is_set,
                    pool=self.pool,
                    **self.campaign_options,
                )
            self._accumulate_session(stats)
            if stats.complete:
                self.queue.mark_complete(digest, stats=stats.as_dict())
                self.jobs_completed += 1
                log_event(
                    logger, logging.INFO, "job complete",
                    digest=digest, attempt=attempt,
                    rows_computed=stats.rows_computed,
                    rows_recomputed=stats.rows_recomputed,
                    shards_executed=stats.shards_executed,
                    shards_skipped=stats.shards_skipped,
                )
            elif stats.interrupted:
                # Drain or an external stop: the job stays `running` in the
                # journal; the next session (or the next step, if the stop
                # clears) resumes it with zero recomputed shards.
                log_event(
                    logger, logging.INFO, "job interrupted; will resume",
                    digest=digest, attempt=attempt,
                    shards_executed=stats.shards_executed,
                )
            else:
                # Finished its pending work but the store is degraded
                # (quarantined shards).  Retrying without a repair would
                # re-hit the same poison shards, so quarantine the job now.
                quarantined = stats.shards_quarantined
                self.queue.mark_quarantined(
                    digest,
                    error=(
                        f"campaign degraded: {quarantined} shard(s) quarantined; "
                        "run `repro campaign doctor --repair` on the store and "
                        "resubmit"
                    ),
                )
                self.jobs_quarantined += 1
                log_event(
                    logger, logging.WARNING, "job quarantined (degraded store)",
                    digest=digest, attempt=attempt, shards_quarantined=quarantined,
                )
        except Exception as error:  # noqa: BLE001 - the job-level failure boundary
            attempt = (self.queue.job(digest) or job).attempts
            if attempt >= self.max_attempts:
                self.queue.mark_quarantined(digest, error=traceback.format_exc())
                self.jobs_quarantined += 1
                log_event(
                    logger, logging.ERROR, "job quarantined (attempts exhausted)",
                    digest=digest, attempt=attempt, error=repr(error),
                )
            else:
                delay = retry_delay(attempt, self.retry_backoff)
                with self._lock:
                    self._not_before[digest] = time.monotonic() + delay
                log_event(
                    logger, logging.WARNING, "job failed; retrying",
                    digest=digest, attempt=attempt, retry_in=round(delay, 3),
                    error=repr(error),
                )
        finally:
            with self._lock:
                self._inflight.pop(digest, None)
            # A slot is free and a failed job has its retry deadline: the
            # loop takes another pass either way.
            self._wake.set()

    def _accumulate_session(self, stats) -> None:
        with self._lock:
            totals = self.session_shard_totals
            totals["shard_attempts"] += stats.shard_attempts
            totals["shards_executed"] += stats.shards_executed
            totals["shards_retried"] += stats.shards_retried
            totals["shards_quarantined"] += stats.shards_quarantined
            totals["rows_computed"] += stats.rows_computed
            totals["wall_seconds"] += stats.wall_seconds

    def session_window(self) -> Dict[str, float]:
        """A snapshot of this session's shard totals (see ``__init__``)."""
        with self._lock:
            return dict(self.session_shard_totals)

    def _progress(self, digest: str, attempt: int):
        def emit(line: str) -> None:
            log_event(
                logger, logging.DEBUG, line,
                digest=digest, attempt=attempt, worker_pid=os.getpid(),
            )

        return emit
