"""Fault-tolerant parallel shard execution for campaigns.

:class:`ShardExecutor` dispatches pending shards over a pool of spawned
worker processes and survives every failure mode short of losing the store:

* **worker death** (SIGKILL, OOM, segfault) — detected by liveness polling;
  the dead worker's shard re-queues with its attempt count bumped and a
  replacement worker spawns (the pool is *rebuilt around* the loss, the
  custom-pool equivalent of catching ``BrokenProcessPool``);
* **shard hang** — a per-shard ``shard_timeout`` deadline; an overdue worker
  is terminated, replaced, and its shard re-queued;
* **shard failure** (an exception inside the worker) — re-queued with
  exponential backoff plus jitter, up to ``max_attempts`` total attempts;
* **poison shards** — after ``max_attempts`` the shard is *quarantined*:
  its captured traceback lands in the store's ``failed/`` ledger and the
  campaign continues, degrading to a partial-but-valid store instead of
  aborting (``repro campaign doctor --repair`` clears the ledger so a later
  ``resume`` retries exactly those shards);
* **concurrent runners** — every dispatch first claims the shard's lease
  (:mod:`repro.campaign.leases`); a fresh foreign lease parks the shard on a
  watch list that polls for the peer's completion (or takes over its stale
  lease if the peer dies), so N processes pointed at one store partition the
  campaign between them with zero duplicated computations.

None of this can change stored bytes: shards are deterministic in isolation
(position-spawned seeds) and the export concatenates in plan order, so *any*
execution order, retry history or worker count yields a byte-identical
store — the Bobpp property (deterministic partitioning, free execution
order) that makes fault recovery safe.

The pool is deliberately hand-rolled over ``multiprocessing.Process`` pipes
instead of ``concurrent.futures.ProcessPoolExecutor``: a hung shard must be
killed *individually*, and a ``BrokenProcessPool`` condemns every in-flight
future where this pool loses only the dead worker's shard.

Fault injection rides the orchestrator's existing ``shard_hook``: a hook
that raises :class:`FaultInjection` marks that one dispatch to fail, die or
hang *inside the worker*; any other exception from the hook still propagates
(the historical "simulated crash between checkpoints" contract).
"""

from __future__ import annotations

import collections
import os
import pickle
import random
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from multiprocessing import get_context

from repro.campaign.leases import LeaseManager
from repro.campaign.shards import Shard, shard_cache_scope, shard_instances, shard_tasks
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.store import CampaignStore, records_to_columns
from repro.obs import core as _obs
from repro.obs import phases as _phases
from repro.obs import trace as _trace
from repro.util.logging import get_logger

logger = get_logger("campaign.executor")

__all__ = ["FaultInjection", "ShardExecutor", "retry_delay"]

#: Parent poll granularity (seconds): result pipes, deadlines, liveness.
_POLL_INTERVAL = 0.02

#: How often (seconds) the watch list re-reads the manifest for shards a
#: live peer holds the lease on.
_FOREIGN_POLL_INTERVAL = 0.2


class FaultInjection(Exception):
    """Raised by a ``shard_hook`` to inject a fault into one shard dispatch.

    ``kind`` selects the failure mode, executed *inside the worker* so the
    recovery machinery sees exactly what production would:

    * ``"fail"`` — the worker raises (exercises retry/backoff/quarantine);
    * ``"kill"`` — the worker SIGKILLs itself (exercises death detection
      and pool rebuild);
    * ``"hang"`` — the worker sleeps forever (exercises ``shard_timeout``).

    ``"kill"`` and ``"hang"`` need ``workers >= 2``'s process pool; the
    inline path has no worker to kill and refuses them.
    """

    KINDS = ("fail", "kill", "hang")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {self.KINDS}")
        super().__init__(kind)
        self.kind = kind


def retry_delay(attempt: int, base: float) -> float:
    """Exponential backoff with jitter before retry number ``attempt``.

    ``base * 2**(attempt-1)``, up-jittered by as much as 50% so two runners
    retrying the same flaky resource desynchronize.
    """
    if base <= 0.0:
        return 0.0
    return base * (2.0 ** max(0, attempt - 1)) * (1.0 + random.uniform(0.0, 0.5))


def _apply_fault(kind: Optional[str]) -> None:
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "hang":
        time.sleep(3600.0)
    if kind == "fail":
        raise RuntimeError("injected shard fault")


def _worker_main(spec: CampaignSpec, conn) -> None:
    """Worker process: compute shards from the pipe until told to stop.

    Workers compute *columns* and ship them back; the parent alone writes
    the store, so manifest appends are serialized per runner process.  Each
    worker holds its own inline :class:`BatchRunner` — vectorized shards are
    one batch-engine call, exact-timebase shards run the event engine
    in-process (the parallelism is already shard-granular).

    Wire protocol: with observability off (the default) each shard answers
    with one ``("ok", shard_id, columns, wall)`` tuple, byte-identical to the
    historical format.  With observability on, the result arrives as *two*
    messages — the bulk ``("columns", shard_id, columns)`` payload, whose
    pickling and pipe write are themselves timed (``ipc.serialize`` /
    ``ipc.pipe_send``, plus the payload byte count), followed by a small
    ``("ok2", shard_id, wall, phases)`` meta record carrying those IPC
    measurements.  The IPC cost of a message cannot ride the message it
    times; the trailing meta record can.  The parent dispatches on the
    message tag, never on its own mode, so mixed configurations stay safe.
    """
    # Workers must not receive the terminal's Ctrl-C: the parent handles
    # SIGINT, releases leases and shuts the pool down cleanly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.parallel.runner import BatchRunner

    with BatchRunner(processes=1) as runner:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            shard, fault = message[1], message[2]
            try:
                _apply_fault(fault)
                started = time.perf_counter()
                if not _obs.enabled():
                    instances = shard_instances(spec, shard)
                    tasks = shard_tasks(spec, shard, instances)
                    with shard_cache_scope(spec):
                        records = runner.run(tasks)
                    columns = records_to_columns(shard, records)
                    conn.send(
                        ("ok", shard.shard_id, columns, time.perf_counter() - started)
                    )
                else:
                    with _obs.span("campaign.shard", shard=shard.shard_id):
                        with _obs.collect() as phases:
                            with _obs.span("campaign.sample"):
                                instances = shard_instances(spec, shard)
                                tasks = shard_tasks(spec, shard, instances)
                            with shard_cache_scope(spec):
                                records = runner.run(tasks)
                            with _obs.span("campaign.collate"):
                                columns = records_to_columns(shard, records)
                            # Wall excludes IPC, matching the off-mode format.
                            wall = time.perf_counter() - started
                            with _obs.span("ipc.serialize"):
                                payload = pickle.dumps(
                                    ("columns", shard.shard_id, columns),
                                    protocol=pickle.HIGHEST_PROTOCOL,
                                )
                            _obs.add("ipc.bytes", len(payload))
                            phases[_phases.IPC_BYTES_KEY] = float(len(payload))
                            with _obs.span("ipc.pipe_send"):
                                conn.send_bytes(payload)
                        conn.send(("ok2", shard.shard_id, wall, dict(phases)))
                    # Per-shard segment flush: a later terminated worker loses
                    # at most the shard in flight, not its whole timeline.
                    _trace.flush()
            except BaseException:
                conn.send(("error", shard.shard_id, traceback.format_exc()))


@dataclass
class _Assignment:
    shard: Shard
    attempt: int
    deadline: float  # monotonic; inf when no shard_timeout


@dataclass
class _Worker:
    process: Any
    conn: Any
    current: Optional[_Assignment] = None


@dataclass
class ShardExecutor:
    """Drives one campaign's pending shards to completion over worker processes.

    Built and torn down inside :func:`repro.campaign.orchestrator.run_campaign`
    (one executor per call); mutates the call's ``stats`` in place and emits
    the same progress lines as the sequential path.
    """

    store: CampaignStore
    spec: CampaignSpec
    leases: LeaseManager
    stats: Any  # CampaignRunStats (avoids a circular import)
    emit: Callable[[str], None]
    workers: int
    plan_size: int
    shard_timeout: Optional[float] = None
    max_attempts: int = 3
    retry_backoff: float = 0.25
    max_shards: Optional[int] = None
    shard_hook: Optional[Callable[[Shard], None]] = None
    should_stop: Callable[[], bool] = lambda: False
    _pool: List[_Worker] = field(default_factory=list, init=False, repr=False)
    _mp = None

    def run(self, pending: List[Shard]) -> None:
        self._mp = get_context("spawn")
        ready: Deque[Tuple[Shard, int, float]] = collections.deque(
            (shard, 1, 0.0) for shard in pending
        )
        foreign: Dict[str, Shard] = {}
        next_foreign_poll = 0.0
        next_heartbeat = time.monotonic() + self.leases.stale_after / 4.0
        try:
            for _ in range(self.workers):
                self._pool.append(self._spawn())
            while ready or foreign or self._in_flight():
                if self.should_stop():
                    self.stats.interrupted = True
                    self.emit("stop requested: abandoning in-flight shards, releasing leases")
                    return
                if self._budget_exhausted():
                    if not self._in_flight():
                        self.stats.interrupted = True
                        self.emit(
                            f"stopping after {self.stats.shards_executed} shards (--max-shards)"
                        )
                        return
                else:
                    self._dispatch(ready, foreign)
                self._poll(ready)
                now = time.monotonic()
                if foreign and now >= next_foreign_poll:
                    next_foreign_poll = now + _FOREIGN_POLL_INTERVAL
                    self._poll_foreign(ready, foreign)
                if now >= next_heartbeat:
                    next_heartbeat = now + self.leases.stale_after / 4.0
                    self.leases.heartbeat()
                time.sleep(_POLL_INTERVAL)
        finally:
            self._shutdown()
            self.leases.release_all()
            self.stats.lease_takeovers = self.leases.takeovers
            self.stats.lease_conflicts = self.leases.conflicts

    # -- pool machinery ----------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(self.spec, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _replace(self, worker: _Worker) -> None:
        """Rebuild the pool around a dead or hung worker."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=10.0)
        if worker.process.is_alive():  # pragma: no cover - terminate() sufficing
            worker.process.kill()
            worker.process.join(timeout=10.0)
        worker.conn.close()
        self._pool.remove(worker)
        self._pool.append(self._spawn())
        self.stats.worker_restarts += 1

    def _shutdown(self) -> None:
        for worker in self._pool:
            if worker.current is None and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._pool:
            if worker.current is not None:
                worker.process.terminate()
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join(timeout=10.0)
            worker.conn.close()
        self._pool.clear()

    def _in_flight(self) -> bool:
        return any(worker.current is not None for worker in self._pool)

    def _budget_exhausted(self) -> bool:
        if self.max_shards is None:
            return False
        dispatched = self.stats.shards_executed + sum(
            1 for worker in self._pool if worker.current is not None
        )
        return dispatched >= self.max_shards

    # -- dispatch ----------------------------------------------------------------
    def _dispatch(self, ready, foreign) -> None:
        now = time.monotonic()
        for worker in self._pool:
            if worker.current is not None:
                continue
            assignment = self._next_ready(ready, foreign, now)
            if assignment is None:
                return
            shard, attempt = assignment
            fault = None
            if self.shard_hook is not None:
                # The hook runs before *every* dispatch (a poison shard keeps
                # injecting its fault on retries); non-FaultInjection
                # exceptions keep the historical crash-simulation contract
                # and propagate out of run_campaign.
                try:
                    self.shard_hook(shard)
                except FaultInjection as injected:
                    fault = injected.kind
            deadline = (
                now + self.shard_timeout if self.shard_timeout is not None else float("inf")
            )
            try:
                worker.conn.send(("run", shard, fault))
            except (BrokenPipeError, OSError):
                # The idle worker died before taking the shard: rebuild and
                # put the shard back without charging it an attempt.
                ready.append((shard, attempt, now))
                self._replace(worker)
                continue
            worker.current = _Assignment(shard=shard, attempt=attempt, deadline=deadline)
            self.stats.shard_attempts += 1
            if attempt > 1:
                self.stats.shards_retried += 1
            if self._budget_exhausted():
                return

    def _next_ready(self, ready, foreign, now) -> Optional[Tuple[Shard, int]]:
        """Pop the next dispatchable shard: backoff elapsed, lease claimed."""
        for _ in range(len(ready)):
            shard, attempt, not_before = ready.popleft()
            if now < not_before:
                ready.append((shard, attempt, not_before))
                continue
            if self._completed_elsewhere(shard):
                continue
            with _obs.span("campaign.lease"):
                acquired = self.leases.acquire(shard.shard_id)
            if not acquired:
                foreign[shard.shard_id] = shard
                continue
            if self._completed_elsewhere(shard):
                # A peer committed between our manifest read and the claim.
                self.leases.release(shard.shard_id)
                continue
            return shard, attempt
        return None

    def _completed_elsewhere(self, shard: Shard) -> bool:
        """Did a concurrent runner finish this shard since we planned?

        The data-file stat is the cheap screen; only when it exists does the
        manifest get re-read (the commit order — npz before manifest — makes
        a record without a file impossible, and a file without a record is an
        orphan that re-runs).
        """
        if not os.path.exists(self.store.shard_path(shard.shard_id)):
            return False
        if shard.shard_id in self.store.completed():
            self.stats.shards_completed_elsewhere += 1
            self.emit(f"  {shard.describe(self.spec)}: completed by a concurrent runner")
            return True
        return False

    # -- result handling ---------------------------------------------------------
    def _poll(self, ready) -> None:
        now = time.monotonic()
        for worker in list(self._pool):
            assignment = worker.current
            if assignment is None:
                continue
            if worker.conn.poll(0):
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._lost(worker, ready, "worker died mid-result")
                    continue
                if message[0] == "ok":
                    worker.current = None
                    self._commit(assignment, columns=message[2], wall=message[3])
                elif message[0] == "columns":
                    # Observability-on worker: the bulk payload is followed by
                    # a small meta record with the wall time and phase dict
                    # (or by an error raised between the two messages).
                    try:
                        meta = worker.conn.recv()
                    except (EOFError, OSError):
                        self._lost(worker, ready, "worker died mid-result")
                        continue
                    worker.current = None
                    if meta[0] == "ok2":
                        self._commit(
                            assignment,
                            columns=message[2],
                            wall=meta[2],
                            phases=meta[3],
                        )
                    else:
                        self._failed(assignment, ready, meta[2])
                else:
                    worker.current = None
                    self._failed(assignment, ready, message[2])
            elif not worker.process.is_alive():
                self._lost(worker, ready, "worker process died")
            elif now > assignment.deadline:
                self._lost(
                    worker,
                    ready,
                    f"shard exceeded shard_timeout={self.shard_timeout}s",
                )

    def _commit(
        self, assignment: _Assignment, *, columns, wall: float, phases=None
    ) -> None:
        shard = assignment.shard
        with _obs.span("campaign.store_write"):
            self.store.write_shard(shard, columns, wall_seconds=wall, phases=phases)
        self.leases.release(shard.shard_id)
        self.stats.shards_executed += 1
        self.stats.rows_computed += shard.count
        self.stats.executed_shard_ids.append(shard.shard_id)
        done = self.stats.shards_skipped + self.stats.shards_executed
        retry_note = f" (attempt {assignment.attempt})" if assignment.attempt > 1 else ""
        self.emit(
            f"  {shard.describe(self.spec)}: {shard.count} rows in "
            f"{wall:.2f}s{retry_note} [{done}/{self.plan_size}]"
        )

    def _failed(self, assignment: _Assignment, ready, detail: str) -> None:
        shard = assignment.shard
        if assignment.attempt >= self.max_attempts:
            self.store.quarantine(shard, error=detail, attempts=assignment.attempt)
            self.leases.release(shard.shard_id)
            self.stats.shards_quarantined += 1
            self.emit(
                f"  {shard.describe(self.spec)}: QUARANTINED after "
                f"{assignment.attempt} attempts (see failed/{shard.shard_id}.json)"
            )
            return
        delay = retry_delay(assignment.attempt, self.retry_backoff)
        # The lease stays held across the backoff (heartbeated by the main
        # loop): a failing shard must not bounce between concurrent runners.
        ready.append((shard, assignment.attempt + 1, time.monotonic() + delay))
        self.emit(
            f"  {shard.describe(self.spec)}: attempt {assignment.attempt} failed, "
            f"retrying in {delay:.2f}s"
        )
        logger.debug("shard %s attempt %d failed:\n%s", shard.shard_id, assignment.attempt, detail)

    def _lost(self, worker: _Worker, ready, reason: str) -> None:
        """A worker died or hung: rebuild the pool, re-queue its shard."""
        assignment = worker.current
        worker.current = None
        self._replace(worker)
        if assignment is None:  # pragma: no cover - defensive
            return
        self._failed(assignment, ready, f"{reason}\n(no traceback: the worker was lost)")

    # -- foreign leases ----------------------------------------------------------
    def _poll_foreign(self, ready, foreign: Dict[str, Shard]) -> None:
        """Re-check shards whose lease a concurrent runner holds.

        A peer-completed shard leaves the campaign; a still-leased one stays
        parked; a released or stale lease re-enters the ready queue (the
        acquire inside ``_next_ready`` performs the actual takeover).
        """
        done = self.store.completed()
        for shard_id, shard in list(foreign.items()):
            if shard_id in done:
                del foreign[shard_id]
                self.stats.shards_completed_elsewhere += 1
                self.emit(f"  {shard.describe(self.spec)}: completed by a concurrent runner")
            elif self.leases.owner_of(shard_id) is None or shard_id in set(
                self.leases.stale_leases()
            ):
                del foreign[shard_id]
                ready.append((shard, 1, 0.0))
