"""The campaign shard scheduler: one loop, an in-process or spawned slot.

:class:`ShardExecutor` is the only shard scheduler.  With ``workers == 1`` it
drives one *in-process slot* that computes and commits each shard
synchronously; with ``workers >= 2`` it borrows spawned worker processes from
a :class:`SlotPool` and drives them over pipes.  Everything else runs once
for both slot kinds:

* **ready queue with backoff** — a failed shard re-queues with exponential
  backoff plus jitter, up to ``max_attempts`` total attempts;
* **poison shards** — after ``max_attempts`` the shard is *quarantined*:
  its captured traceback lands in the store's ``failed/`` ledger and the
  campaign continues, degrading to a partial-but-valid store instead of
  aborting (``repro campaign doctor --repair`` clears the ledger so a later
  ``resume`` retries exactly those shards);
* **concurrent runners** — every dispatch first claims the shard's lease
  (:mod:`repro.campaign.leases`) and re-checks that no peer committed it; a
  fresh foreign lease parks the shard on a watch list that polls for the
  peer's completion (or takes over its stale lease if the peer dies), so N
  processes pointed at one store partition the campaign between them with
  zero duplicated computations;
* **commit** — the scheduler alone writes the store, one shard at a time.  A
  failed commit is a store fault, not a shard fault: it propagates out of
  :func:`~repro.campaign.orchestrator.run_campaign` for every worker count
  (everything committed before it stays valid);
* heartbeats for held leases, ``max_shards`` and the stop request.

Spawned slots add what only a separate process can survive:

* **worker death** (SIGKILL, OOM, segfault) — detected through the worker's
  process sentinel; the dead worker's shard re-queues with its attempt count
  bumped and a replacement worker spawns (the pool is *rebuilt around* the
  loss, the custom-pool equivalent of catching ``BrokenProcessPool``);
* **shard hang** — a per-shard ``shard_timeout`` deadline; an overdue worker
  is terminated, replaced, and its shard re-queued.

Spawned slots outlive the run that borrowed them.  A :class:`SlotPool` keeps
idle workers between runs: the service scheduler owns one for the daemon's
lifetime, so only a session's first job pays the interpreter spawn, while
every other caller of :func:`~repro.campaign.orchestrator.run_campaign`
gets a private pool that is closed when the call returns.  A worker binds
no spec: each assignment carries its own, and the process-wide caches a
worker keeps from job to job (the builder cache of
:mod:`repro.sim.rounds`) are result-neutral.

None of this can change stored bytes: shards are deterministic in isolation
(position-spawned seeds) and the export concatenates in plan order, so *any*
execution order, retry history, slot kind, worker count or slot reuse yields
a byte-identical store — the Bobpp property (deterministic partitioning, free
execution order) that lets one scheduler serve every worker count.

The pool is deliberately hand-rolled over ``multiprocessing.Process`` pipes
instead of a ``concurrent.futures`` executor: a hung shard must be
killed *individually*, and a ``BrokenProcessPool`` condemns every in-flight
future where this pool loses only the dead worker's shard.

Fault injection rides the orchestrator's existing ``shard_hook``: a hook
that raises :class:`FaultInjection` marks that one dispatch to fail, die or
hang *inside the slot*; any other exception from the hook still propagates
(the historical "simulated crash between checkpoints" contract).
"""

from __future__ import annotations

import collections
import os
import pickle
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.campaign.leases import LeaseManager
from repro.campaign.shards import Shard, shard_instances, shard_tasks
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.campaign.store import CampaignStore, outcome_columns
from repro.obs import core as _obs
from repro.obs import phases as _phases
from repro.obs import trace as _trace
from repro.util.logging import get_logger

logger = get_logger("campaign.executor")

__all__ = ["FaultInjection", "ShardExecutor", "SlotPool", "retry_delay"]

#: Longest the loop blocks between turns (seconds), so a stop request is seen
#: promptly.  It wakes earlier on a result, a worker death or the next timed
#: event; the in-process slot waits only in a turn that started nothing.
_POLL_INTERVAL = 0.02

#: How often (seconds) the watch list re-reads the manifest for shards a
#: live peer holds the lease on.
_FOREIGN_POLL_INTERVAL = 0.2


class FaultInjection(Exception):
    """Raised by a ``shard_hook`` to inject a fault into one shard dispatch.

    ``kind`` selects the failure mode, executed *inside the slot* so the
    recovery machinery sees exactly what production would:

    * ``"fail"`` — the shard raises (exercises retry/backoff/quarantine);
    * ``"kill"`` — the worker SIGKILLs itself (exercises death detection
      and pool rebuild);
    * ``"hang"`` — the worker sleeps forever (exercises ``shard_timeout``).

    ``"kill"`` and ``"hang"`` need ``workers >= 2``'s spawned slots; the
    in-process slot has no worker to kill and refuses them.
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


def _compute_shard(
    spec: CampaignSpec, shard: Shard, runner
) -> Tuple[Dict[str, Any], float, Optional[Dict[str, float]]]:
    """The shard body both slot kinds run: sample, compute, collate.

    Returns ``(columns, wall, phases)``: the shard's result columns, its
    wall seconds (the commit excluded) and the leaf-phase seconds collected
    while it ran — ``None`` with observability off, which
    :meth:`~repro.campaign.store.CampaignStore.write_shard` takes as "no
    phases".  The umbrella ``campaign.shard`` span sits *outside* the
    collector window, so only leaf phases land in the manifest.
    """
    started = time.perf_counter()
    with _obs.span("campaign.shard", shard=shard.shard_id):
        with _obs.collect() as phases:
            with _obs.span("campaign.sample"):
                work = shard_tasks(spec, shard, shard_instances(spec, shard))
            outcomes = runner.run(work)
            with _obs.span("campaign.collate"):
                columns = outcome_columns(shard, outcomes)
    return columns, time.perf_counter() - started, phases


def _worker_main(conn) -> None:
    """Spawned slot: compute shards from the pipe until told to stop.

    Workers compute *columns* and ship them back; the parent alone writes
    the store, so manifest appends are serialized per runner process.  Each
    worker holds its own :class:`BatchRunner` — vectorized shards are one
    batch-engine call, exact-timebase shards run the event engine instance
    by instance in the worker (the parallelism is shard-granular).  A worker
    binds no campaign: every ``("run", spec, shard, fault)`` assignment names
    its own spec, so one warm worker serves job after job.  A closed pipe
    means the parent is gone, and the worker returns quietly.

    Wire protocol: with observability off (the default) each shard answers
    with one ``("ok", shard_id, columns, wall)`` tuple.  With observability
    on, the result arrives as *two* messages — the bulk ``("columns",
    shard_id, columns)`` payload, whose pickling and pipe write are
    themselves timed (``ipc.serialize`` / ``ipc.pipe_send``, plus the payload
    byte count), followed by a small ``("ok2", shard_id, wall, phases)`` meta
    record carrying those IPC measurements.  The IPC cost of a message cannot
    ride the message it times; the trailing meta record can.  The parent
    dispatches on the message tag, never on its own mode, so mixed
    configurations stay safe.
    """
    # Workers must not receive the terminal's Ctrl-C: the parent handles
    # SIGINT, releases leases and shuts the pool down cleanly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.parallel.runner import BatchRunner

    runner = BatchRunner()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, spec, shard, fault = message
        try:
            _apply_fault(fault)
            columns, wall, phases = _compute_shard(spec, shard, runner)
            if phases is None:
                conn.send(("ok", shard.shard_id, columns, wall))
                continue
            with _obs.collect() as ipc:
                with _obs.span("ipc.serialize"):
                    payload = pickle.dumps(
                        ("columns", shard.shard_id, columns),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                _obs.add("ipc.bytes", len(payload))
                with _obs.span("ipc.pipe_send"):
                    conn.send_bytes(payload)
            phases.update(ipc)
            phases[_phases.IPC_BYTES_KEY] = float(len(payload))
            # Per-shard segment flush, before the meta record: a terminated
            # worker loses at most the shard in flight, and a merge the
            # parent runs after its last commit already sees this shard.
            _trace.flush()
            conn.send(("ok2", shard.shard_id, wall, phases))
        except BaseException:
            try:
                conn.send(("error", shard.shard_id, traceback.format_exc()))
            except OSError:
                return


@dataclass
class _Assignment:
    shard: Shard
    attempt: int
    deadline: float  # monotonic; inf when no shard_timeout


@dataclass
class _Worker:
    """A spawned slot: a worker process and its pipe."""

    process: Any
    conn: Any
    current: Optional[_Assignment] = None


def _retire(workers: List[_Worker]) -> None:
    """Stop and join spawned slots: idle ones by message, busy ones by SIGTERM."""
    for worker in workers:
        if not worker.process.is_alive():
            continue
        if worker.current is None:
            try:
                worker.conn.send(("stop",))
                continue
            except OSError:
                pass
        worker.process.terminate()
    for worker in workers:
        worker.process.join(timeout=10.0)
        if worker.process.is_alive():  # pragma: no cover - stop/terminate sufficing
            worker.process.kill()
            worker.process.join(timeout=10.0)
        worker.conn.close()


class SlotPool:
    """Idle spawned slots, kept alive between :class:`ShardExecutor` runs.

    :meth:`borrow` hands out live idle slots and spawns any that are missing;
    :meth:`give_back` keeps the live idle ones and terminates any still
    holding a shard; :meth:`close` stops and joins the idle ones.  A borrowed
    slot belongs to one executor until it is given back, so concurrent runs
    sharing a pool never share a worker.  Slots given back after
    :meth:`close` are stopped instead of kept.
    """

    def __init__(self) -> None:
        self._mp = get_context("spawn")
        self._lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._closed = False

    def spawn(self) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(target=_worker_main, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def borrow(self, count: int) -> Tuple[List[_Worker], int]:
        """``count`` live idle slots, and how many of them had to be spawned."""
        slots: List[_Worker] = []
        dead: List[_Worker] = []
        with self._lock:
            while self._idle and len(slots) < count:
                worker = self._idle.pop()
                (slots if worker.process.is_alive() else dead).append(worker)
        _retire(dead)
        spawned = count - len(slots)
        slots.extend(self.spawn() for _ in range(spawned))
        return slots, spawned

    def give_back(self, slots: List[_Worker]) -> None:
        retired: List[_Worker] = []
        with self._lock:
            for worker in slots:
                if self._closed or worker.current is not None or not worker.process.is_alive():
                    retired.append(worker)
                else:
                    self._idle.append(worker)
        _retire(retired)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        _retire(idle)


@dataclass
class _InProcessSlot:
    """The ``workers == 1`` slot: computes and commits in this process.

    ``current`` stays ``None``: a shard is never in flight across loop turns.
    """

    runner: Any
    current: Optional[_Assignment] = None


@dataclass
class ShardExecutor:
    """Drives one campaign's pending shards to completion.

    One executor per :func:`repro.campaign.orchestrator.run_campaign` call;
    mutates the call's ``stats`` in place.  ``workers`` picks the slot kind:
    ``1`` computes in this process through its own
    :class:`~repro.parallel.runner.BatchRunner`, ``>= 2`` borrows that many
    spawned workers from ``pool`` for the run and gives the live idle ones
    back when it ends — to the daemon's pool, which keeps them warm for the
    next job, or to the call's private pool, which closes right after.
    """

    store: CampaignStore
    spec: CampaignSpec
    leases: LeaseManager
    stats: Any  # CampaignRunStats (avoids a circular import)
    emit: Callable[[str], None]
    workers: int
    pool: SlotPool
    plan_size: int
    shard_timeout: Optional[float] = None
    max_attempts: int = 3
    retry_backoff: float = 0.25
    max_shards: Optional[int] = None
    shard_hook: Optional[Callable[[Shard], None]] = None
    should_stop: Callable[[], bool] = lambda: False
    _slots: List[Any] = field(default_factory=list, init=False, repr=False)

    def run(self, pending: List[Shard]) -> None:
        ready: Deque[Tuple[Shard, int, float]] = collections.deque(
            (shard, 1, 0.0) for shard in pending
        )
        foreign: Dict[str, Shard] = {}
        next_foreign_poll = 0.0
        next_heartbeat = time.monotonic() + self.leases.stale_after / 4.0
        try:
            self._open_slots()
            while ready or foreign or self._in_flight():
                if self.should_stop():
                    self.stats.interrupted = True
                    self.emit("stop requested: abandoning in-flight shards, releasing leases")
                    return
                # Commit every finished shard before dispatching, so a slot
                # freed by a result takes its next shard in this same turn.
                # The commit also comes first for the budget, which counts
                # committed plus in-flight shards.
                self._poll(ready)
                progressed = False
                if self._budget_exhausted():
                    if not self._in_flight():
                        self.stats.interrupted = True
                        self.emit(
                            f"stopping after {self.stats.shards_executed} shards (--max-shards)"
                        )
                        return
                else:
                    progressed = self._dispatch(ready, foreign)
                now = time.monotonic()
                if foreign and now >= next_foreign_poll:
                    next_foreign_poll = now + _FOREIGN_POLL_INTERVAL
                    progressed = self._poll_foreign(ready, foreign) or progressed
                if now >= next_heartbeat:
                    next_heartbeat = now + self.leases.stale_after / 4.0
                    self.leases.heartbeat()
                # Spawned slots wait for their next event; the in-process
                # slot waits only when it started nothing this turn.
                if self.workers > 1 or not progressed:
                    wakeups = [next_heartbeat] + ([next_foreign_poll] if foreign else [])
                    self._wait(ready, foreign, wakeups)
        finally:
            self._close_slots()
            self.leases.release_all()
            self.stats.lease_takeovers = self.leases.takeovers
            self.stats.lease_conflicts = self.leases.conflicts

    def _wait(self, ready, foreign, wakeups: List[float]) -> None:
        """Block until a busy slot answers or dies, or the next timed event.

        Called after the turn's commits and dispatches, so no free slot can
        take a due shard.  The timed events are shard deadlines, backoff
        expiries and the ``wakeups`` (heartbeat, foreign poll); the wait
        never exceeds ``_POLL_INTERVAL``, so a stop request is still seen
        promptly.  With nothing busy and nothing queued or parked the run is
        over, and there is nothing to wait for.
        """
        now = time.monotonic()
        busy = [slot for slot in self._slots if slot.current is not None]
        moments = [slot.current.deadline for slot in busy] + wakeups
        moments += [not_before for _, _, not_before in ready if not_before > now]
        timeout = max(0.0, min([now + _POLL_INTERVAL] + moments) - now)
        if busy:
            wait([slot.conn for slot in busy] + [slot.process.sentinel for slot in busy], timeout)
        elif ready or foreign:
            time.sleep(timeout)

    # -- slots -------------------------------------------------------------------
    def _open_slots(self) -> None:
        if self.workers == 1:
            from repro.parallel.runner import BatchRunner

            self._slots.append(_InProcessSlot(runner=BatchRunner()))
            return
        slots, spawned = self.pool.borrow(self.workers)
        self._slots.extend(slots)
        self.stats.slots_spawned += spawned

    def _close_slots(self) -> None:
        spawned = [slot for slot in self._slots if isinstance(slot, _Worker)]
        self._slots.clear()
        self.pool.give_back(spawned)

    def _replace(self, worker: _Worker) -> None:
        """Rebuild the pool around a dead or hung worker."""
        _retire([worker])
        self._slots.remove(worker)
        self._slots.append(self.pool.spawn())
        self.stats.worker_restarts += 1
        self.stats.slots_spawned += 1

    def _in_flight(self) -> bool:
        return any(slot.current is not None for slot in self._slots)

    def _budget_exhausted(self) -> bool:
        if self.max_shards is None:
            return False
        dispatched = self.stats.shards_executed + sum(
            1 for slot in self._slots if slot.current is not None
        )
        return dispatched >= self.max_shards

    # -- dispatch ----------------------------------------------------------------
    def _dispatch(self, ready, foreign) -> bool:
        """Hand ready shards to idle slots; whether any shard was started."""
        now = time.monotonic()
        started = False
        for slot in list(self._slots):
            if slot.current is not None:
                continue
            assignment = self._next_ready(ready, foreign, now)
            if assignment is None:
                break
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
            assignment = _Assignment(shard=shard, attempt=attempt, deadline=deadline)
            if isinstance(slot, _InProcessSlot):
                self._run_in_process(slot, assignment, fault, ready)
            else:
                try:
                    slot.conn.send(("run", self.spec, shard, fault))
                except (BrokenPipeError, OSError):
                    # The idle worker died before taking the shard: rebuild
                    # and put the shard back without charging it an attempt.
                    ready.append((shard, attempt, now))
                    self._replace(slot)
                    continue
                slot.current = assignment
            self.stats.shard_attempts += 1
            if attempt > 1:
                self.stats.shards_retried += 1
            started = True
            if self._budget_exhausted():
                break
        return started

    def _run_in_process(
        self, slot: _InProcessSlot, assignment: _Assignment, fault, ready
    ) -> None:
        """Compute one shard in this process and commit it (or fail it)."""
        if fault in ("kill", "hang"):
            raise CampaignError(
                f"fault kind {fault!r} needs the worker pool; run with workers >= 2"
            )
        try:
            _apply_fault(fault)
            columns, wall, phases = _compute_shard(self.spec, assignment.shard, slot.runner)
        except Exception:
            self._failed(assignment, ready, traceback.format_exc())
            return
        self._commit(assignment, columns=columns, wall=wall, phases=phases)

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
            self._note_completed_elsewhere(shard)
            return True
        return False

    def _note_completed_elsewhere(self, shard: Shard) -> None:
        self.stats.shards_completed_elsewhere += 1
        self.emit(f"  {shard.describe(self.spec)}: completed by a concurrent runner")

    # -- result handling ---------------------------------------------------------
    def _poll(self, ready) -> None:
        now = time.monotonic()
        for worker in list(self._slots):
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
        # Deliberately outside any retry: a store that cannot take a write is
        # not a shard fault, so the error propagates out of run_campaign.
        shard = assignment.shard
        # Recomputed work: a shard the manifest already records complete (a
        # peer committed it after our lease claim).  The data-file stat keeps
        # the manifest re-read off the ordinary commit path.
        recomputed = (
            os.path.exists(self.store.shard_path(shard.shard_id))
            and shard.shard_id in self.store.completed()
        )
        with _obs.span("campaign.store_write"):
            self.store.write_shard(shard, columns, wall_seconds=wall, phases=phases)
        self.leases.release(shard.shard_id)
        self.stats.shards_executed += 1
        self.stats.rows_computed += shard.count
        if recomputed:
            self.stats.rows_recomputed += shard.count
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
        self._replace(worker)  # still holding the shard, so terminated
        self._failed(assignment, ready, f"{reason}\n(no traceback: the worker was lost)")

    # -- foreign leases ----------------------------------------------------------
    def _poll_foreign(self, ready, foreign: Dict[str, Shard]) -> bool:
        """Re-check shards whose lease a concurrent runner holds.

        A peer-completed shard leaves the campaign; a still-leased one stays
        parked; a released or stale lease re-enters the ready queue (the
        acquire inside ``_next_ready`` performs the actual takeover).
        Returns whether any shard left the watch list.
        """
        parked = len(foreign)
        done = self.store.completed()
        # One listing of the lease directory per poll, not one per shard.
        stale = set(self.leases.stale_leases())
        for shard_id, shard in list(foreign.items()):
            if shard_id in done:
                del foreign[shard_id]
                self._note_completed_elsewhere(shard)
            elif self.leases.owner_of(shard_id) is None or shard_id in stale:
                del foreign[shard_id]
                ready.append((shard, 1, 0.0))
        return len(foreign) < parked
