"""The service daemon: recover, serve, schedule, drain — in that order.

:class:`ServiceDaemon` ties the service layer together around one service
directory::

    <service-dir>/journal.jsonl       the durable job queue (JobQueue)
    <service-dir>/stores/<digest>/    one campaign store per spec digest
    <service-dir>/daemon.json         who is serving: pid, host, bound port

Startup sequence (the crash-recovery contract):

1. **Replay** the journal (``JobQueue.__init__``) — every acknowledged job
   and transition is back, torn tails skipped.
2. **Recover**: every job that was ``running`` when the previous process
   died gets ``CampaignStore.doctor(repair=True)`` on its store, deleting
   any half-written artifacts so the scheduler's resume recomputes exactly
   the broken shards — and zero finished ones — and the leases of its gone
   workers, which the resume would otherwise wait out.
3. **Journal** a ``daemon-start`` record and mark the daemon *ready*; only
   now does ``/readyz`` flip to 200 and submission open.
4. **Serve + schedule** until asked to stop.

Graceful drain (SIGTERM / SIGINT, or :meth:`ServiceDaemon.stop`): flip
*draining* (``/readyz`` goes 503, new submissions get 503), stop the HTTP
server, stop the scheduler — in-flight campaign runs see the stop through
their ``should_stop`` hook, finish or abandon the shard in flight, release
their leases, and their jobs stay ``running`` for the next session; the
scheduler's warm worker processes are stopped and joined — then journal
``daemon-shutdown``, write the final merged trace (with
``REPRO_TRACE_FILE`` set) and remove ``daemon.json``.  A ``kill -9``
skips all of that by definition; the journal replay plus step 2 make that
loss-free anyway.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.leases import LeaseManager
from repro.campaign.orchestrator import status_rows
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.obs import trace as _trace
from repro.service.api import NotReady, make_server
from repro.service.queue import Job, JobQueue, ServiceError
from repro.service.scheduler import Scheduler
from repro.util.logging import get_logger, log_event

logger = get_logger("service.daemon")

__all__ = ["DAEMON_FILE", "ServiceDaemon", "read_daemon_file"]

#: The discovery file a running daemon maintains in its service directory.
DAEMON_FILE = "daemon.json"


def read_daemon_file(directory: str) -> Optional[Dict[str, Any]]:
    """The ``daemon.json`` of a service directory, or None when absent."""
    path = os.path.join(os.path.abspath(directory), DAEMON_FILE)
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


class ServiceDaemon:
    """One serving process for one service directory.

    Also the *facade* the HTTP handler calls (`submit`, `jobs`,
    `campaign_status`, ...), so API behavior is testable without sockets.
    """

    def __init__(
        self,
        directory: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        depth_limit: Optional[int] = None,
        max_concurrent: int = 1,
        max_attempts: int = 3,
        retry_backoff: float = 1.0,
        campaign_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.host = host
        self._requested_port = port
        self.queue = JobQueue(self.directory, depth_limit=depth_limit)
        self.scheduler = Scheduler(
            self.queue,
            max_concurrent=max_concurrent,
            max_attempts=max_attempts,
            retry_backoff=retry_backoff,
            campaign_options=campaign_options,
        )
        self.pid = os.getpid()
        self._ready = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._server = None
        self._threads: List[threading.Thread] = []
        #: Stores repaired during startup recovery, by digest (observable in
        #: tests and logged at startup).
        self.recovered: List[str] = []

    # -- facade: state -----------------------------------------------------------
    def is_ready(self) -> bool:
        return self._ready.is_set() and not self._draining.is_set()

    def not_ready_reason(self) -> str:
        if self._draining.is_set():
            return "draining"
        return "recovering"

    @property
    def port(self) -> Optional[int]:
        """The bound API port (None before :meth:`start`)."""
        if self._server is None:
            return None
        return self._server.server_address[1]

    # -- facade: queue and campaigns ---------------------------------------------
    def submit(self, spec: CampaignSpec) -> Tuple[Job, bool]:
        """Accept (or dedup) a submission; refused while not ready.

        Dedup is answered even while draining — observing an existing job is
        read-only — but *new* work is only accepted when ready.
        """
        if not self.is_ready():
            existing = self.queue.job(spec.digest())
            if existing is not None:
                return existing, False
            raise NotReady(f"daemon is {self.not_ready_reason()}; resubmit later")
        job, created = self.queue.submit(spec)
        if created:
            self.scheduler.wake()
        return job, created

    def jobs(self) -> List[Job]:
        return self.queue.jobs()

    def campaign_status(self, digest: str) -> Optional[Dict[str, Any]]:
        """Job record + live store status (lease state, quarantined shards)."""
        job = self.queue.job(digest)
        if job is None:
            return None
        payload: Dict[str, Any] = {"job": job.as_dict(), "campaign": None}
        if CampaignStore(self.queue.store_path(digest)).exists():
            payload["campaign"] = status_rows(self.queue.store_path(digest))
        return payload

    def campaign_report(self, digest: str) -> Optional[Dict[str, Any]]:
        """The per-(arm, class) aggregate cells of a job's store."""
        job = self.queue.job(digest)
        if job is None:
            return None
        if not CampaignStore(self.queue.store_path(digest)).exists():
            return {"job": job.as_dict(), "cells": []}
        status = status_rows(self.queue.store_path(digest))
        return {
            "job": job.as_dict(),
            "cells": status["cells"],
            "rows_stored": status["rows_stored"],
            "rows_total": status["rows_total"],
        }

    def metrics(self) -> Dict[str, Any]:
        """Operational counters for dashboards and smoke checks (``/metrics``).

        Aggregates the durable queue (depth, jobs by state, journal damage
        tallies), the live scheduler (in-flight runs, session outcomes), and
        every job's recorded :class:`CampaignRunStats` (shard attempts,
        retries, quarantines, computed rows, wall time) into one JSON-ready
        snapshot.  ``shards_per_second`` is the aggregate executed-shard
        throughput over recorded wall time — None until any job has stats.

        ``shards`` sums *every* journaled job's stats, so it grows without
        bound across daemon sessions — useful as a lifetime odometer, useless
        for "what is the service doing now".  ``shards_session`` is the same
        shape restricted to campaigns run by this scheduler session (anchored
        to the scheduler's in-memory counters, zeroed at daemon startup), so
        dashboards can rate-limit on a window that decays with restarts.
        """
        jobs = self.queue.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        shard_totals = {
            "shard_attempts": 0,
            "shards_executed": 0,
            "shards_retried": 0,
            "shards_quarantined": 0,
            "rows_computed": 0,
            "wall_seconds": 0.0,
        }
        for job in jobs:
            if not job.stats:
                continue
            for key in shard_totals:
                value = job.stats.get(key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    shard_totals[key] += value
        wall = shard_totals["wall_seconds"]
        throughput = (
            round(shard_totals["shards_executed"] / wall, 3) if wall > 0 else None
        )
        session = self.scheduler.session_window()
        session_wall = session["wall_seconds"]
        session_throughput = (
            round(session["shards_executed"] / session_wall, 3)
            if session_wall > 0
            else None
        )
        return {
            "ready": self.is_ready(),
            "queue": {
                "depth": self.queue.depth(),
                "depth_limit": self.queue.depth_limit,
                "jobs_total": len(jobs),
                "jobs_by_state": by_state,
                "attempts_total": sum(job.attempts for job in jobs),
                "torn_lines": self.queue.torn_lines,
                "invalid_records": self.queue.invalid_records,
            },
            "scheduler": {
                "inflight": self.scheduler.inflight(),
                "jobs_completed": self.scheduler.jobs_completed,
                "jobs_quarantined": self.scheduler.jobs_quarantined,
            },
            "shards": dict(shard_totals, shards_per_second=throughput),
            "shards_session": dict(session, shards_per_second=session_throughput),
        }

    # -- startup recovery ----------------------------------------------------------
    def recover(self) -> List[str]:
        """Repair the store of every crash-orphaned ``running`` job.

        ``doctor(repair=True)`` deletes half-written shard data (orphaned or
        corrupt npz files from a crash mid-commit) and clears stale leases,
        so the scheduler's resume recomputes exactly the broken shards, and
        clears the leases of gone local owners (the killed daemon's workers).
        Returns the repaired digests.
        """
        repaired: List[str] = []
        for job in self.queue.jobs():
            if job.state != "running":
                continue
            store = CampaignStore(self.queue.store_path(job.digest))
            if not store.exists():
                # Crashed before the store was initialized; the resume run
                # starts it from the journaled spec.
                continue
            report = store.doctor(repair=True)
            released = LeaseManager(store.lease_dir).remove_dead_owners()
            repaired.append(job.digest)
            log_event(
                logger, logging.INFO, "recovered crash-orphaned campaign",
                digest=job.digest,
                repaired=len(report["repaired"]),
                dead_leases=len(released),
                incomplete=len(report["incomplete"]),
                worker_pid=self.pid,
            )
        self.recovered = repaired
        return repaired

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Recover, bind, publish ``daemon.json``, and go ready."""
        if self._server is not None:
            raise ServiceError("daemon already started")
        if not self.queue.clean_shutdown and self.queue.clean_shutdown is not None:
            log_event(
                logger, logging.WARNING,
                "previous session did not shut down cleanly; recovering",
                torn_lines=self.queue.torn_lines,
                worker_pid=self.pid,
            )
        self.recover()
        self.queue.record_daemon_start()
        self._server = make_server(self, self.host, self._requested_port)
        self._write_daemon_file()
        server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-api",
            daemon=True,
        )
        scheduler_thread = threading.Thread(
            target=self.scheduler.run_forever,
            name="repro-service-scheduler",
            daemon=True,
        )
        self._threads = [server_thread, scheduler_thread]
        for thread in self._threads:
            thread.start()
        self._ready.set()
        log_event(
            logger, logging.INFO, "service daemon ready",
            host=self.host, port=self.port, worker_pid=self.pid,
            jobs=len(self.queue.jobs()), recovered=len(self.recovered),
        )

    def stop(self, *, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain; safe to call more than once."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._draining.set()
        log_event(logger, logging.INFO, "drain requested", worker_pid=self.pid)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        self.scheduler.stop(timeout=timeout)
        self.queue.record_daemon_shutdown()
        if _trace.active():
            # Every worker is joined now: this merge consumes their segments
            # and adds the spans that closed after the last job's merge.
            _trace.merge()
        try:
            os.unlink(os.path.join(self.directory, DAEMON_FILE))
        except FileNotFoundError:
            pass
        log_event(
            logger, logging.INFO, "service daemon stopped cleanly",
            worker_pid=self.pid,
            jobs_completed=self.scheduler.jobs_completed,
            jobs_quarantined=self.scheduler.jobs_quarantined,
        )

    def run_until_signal(self) -> None:
        """Foreground mode (``repro serve``): block until SIGTERM/SIGINT.

        Installs handlers in the main thread (the one place Python allows),
        then parks; the handler only sets an event, and the drain itself
        runs here — not in the handler — so it can join threads safely.
        """
        wake = threading.Event()
        previous = {}

        def _handle(signum, frame):
            wake.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handle)
        try:
            self.start()
            wake.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop()

    def _write_daemon_file(self) -> None:
        """Atomically publish pid/host/port for clients and smoke scripts."""
        payload = {
            "pid": self.pid,
            "host": self.host,
            "port": self.port,
            "hostname": socket.gethostname(),
        }
        path = os.path.join(self.directory, DAEMON_FILE)
        tmp = f"{path}.tmp.{self.pid}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
