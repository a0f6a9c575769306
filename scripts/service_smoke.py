#!/usr/bin/env python
"""Service-layer smoke: daemon lifecycle under ``kill -9`` (CI gate).

The whole durable-service story, end to end against real processes and real
sockets, in under a minute:

1. start ``repro serve --workers 2`` on an ephemeral port (daemon.json
   discovery);
2. submit one spec **twice** over HTTP — the second submission must
   deduplicate (HTTP 200, same digest, one store directory);
3. ``kill -9`` the daemon mid-campaign — no drain, no shutdown record — and
   every worker process it had must exit within 10 s;
4. restart the daemon: ``/readyz`` must flip to 200 only after journal
   replay + ``doctor(repair=True)`` recovery, and the orphaned job must
   resume and complete **without recomputing any finished shard**
   (``rows_recomputed == 0`` in the journaled stats) and within half the
   lease stale timeout of the restart (recovery clears the dead daemon's
   leases); a second job,
   submitted while the orphan still runs, must queue behind it (one job at
   a time), start only when the orphan's run returns — the scheduler's
   end-of-job wake-up, as the journal's order shows — and run on the
   orphan's warm workers (``slots_spawned == 0``); the SIGTERM drain must
   leave no worker running;
5. ``repro campaign report --check`` on the store must pass (checksums),
   and the exported columns of both jobs must be byte-identical to
   uninterrupted reference runs of the same specs.

Usage:
    PYTHONPATH=src python scripts/service_smoke.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from datetime import datetime


def fail(message: str) -> None:
    print(f"[service-smoke] FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(0.1)
    fail(f"timed out after {timeout}s waiting for {what}")


def http_json(url, data=None, timeout=15):
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data else "GET",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def start_daemon(service_dir, env):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--service-dir", service_dir, "--workers", "2", "--log-level", "debug",
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    daemon_file = os.path.join(service_dir, "daemon.json")

    def discovered():
        if process.poll() is not None:
            fail(f"daemon exited prematurely with {process.returncode}")
        if not os.path.exists(daemon_file):
            return None
        try:
            with open(daemon_file) as handle:
                info = json.load(handle)
        except (json.JSONDecodeError, OSError):
            return None
        # A kill -9 leaves the previous session's daemon.json behind; only
        # trust the file once *this* process republished it.
        return info if info.get("pid") == process.pid else None

    info = wait_for(discovered, 60, "daemon.json")
    return process, f"http://{info['host']}:{info['port']}"


def child_pids(pid):
    """The live child processes of ``pid`` (its shard workers)."""
    children = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.update(int(child) for child in handle.read().split())
        except OSError:
            continue
    return children


def running(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def assert_exited(pids, what):
    wait_for(lambda: not any(running(pid) for pid in pids), 10, what)


def wait_complete(url, digest, timeout):
    def completed():
        _, current = http_json(f"{url}/campaigns/{digest}/status")
        return current["job"]["state"] == "complete" and current
    return wait_for(completed, timeout, f"job {digest[:12]} to complete")


def ready(url):
    try:
        return http_json(f"{url}/readyz")[0] == 200
    except (urllib.error.URLError, OSError):
        return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--keep", metavar="DIR", default=None,
        help="keep the service directory under DIR instead of a temp dir",
    )
    args = parser.parse_args()

    from repro.campaign import CampaignArm, CampaignSpec, CampaignStore, run_campaign
    from repro.campaign.leases import DEFAULT_STALE_AFTER
    from repro.cli import main as cli_main
    from repro.service import JobQueue

    # Big enough that the kill lands mid-campaign, small enough for CI.
    spec = CampaignSpec(
        name="service-smoke",
        arms=(CampaignArm(algorithm="almost-universal-compact"),),
        classes=("type-1", "type-2"),
        instances_per_cell=24,
        seed=41,
        simulator={"max_time": 1e6, "max_segments": 30_000},
        shard_size=4,
    )
    body = spec.to_json().encode()
    # The second job of the restarted session: another seed, warm workers.
    second_spec = CampaignSpec(
        name="service-smoke-second",
        arms=spec.arms,
        classes=spec.classes,
        instances_per_cell=8,
        seed=43,
        simulator=spec.simulator,
        shard_size=spec.shard_size,
    )

    root = args.keep or tempfile.mkdtemp(prefix="service-smoke-")
    service_dir = os.path.join(root, "service")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(os.getcwd(), "src"), os.environ.get("PYTHONPATH"))
        if p
    )
    process = None
    try:
        print("[service-smoke] 1/5 starting daemon")
        process, url = start_daemon(service_dir, env)
        wait_for(lambda: ready(url), 30, "/readyz == 200")

        print("[service-smoke] 2/5 submitting the spec twice (dedup)")
        code, first = http_json(f"{url}/campaigns", data=body)
        if code != 201 or first["deduplicated"]:
            fail(f"first submission: expected fresh 201, got {code} {first}")
        code, second = http_json(f"{url}/campaigns", data=body)
        if code != 200 or not second["deduplicated"]:
            fail(f"second submission: expected dedup 200, got {code} {second}")
        if second["digest"] != first["digest"]:
            fail("dedup changed the digest")
        digest = first["digest"]
        stores = os.path.join(service_dir, "stores")
        store_dirs = [d for d in os.listdir(stores)] if os.path.isdir(stores) else []
        if len(store_dirs) > 1:
            fail(f"dedup must share one store directory, found {store_dirs}")

        print("[service-smoke] 3/5 kill -9 mid-campaign")
        wait_for(
            lambda: http_json(f"{url}/campaigns/{digest}/status")[1]["job"]["state"]
            == "running",
            60,
            "job to start running",
        )
        # Let at least one shard commit so zero-recompute is observable.
        def progress():
            _, status = http_json(f"{url}/campaigns/{digest}/status")
            campaign = status.get("campaign")
            return campaign and campaign["shards_complete"] >= 1
        wait_for(progress, 120, "one committed shard")
        workers = child_pids(process.pid)
        if not workers:
            fail("a --workers 2 daemon mid-campaign should have worker processes")
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        if process.returncode != -signal.SIGKILL:
            fail(f"daemon exit code {process.returncode}, expected SIGKILL")
        assert_exited(workers, "workers to exit after the daemon's kill -9")
        if not os.path.exists(os.path.join(service_dir, "daemon.json")):
            fail("kill -9 should leave daemon.json behind (no drain ran)")

        print("[service-smoke] 4/5 restart: recover, readyz, resume to completion")
        process, url = start_daemon(service_dir, env)
        wait_for(lambda: ready(url), 60, "post-crash /readyz")
        _, status = http_json(f"{url}/campaigns/{digest}/status")
        if status["job"]["state"] not in ("running", "complete"):
            fail(f"crash-orphaned job replayed as {status['job']['state']}")
        # Submitted while the orphan runs: the daemon runs one job at a
        # time, so this one starts only when the orphan's run wakes the
        # scheduler on its way out.
        code, second = http_json(f"{url}/campaigns", data=second_spec.to_json().encode())
        if code != 201:
            fail(f"second job: expected fresh 201, got {code} {second}")

        status = wait_complete(url, digest, 300)
        stats = status["job"]["stats"]
        if stats["rows_recomputed"] != 0:
            fail(f"resume recomputed {stats['rows_recomputed']} rows, expected 0")
        if status["campaign"]["shards_complete"] != status["campaign"]["shards_total"]:
            fail("campaign incomplete after recovery")
        second_stats = wait_complete(url, second["digest"], 120)["job"]["stats"]
        if second_stats["slots_spawned"] != 0:
            fail(
                f"second job spawned {second_stats['slots_spawned']} worker(s); "
                "it should have borrowed the session's warm ones"
            )

        # Graceful drain this time: clean shutdown record, daemon.json gone,
        # no worker left behind.
        workers = child_pids(process.pid)
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60)
        if process.returncode != 0:
            fail(f"drained daemon exited {process.returncode}")
        assert_exited(workers, "workers to exit after the drain")
        if os.path.exists(os.path.join(service_dir, "daemon.json")):
            fail("graceful drain should remove daemon.json")
        records = JobQueue(service_dir).journal_records()
        order = [
            (record["digest"], record["state"])
            for record in records
            if record.get("event") == "job"
        ]
        orphan_done = order.index((digest, "complete"))
        if order.index((second["digest"], "submitted")) > orphan_done:
            fail("the orphan finished before the second job was submitted")
        if order.index((second["digest"], "running")) < orphan_done:
            fail("the second job started before the orphan's run returned")
        # Recovery clears the dead daemon's leases: the orphan resumes at
        # once instead of waiting them out to the stale timeout.
        restarted = [r["ts"] for r in records if r.get("event") == "daemon-start"][-1]
        completed = next(
            r["ts"] for r in records
            if r.get("event") == "job" and (r["digest"], r["state"]) == (digest, "complete")
        )
        gap = (
            datetime.fromisoformat(completed) - datetime.fromisoformat(restarted)
        ).total_seconds()
        print(f"[service-smoke] orphan completed {gap:.0f} s after the restart")
        if gap > DEFAULT_STALE_AFTER / 2:
            fail(
                f"the orphan completed {gap:.0f} s after the restart; recovery "
                "should have cleared the dead daemon's leases"
            )

        print("[service-smoke] 5/5 report --check + byte-identity reference")
        store_dir = os.path.join(service_dir, "stores", digest)
        code = cli_main(["campaign", "report", "--campaign-dir", store_dir, "--check"])
        if code != 0:
            fail(f"report --check exited {code}")
        for label, job_spec, job_digest in (
            ("first", spec, digest),
            ("second", second_spec, second["digest"]),
        ):
            reference_dir = os.path.join(root, f"reference-{label}")
            reference = run_campaign(reference_dir, job_spec)
            if not reference.complete:
                fail(f"{label} reference run did not complete")
            a = CampaignStore(reference_dir).export_columns()
            b = CampaignStore(os.path.join(service_dir, "stores", job_digest)).export_columns()
            for name in a:
                if a[name].tobytes() != b[name].tobytes():
                    fail(f"{label} job: column {name!r} differs from the reference")
        print(
            "[service-smoke] OK: dedup held, kill -9 recovered losslessly, "
            "zero recomputed rows, workers gone, warm second job, bytes identical"
        )
    finally:
        if process is not None and process.poll() is None:
            process.kill()
            process.wait()
        if args.keep is None:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
