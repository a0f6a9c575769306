"""The ``service-campaigns`` workload.

A ``repro serve --workers 2`` daemon serves one client in a closed loop: the
client submits a campaign (4 classes x 100 instances, ``shard_size=50``) over
HTTP, polls ``/campaigns/<digest>/status`` until the job completes, and only
then submits the next.  Each daemon session starts on an empty service
directory, serves ``JOBS_PER_SESSION`` jobs and drains on SIGTERM; sessions
repeat until the run's time is up.  Job ``k`` of seed ``N`` uses the spec seed
``1000 * N + k``.

A traced run alternates traced and untraced sessions (traced first).  A traced
daemon starts with ``boot/`` on its path, so it and every worker it spawns
write span records to a trace directory; the client joins them per job.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from collections import defaultdict
from typing import Dict, List

import common
import tracer as tracing

WORKERS = 2
INSTANCES_PER_CLASS = 100
SHARD_SIZE = 50
JOBS_PER_SESSION = 2
MIN_SESSIONS = 2
POLL_INTERVAL = 0.025
START_TIMEOUT = 30.0
JOB_TIMEOUT = 60.0
VERIFY_TIMEOUT = 90.0
VERIFY = os.path.join(common.BENCH_DIR, "service_verify.py")
JOB_INSTANCES = INSTANCES_PER_CLASS * len(common.TYPE_CLASSES)


class ServiceFailure(Exception):
    """The daemon could not start or a request failed outright."""


def job_spec(seed: int, k: int) -> dict:
    return {
        "name": f"perfbench-{seed}-{k}",
        "arms": [{"algorithm": common.ALGORITHM}],
        "classes": list(common.TYPE_CLASSES),
        "instances_per_cell": INSTANCES_PER_CLASS,
        "seed": 1000 * seed + k,
        "simulator": {"max_time": common.MAX_TIME, "max_segments": common.MAX_SEGMENTS},
        "shard_size": SHARD_SIZE,
    }


def _http(url: str, data: bytes = None):
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, {}
    except (urllib.error.URLError, OSError) as error:
        raise ServiceFailure(f"{url}: {error}") from None


class Session:
    """One daemon process, from spawn to drained exit."""

    def __init__(self, workdir: str, index: int, trace_dir: str = None) -> None:
        self.directory = os.path.join(workdir, f"service-{index}")
        extra = {tracing.TRACE_DIR_ENV: trace_dir} if trace_dir else {}
        self._log = open(os.path.join(workdir, f"daemon-{index}.log"), "w")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--service-dir", self.directory,
                "--workers", str(WORKERS), "--port", "0",
            ],
            cwd=common.ROOT,
            env=common.child_env(boot=bool(trace_dir), **extra),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self):
        """The daemon's URL and its set-up time (spawn until ``/readyz`` is 200)."""
        daemon_file = os.path.join(self.directory, "daemon.json")
        deadline = self.spawned + START_TIMEOUT
        url = None
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise ServiceFailure(f"daemon exited with {self.process.returncode}")
            if url is None:
                try:
                    with open(daemon_file) as handle:
                        info = json.load(handle)
                except (OSError, json.JSONDecodeError):
                    info = {}
                if info.get("pid") == self.process.pid:
                    url = f"http://{info['host']}:{info['port']}"
            else:
                try:
                    if _http(f"{url}/readyz")[0] == 200:
                        return url, time.perf_counter() - self.spawned
                except ServiceFailure:
                    pass  # bound but not yet accepting
            time.sleep(0.005)
        raise ServiceFailure("daemon not ready in time")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _tree_peak_kb(pid: int) -> int:
    """Largest peak resident set (``VmHWM``) of a process and its children."""
    pids = [pid]
    for children in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(children) as handle:
                pids.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    peak = 0
    for child in pids:
        try:
            with open(f"/proc/{child}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except OSError:
            continue  # exited between the listing and the read
    return peak


def _run_job(url: str, spec: dict, daemon_pid: int) -> dict:
    """Submit one campaign and poll until it settles.

    Returns client-side timings and the largest resident set of the daemon
    and its workers seen while polling.
    """
    peak_kb = 0
    start = time.perf_counter()
    code, job = _http(f"{url}/campaigns", data=json.dumps(spec).encode())
    submitted = time.perf_counter()
    if code not in (200, 201):
        raise ServiceFailure(f"submission refused with HTTP {code}")
    digest = job["digest"]
    while True:
        peak_kb = max(peak_kb, _tree_peak_kb(daemon_pid))
        code, status = _http(f"{url}/campaigns/{digest}/status")
        state = status.get("job", {}).get("state") if code == 200 else None
        if state in ("complete", "quarantined"):
            break
        if time.perf_counter() - start > JOB_TIMEOUT:
            raise ServiceFailure(f"job {digest[:12]} still {state} after {JOB_TIMEOUT:.0f}s")
        time.sleep(POLL_INTERVAL)
    return {
        "digest": digest,
        "latency": time.perf_counter() - start,
        "submit_rtt": submitted - start,
        "state": state,
        "stats": status["job"].get("stats") or {},
        "peak_kb": peak_kb,
    }


def _trace_records(trace_dir: str) -> Dict[str, Dict[str, list]]:
    """Daemon and worker span records by campaign digest."""
    by_digest: Dict[str, Dict[str, list]] = defaultdict(lambda: {"daemon": [], "worker": []})
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if record["role"] == "worker":
                    by_digest[record["digest"]]["worker"].append(record)
                    continue
                runs = [e for e in record["events"] if e["name"] == "campaign.run"]
                if runs:
                    by_digest[runs[0]["digest"]]["daemon"].append(record)
    return by_digest


def _job_layers(job: dict, records: Dict[str, list]) -> Dict[str, float]:
    """One traced job's per-layer figures, joined across daemon and workers."""

    def total(role: str, name: str, key: str = "total_s") -> float:
        return sum(r["summary"].get(name, {}).get(key, 0.0) for r in records[role])

    def count(name: str) -> int:
        return sum(r["counts"].get(name, 0) for r in records["worker"])

    events = [e for r in records["daemon"] for e in r["events"]]
    submit = next(e for e in events if e["name"] == "service.submit")
    run = next(e for e in events if e["name"] == "campaign.run")
    kernel_s = total("worker", "geometry.kernel")
    walls = job["shard_walls"]
    wall = job["stats"].get("wall_seconds", 0.0)
    windows = [w for r in records["worker"] for w in r["windows"]]
    layers = {
        "algorithms.program_s": total("worker", "algorithms.program"),
        "motion.compile_s": total("worker", "motion.compile"),
        "motion.rows_compiled": count("motion.rows_compiled"),
        "sim.rounds": count("sim.rounds"),
        "sim.windows": count("sim.windows"),
        "sim.build_windows_s": total("worker", "sim.build_windows"),
        "geometry.kernel_s": kernel_s,
        "geometry.windows_per_s": count("sim.windows") / max(kernel_s, 1e-9),
        "geometry.kernel_bytes_computed": count("geometry.kernel_bytes_computed"),
        "sim.engine_self_s": total("worker", "sim.engine", "self_s"),
        "analysis.sample_s": total("worker", "analysis.sample"),
        "campaign.shard_wall_p50_s": common.median(walls),
        "campaign.shard_wall_max_s": max(walls, default=0.0),
        "campaign.pool_overhead_s": wall - sum(walls) / WORKERS,
        "campaign.worker_busy_share": sum(walls) / (WORKERS * wall) if wall else 0.0,
        "campaign.store_write_s": total("daemon", "campaign.store_write"),
        "campaign.lease_s": total("daemon", "campaign.lease"),
        "service.submit_ms": 1000.0 * (submit["end"] - submit["start"]),
        "service.submit_rtt_ms": 1000.0 * job["submit_rtt"],
        "service.queue_wait_s": run["start"] - submit["end"],
        "service.dispatch_overhead_s": job["latency"] - wall,
    }
    met = sum(r["met"] for r in records["worker"])
    frozen = sum(r["frozen"] for r in records["worker"])
    layers.update(common.window_metrics(windows, met, frozen))
    return layers


def _layers(jobs: List[dict], trace_dir: str) -> Dict[str, float]:
    """Medians over traced jobs; exact counts of the first traced job."""
    records = _trace_records(trace_dir)
    per_job = [_job_layers(job, records[job["digest"]]) for job in jobs if job["traced"]]
    if not per_job:
        return {}
    exact = (
        "motion.rows_compiled", "sim.rounds", "sim.windows", "sim.instances", "sim.met",
        "sim.frozen", "sim.windows_top2pct_share", "sim.windows_p50", "sim.windows_p99",
        "sim.windows_max", "geometry.kernel_bytes_computed",
    )
    metrics = {
        name: per_job[0][name] if name in exact else common.median([j[name] for j in per_job])
        for name in per_job[0]
    }
    metrics["campaign.retries"] = sum(job["stats"].get("shards_retried", 0) for job in jobs)
    plain = [job["latency"] for job in jobs if not job["traced"]]
    traced = [job["latency"] for job in jobs if job["traced"]]
    metrics["service.job_latency_max_s"] = max(plain, default=0.0)
    metrics["trace.overhead_s"] = common.median(traced) - common.median(plain) if plain else 0.0
    return metrics


def run(seed: int, seconds: float, trace: bool, workdir: str, log) -> dict:
    trace_dir = os.path.join(workdir, "trace")
    started = time.perf_counter()
    setups: List[float] = []
    jobs: List[dict] = []
    lost = 0
    k = 0
    index = 0
    while index < MIN_SESSIONS or time.perf_counter() - started < seconds:
        traced = trace and index % 2 == 0
        session = Session(workdir, index, trace_dir if traced else None)
        try:
            url, setup = session.wait_ready()
            setups.append(setup)
            for position in range(JOBS_PER_SESSION):
                spec = job_spec(seed, k)
                k += 1
                job = _run_job(url, spec, session.process.pid)
                job.update(
                    spec=spec, session=index, first=position == 0, traced=traced,
                    service_dir=session.directory,
                )
                jobs.append(job)
                log(
                    f"session {index}{' traced' if traced else ''} job {spec['seed']}: "
                    f"{job['state']} in {job['latency']:.3f}s "
                    f"(submit {1000 * job['submit_rtt']:.1f}ms, "
                    f"run_campaign {job['stats'].get('wall_seconds', 0.0):.3f}s)"
                )
        except ServiceFailure as error:
            log(f"session {index}: FAILED ({error})")
            lost += JOBS_PER_SESSION - sum(job["session"] == index for job in jobs)
        finally:
            session.stop()
        index += 1

    # -- correctness, outside the timed region ---------------------------------
    listing = os.path.join(workdir, "jobs.json")
    with open(listing, "w") as handle:
        json.dump(
            [
                {
                    "service_dir": job["service_dir"],
                    "digest": job["digest"],
                    "spec": job["spec"],
                    "reference": os.path.join(workdir, f"reference-{n}"),
                }
                for n, job in enumerate(jobs)
            ],
            handle,
        )
    verdict, error = common.run_child([VERIFY, listing], timeout=VERIFY_TIMEOUT)
    if verdict is None:
        log(f"verification FAILED ({error})")
        checks = [{"check": None, "identical": False, "shard_walls": []} for _ in jobs]
    else:
        checks = verdict["jobs"]
    failed_jobs = lost
    for job, check in zip(jobs, checks):
        job["shard_walls"] = check["shard_walls"]
        healthy = (
            job["state"] == "complete"
            and job["stats"].get("shards_quarantined", 0) == 0
            and check["check"] == 0
            and check["identical"]
        )
        if not healthy:
            failed_jobs += 1
            log(f"job {job['spec']['seed']}: WRONG ({job['state']}, check {check})")

    result = {
        "attempted": (len(jobs) + lost) * JOB_INSTANCES,
        "failed": failed_jobs * JOB_INSTANCES,
        "correct": failed_jobs == 0,
        "env": verdict["env"] if verdict else None,
    }
    if trace:
        result["metrics"] = _layers(jobs, trace_dir)
        return result
    if not jobs:
        result["metrics"] = {}
        return result
    latencies = [job["latency"] for job in jobs]
    result["metrics"] = {
        "setup_s": common.median(setups),
        "wall_s": common.median(latencies),
        "cold_pass_s": common.median([job["latency"] for job in jobs if job["first"]]),
        "warm_pass_s": common.median([job["latency"] for job in jobs if not job["first"]]),
        "instances_per_s": common.median([JOB_INSTANCES / latency for latency in latencies]),
        "peak_rss_mb": common.median([job["peak_kb"] for job in jobs]) / 1024.0,
    }
    return result
