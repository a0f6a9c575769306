#!/usr/bin/env python3
"""Layered benchmark of the rendezvous simulator: batch, Section 5 sweep, service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

* ``cold-batch``        -- fresh interpreters, one ``simulate_batch`` call each
                           over 1,000 stratified instances (then once more, warm);
* ``section5-sweep``    -- fresh interpreters, each running the same 1,000
                           instances through ``simulate_batch_asymmetric`` at
                           r_b/r_a = 1.0, 0.5, 0.25;
* ``service-campaigns`` -- a ``repro serve --workers 2`` daemon and one
                           closed-loop HTTP client submitting 400-instance
                           campaigns one at a time.

Inputs derive from ``--seed`` alone; each run measures for about ``--seconds``
and checks every output outside the timed region.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a separate traced run.  Metrics of a layer a
workload never enters read 0.

Must be run from a checkout that holds ``src/repro``; refuses to time with
``REPRO_CONTRACTS`` or ``REPRO_OBS`` set to anything but ``off``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cold_pass_s": "s",
    "warm_pass_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "algorithms.program_s": "s",
    "motion.compile_s": "s",
    "motion.rows_compiled": "count",
    "sim.rounds": "count",
    "sim.windows": "count",
    "sim.instances": "count",
    "sim.met": "count",
    "sim.frozen": "count",
    "sim.windows_top2pct_share": "share",
    "sim.windows_p50": "count",
    "sim.windows_p99": "count",
    "sim.windows_max": "count",
    "sim.build_windows_s": "s",
    "geometry.kernel_s": "s",
    "geometry.windows_per_s": "1/s",
    "geometry.kernel_bytes_computed": "B",
    "sim.engine_self_s": "s",
    "analysis.sample_s": "s",
    "campaign.shard_wall_p50_s": "s",
    "campaign.shard_wall_max_s": "s",
    "campaign.pool_overhead_s": "s",
    "campaign.worker_busy_share": "share",
    "campaign.store_write_s": "s",
    "campaign.lease_s": "s",
    "campaign.retries": "count",
    "service.submit_ms": "ms",
    "service.submit_rtt_ms": "ms",
    "service.queue_wait_s": "s",
    "service.dispatch_overhead_s": "s",
    "service.job_latency_max_s": "s",
    "trace.overhead_s": "s",
}

WORKLOADS = ("cold-batch", "section5-sweep", "service-campaigns")


def _log(line: str) -> None:
    print(line, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    for variable in ("REPRO_CONTRACTS", "REPRO_OBS"):
        value = os.environ.get(variable, "off").strip().lower()
        if value not in ("", "off"):
            print(
                f"perfbench: refusing to time with {variable}={value!r}; "
                "checked or instrumented runs do not measure the shipped configuration",
                file=sys.stderr,
            )
            return 2

    os.makedirs(common.WORK_ROOT, exist_ok=True)
    workdir = os.path.join(common.WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    started = time.perf_counter()
    try:
        if args.workload == "service-campaigns":
            import service

            result = service.run(args.seed, args.seconds, bool(args.trace), workdir, _log)
        else:
            import batch

            result = batch.run(args.workload, args.seed, args.seconds, bool(args.trace), _log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(common.WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    names = PER_LAYER if args.trace else END_TO_END
    measured = result["metrics"]
    missing = [name for name in names if name not in measured]
    if not args.trace and missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    attempted = max(int(result["attempted"]), 1)
    failed = int(result["failed"])
    _log(f"environment: {json.dumps(result['env'], sort_keys=True)}")
    _log(
        f"workload {args.workload} seed {args.seed}: {failed}/{attempted} failed "
        f"(failed_fraction {failed / attempted:.6f}), "
        f"{time.perf_counter() - started:.1f}s total"
    )
    metrics = {}
    for name, unit in names.items():
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        _log(f"  {name:<32s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
