#!/usr/bin/env python
"""PERF-ASYM: asymmetric-radius batch engine vs the per-instance event loop.

Writes the machine-readable baseline ``BENCH_asymmetric.json`` and asserts the
PR's acceptance criterion: on a 1,000-instance stratified Section 5 sweep
(250 instances per algorithmic type, radius ratios ``r_b / r_a`` cycling
through 1.0 / 0.75 / 0.5 / 0.25 under the compact-schedule universal
algorithm), :func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric` must
be at least 10x faster than looping
:func:`repro.sim.asymmetric.simulate_asymmetric` per instance (raised from
the first generation's 8x).  The snapshot
also records the met/frozen counts and the per-instance agreement between the
engines, so a perf regression and a parity regression both show up as a JSON
diff.

Usage:
    PYTHONPATH=src python benchmarks/bench_asymmetric.py
        [--output BENCH_asymmetric.json] [--instances-per-type 250]
        [--quick] [--no-threshold] [--skip-event]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone

from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.geometry.backends import get_backend, resolve_kernel_threads
from repro.sim.asymmetric import simulate_asymmetric
from repro.sim.batch_asymmetric import simulate_batch_asymmetric

ALGORITHM = "almost-universal-compact"
MAX_TIME = 1e6
MAX_SEGMENTS = 100_000
RATIOS = (1.0, 0.75, 0.5, 0.25)
SPEEDUP_THRESHOLD = 10.0
TYPE_CLASSES = (
    InstanceClass.TYPE_1,
    InstanceClass.TYPE_2,
    InstanceClass.TYPE_3,
    InstanceClass.TYPE_4,
)


def stratified_sweep(per_type: int):
    """Instances stratified by type, each with a ratio from the cycling grid."""
    sampler = InstanceSampler(seed=7)
    instances = []
    for cls in TYPE_CLASSES:
        instances.extend(sampler.batch_of_class(cls, per_type))
    radii_a = [instance.r for instance in instances]
    radii_b = [
        instance.r * RATIOS[k % len(RATIOS)] for k, instance in enumerate(instances)
    ]
    return instances, radii_a, radii_b


def timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_asymmetric.json")
    parser.add_argument("--instances-per-type", type=int, default=250)
    parser.add_argument(
        "--quick", action="store_true",
        help="25 instances per type (smoke-test the script itself)",
    )
    parser.add_argument(
        "--no-threshold", action="store_true",
        help="measure and snapshot without asserting the 8x criterion",
    )
    parser.add_argument(
        "--skip-event", action="store_true",
        help="only measure the batch engine (no speedup/agreement fields)",
    )
    args = parser.parse_args()
    per_type = 25 if args.quick else args.instances_per_type

    instances, radii_a, radii_b = stratified_sweep(per_type)
    algorithm = get_algorithm(ALGORITHM)
    print(
        f"workload: {len(instances)} stratified instances, ratios {RATIOS}, "
        f"algorithm={ALGORITHM}, max_time={MAX_TIME:g}, max_segments={MAX_SEGMENTS}"
    )

    def run_batch():
        return simulate_batch_asymmetric(
            instances, algorithm, radius_a=radii_a, radius_b=radii_b,
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
        )

    run_batch()  # warm program/phase caches
    timed_runs = [timed(run_batch) for _ in range(3)]
    batch_seconds = min(seconds for seconds, _ in timed_runs)
    batch_outcomes = timed_runs[-1][1]
    print(
        f"asymmetric batch engine : {batch_seconds:.3f}s "
        f"({len(instances) / batch_seconds:,.0f} instances/s)"
    )

    snapshot = {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": {
            "instances": len(instances),
            "stratification": [cls.value for cls in TYPE_CLASSES],
            "radius_ratios": list(RATIOS),
            "algorithm": ALGORITHM,
            "max_time": MAX_TIME,
            "max_segments": MAX_SEGMENTS,
            "seed": 7,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        # The kernel of this measurement (the one numpy kernel, serial
        # chunks), kept so the snapshot schema stays unchanged.
        "kernel": {
            "backend": get_backend(None).name,
            "threads": resolve_kernel_threads(None),
        },
        "batch_engine": {
            "seconds": round(batch_seconds, 4),
            "instances_per_second": round(len(instances) / batch_seconds, 1),
            "met": sum(outcome.met for outcome in batch_outcomes),
            "frozen": sum(
                outcome.frozen_agent is not None for outcome in batch_outcomes
            ),
        },
    }

    speedup = None
    if not args.skip_event:
        def run_event():
            return [
                simulate_asymmetric(
                    instance, algorithm, radius_a=r_a, radius_b=r_b,
                    max_time=MAX_TIME, max_segments=MAX_SEGMENTS,
                )
                for instance, r_a, r_b in zip(instances, radii_a, radii_b)
            ]

        event_seconds, event_outcomes = timed(run_event)
        speedup = event_seconds / batch_seconds
        agreement = sum(
            e.met == b.met and e.frozen_agent == b.frozen_agent
            for e, b in zip(event_outcomes, batch_outcomes)
        )
        snapshot["event_engine"] = {
            "seconds": round(event_seconds, 4),
            "instances_per_second": round(len(instances) / event_seconds, 1),
            "met": sum(outcome.met for outcome in event_outcomes),
            "frozen": sum(
                outcome.frozen_agent is not None for outcome in event_outcomes
            ),
        }
        snapshot["speedup"] = round(speedup, 2)
        snapshot["agreement"] = f"{agreement}/{len(instances)}"
        print(
            f"event engine loop       : {event_seconds:.3f}s "
            f"({len(instances) / event_seconds:,.0f} instances/s)"
        )
        print(
            f"speedup                 : {snapshot['speedup']}x, "
            f"met/frozen agreement {snapshot['agreement']}"
        )

    with open(args.output, "w") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    print(f"[saved] {args.output}")

    if speedup is not None and not args.no_threshold:
        assert speedup >= SPEEDUP_THRESHOLD, (
            f"asymmetric batch engine is only {speedup:.1f}x faster "
            f"(threshold {SPEEDUP_THRESHOLD:.0f}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
