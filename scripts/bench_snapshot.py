#!/usr/bin/env python
"""Write a machine-readable engine-performance baseline (``BENCH_engine.json``).

Runs the standard campaign workload (1,000 stratified float-timebase
instances under the compact-schedule universal algorithm) through the
per-instance event-engine loop and the vectorized batch engine, and records
wall times, instances/sec and the speedup.  Re-run after performance work and
diff the JSON: this file is the start of the repo's perf trajectory.

Usage:
    PYTHONPATH=src python scripts/bench_snapshot.py [--output BENCH_engine.json]
        [--instances-per-type 250] [--quick]
        [--check BENCH_engine.json [--check-min-ratio 0.7]]

``--check`` turns the script into a regression gate: after measuring, the
fresh speedup is compared against the committed baseline snapshot and the
process exits non-zero when it falls below ``check-min-ratio`` times the
baseline's — or when the engines disagree on any verdict.  The *ratio* of the
two engines is what gates (not absolute seconds), so the check is meaningful
on hardware slower or faster than the machine that wrote the baseline; the
tolerance absorbs machine-to-machine spread of the ratio itself (CI runners
vs the baseline box, ``--quick``'s smaller amortization).

``--profile`` additionally records the batch engine's phase breakdown
(``repro.obs`` spans, forced on for that one run regardless of ``REPRO_OBS``)
into the snapshot's ``phase_profile`` field.  ``--check`` refuses to run with
observability on — instrumented runs, however cheap, are not the committed
baseline's configuration — so the two flags gate each other's environments:
the check leg proves ``REPRO_OBS=off`` stays on the baseline numbers, the
profile leg documents where the seconds go.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone

from repro import contracts, obs
from repro.algorithms.registry import get_algorithm
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.geometry.backends import get_backend, resolve_kernel_threads
from repro.sim.batch import simulate_batch
from repro.sim.engine import RendezvousSimulator

ALGORITHM = "almost-universal-compact"
MAX_TIME = 1e6
MAX_SEGMENTS = 100_000
TYPE_CLASSES = (
    InstanceClass.TYPE_1,
    InstanceClass.TYPE_2,
    InstanceClass.TYPE_3,
    InstanceClass.TYPE_4,
)


def stratified_instances(per_type: int):
    sampler = InstanceSampler(seed=7)
    instances = []
    for cls in TYPE_CLASSES:
        instances.extend(sampler.batch_of_class(cls, per_type))
    return instances


def timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument("--instances-per-type", type=int, default=250)
    parser.add_argument(
        "--quick", action="store_true",
        help="25 instances per type (smoke-test the script itself)",
    )
    parser.add_argument(
        "--skip-event", action="store_true",
        help="only measure the batch engine (no speedup field)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare the fresh speedup against this committed snapshot and "
             "exit non-zero on regression (requires the event measurement)",
    )
    parser.add_argument(
        "--check-min-ratio", type=float, default=0.7,
        help="fresh speedup must reach this fraction of the baseline's "
             "(default 0.7; use a smaller value for --quick/CI runners)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="record the batch engine's phase breakdown (repro.obs spans, "
             "forced on for that run) into the snapshot's phase_profile field",
    )
    args = parser.parse_args()
    per_type = 25 if args.quick else args.instances_per_type
    baseline_speedup = None
    if args.check:
        # Validate the baseline up front: a typo'd path or a speedup-less
        # snapshot should fail before the multi-minute measurement, not after.
        if args.skip_event:
            parser.error("--check needs the event measurement; drop --skip-event")
        if contracts.mode() != "off":
            # The committed baselines were measured with contract checking
            # off (the production default); a checked run measures the
            # contracts, not the engine.  This gate is also the bench-smoke
            # proof that REPRO_CONTRACTS=off stays on the baseline numbers.
            parser.error(
                f"--check requires {contracts.MODE_ENV}=off "
                f"(currently {contracts.mode()!r}): contract-checked runs "
                "are not comparable to the committed baseline"
            )
        if obs.mode() != "off":
            # Same reasoning one layer over: the off-mode seam must cost one
            # module-global read, and this gate is where that claim is held
            # to the baseline numbers.
            parser.error(
                f"--check requires {obs.MODE_ENV}=off "
                f"(currently {obs.mode()!r}): instrumented runs are not "
                "comparable to the committed baseline"
            )
        with open(args.check) as handle:
            baseline_speedup = json.load(handle).get("speedup")
        if baseline_speedup is None:
            parser.error(f"--check baseline {args.check} carries no speedup field")

    instances = stratified_instances(per_type)
    print(f"workload: {len(instances)} stratified instances, algorithm={ALGORITHM}, "
          f"max_time={MAX_TIME:g}, max_segments={MAX_SEGMENTS}")

    def run_batch(**kwargs):
        return simulate_batch(
            instances, get_algorithm(ALGORITHM),
            max_time=MAX_TIME, max_segments=MAX_SEGMENTS, **kwargs,
        )

    run_batch()  # warm program/phase caches
    batch_seconds = min(timed(run_batch)[0] for _ in range(3))
    _, batch_results = timed(run_batch)
    verdict_seconds = min(
        timed(run_batch, track_min_distance=False)[0] for _ in range(3)
    )
    print(f"batch engine           : {batch_seconds:.3f}s "
          f"({len(instances) / batch_seconds:,.0f} instances/s)")
    print(f"batch engine (verdict) : {verdict_seconds:.3f}s "
          f"({len(instances) / verdict_seconds:,.0f} instances/s)")

    phase_profile = None
    if args.profile:
        # One extra instrumented run, mode forced on for just this block so
        # the timed measurements above stay off-mode.  Registry totals are
        # reset first so the warm-up runs don't leak into the breakdown.
        from repro.obs import core as obs_core

        obs_core.reset_counters()
        with obs_core._override_mode("on"):
            with obs_core.collect() as bucket:
                profile_seconds, _ = timed(run_batch)
        phase_profile = {
            "seconds": round(profile_seconds, 4),
            "phases": {key: round(value, 6) for key, value in sorted(bucket.items())},
        }
        print(f"phase profile          : {profile_seconds:.3f}s instrumented run")
        for key, value in sorted(bucket.items()):
            print(f"  {key:<22s} {value:9.4f}s  ({100 * value / profile_seconds:5.1f}%)")

    # Campaign mode: the same stratified workload declared as a CampaignSpec
    # and run through the orchestrator into a throwaway store.  Measures what
    # the durability layer costs on top of the raw batch engine (sampling,
    # shard loop, npz writes, manifest fsyncs) — instances are spawn-seeded,
    # i.e. an equivalent workload rather than the identical instance list.
    import shutil
    import tempfile

    from repro.campaign import CampaignArm, CampaignSpec, run_campaign

    campaign_spec = CampaignSpec(
        name="bench-campaign",
        arms=(CampaignArm(algorithm=ALGORITHM),),
        classes=tuple(cls.value for cls in TYPE_CLASSES),
        instances_per_cell=per_type,
        seed=7,
        simulator={"max_time": MAX_TIME, "max_segments": MAX_SEGMENTS},
        shard_size=256,
    )
    campaign_dir = tempfile.mkdtemp(prefix="bench-campaign-")
    try:
        campaign_seconds, campaign_stats = timed(run_campaign, campaign_dir, campaign_spec)
    finally:
        shutil.rmtree(campaign_dir, ignore_errors=True)
    campaign_total = campaign_spec.total_instances
    print(f"campaign mode          : {campaign_seconds:.3f}s "
          f"({campaign_total / campaign_seconds:,.0f} instances/s, "
          f"{campaign_stats.shards_executed} shards, "
          f"{campaign_seconds / batch_seconds:.2f}x the raw batch time)")

    snapshot = {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": {
            "instances": len(instances),
            "stratification": [cls.value for cls in TYPE_CLASSES],
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
        # The kernel the measurement ran under: the one numpy kernel, chunks
        # solved serially.  Kept so every snapshot carries the same schema
        # as the committed baselines.
        "kernel": {
            "backend": get_backend(None).name,
            "threads": resolve_kernel_threads(None),
        },
        # Contract-checking mode of the measurement (see repro.contracts):
        # always "off" for comparable baselines, recorded so a snapshot taken
        # under check/raise can never be mistaken for one.
        "contracts": contracts.mode(),
        # Observability mode of the *timed* runs (see repro.obs): same story
        # as contracts — "off" for comparable baselines.  --profile's
        # instrumented run is a separate, untimed-by-the-baseline pass.
        "obs": obs.mode(),
        "batch_engine": {
            "seconds": round(batch_seconds, 4),
            "instances_per_second": round(len(instances) / batch_seconds, 1),
            "met": sum(r.met for r in batch_results),
        },
        "batch_engine_verdict_only": {
            "seconds": round(verdict_seconds, 4),
            "instances_per_second": round(len(instances) / verdict_seconds, 1),
        },
        "campaign_mode": {
            "seconds": round(campaign_seconds, 4),
            "instances_per_second": round(campaign_total / campaign_seconds, 1),
            "instances": campaign_total,
            "shards": campaign_stats.shards_executed,
            "shard_size": campaign_spec.shard_size,
            "overhead_vs_batch": round(campaign_seconds / batch_seconds, 3),
        },
    }
    if phase_profile is not None:
        snapshot["phase_profile"] = phase_profile

    if not args.skip_event:
        simulator = RendezvousSimulator(max_time=MAX_TIME, max_segments=MAX_SEGMENTS)
        algorithm = get_algorithm(ALGORITHM)

        def run_event():
            return [simulator.run(instance, algorithm) for instance in instances]

        event_seconds, event_results = timed(run_event)
        print(f"event engine loop      : {event_seconds:.3f}s "
              f"({len(instances) / event_seconds:,.0f} instances/s)")
        agreement = sum(
            e.met == b.met for e, b in zip(event_results, batch_results)
        )
        snapshot["event_engine"] = {
            "seconds": round(event_seconds, 4),
            "instances_per_second": round(len(instances) / event_seconds, 1),
            "met": sum(r.met for r in event_results),
        }
        snapshot["speedup"] = round(event_seconds / batch_seconds, 2)
        snapshot["speedup_verdict_only"] = round(event_seconds / verdict_seconds, 2)
        snapshot["met_agreement"] = f"{agreement}/{len(instances)}"
        print(f"speedup                : {snapshot['speedup']}x "
              f"(verdict-only {snapshot['speedup_verdict_only']}x), "
              f"met agreement {snapshot['met_agreement']}")

    with open(args.output, "w") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    print(f"[saved] {args.output}")

    if args.check:
        floor = baseline_speedup * args.check_min_ratio
        fresh = snapshot["speedup"]
        print(
            f"[check] fresh {fresh:.2f}x vs baseline {baseline_speedup:.2f}x "
            f"(floor {floor:.2f}x = {args.check_min_ratio:g} * baseline)"
        )
        if agreement != len(instances):
            print(f"[check] FAIL: engines disagree ({agreement}/{len(instances)} met)")
            return 1
        if fresh < floor:
            print("[check] FAIL: speedup regression")
            return 1
        print("[check] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
