"""One unit of the batch workloads, run in a fresh interpreter.

    python3 perfbench/batch_unit.py --workload cold-batch|section5-sweep \\
        --seed N --list I [--trace]

Samples the I-th list of 1,000 stratified instances of seed N, times the
workload's passes over it, then checks the results outside the timed region
and prints one JSON line.

* ``cold-batch``: ``simulate_batch`` twice on the list -- the first call is
  the one-shot cold path, the second the warm path on the same instances.
* ``section5-sweep``: ``simulate_batch_asymmetric`` at r_b/r_a = 1.0, 0.5,
  0.25 in turn; the first pass is cold, the later ones reuse the caches.

Checks: the warm call repeats the cold call bit for bit; the ratio-1.0 pass
repeats ``simulate_batch``'s verdicts and meeting times exactly (the engines
degenerate exactly); and on a seeded subset the event engine agrees on
verdict, termination, freeze and meeting time (1e-9 relative).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Instances of each list re-simulated by the event engine.  Only instances
#: the batch engine resolved within CHECK_MAX_WINDOWS windows are eligible,
#: which keeps the per-instance event loop's cost bounded.
CHECK_INSTANCES = 4
CHECK_MAX_WINDOWS = 20_000
RELATIVE_TOLERANCE = 1e-9


def _result(item):
    return getattr(item, "result", item)  # an AsymmetricOutcome wraps one


def _bits(item):
    """Every deterministic output field of one simulation."""
    result = _result(item)
    return (
        result.met,
        result.termination,
        result.meeting_time,
        result.min_distance,
        result.simulated_time,
        result.segments_a,
        result.segments_b,
        result.windows_processed,
        getattr(item, "frozen_agent", None),
        getattr(item, "freeze_time", None),
    )


def _verdict(item):
    result = _result(item)
    return result.met, result.termination, result.meeting_time


def _agrees(batch_item, event_item) -> bool:
    """Batch and event engine agree on one instance."""
    ours, theirs = _result(batch_item), _result(event_item)
    if (ours.met, ours.termination) != (theirs.met, theirs.termination):
        return False
    if getattr(batch_item, "frozen_agent", None) != getattr(event_item, "frozen_agent", None):
        return False
    if not ours.met:
        return True
    scale = max(1.0, abs(theirs.meeting_time))
    return abs(ours.meeting_time - theirs.meeting_time) <= RELATIVE_TOLERANCE * scale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold-batch", "section5-sweep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--list", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import numpy as np

    from repro.algorithms.registry import get_algorithm
    from repro.motion import compiler
    from repro.sim import batch, batch_asymmetric
    from repro.sim.asymmetric import simulate_asymmetric
    from repro.sim.engine import RendezvousSimulator

    instances = common.stratified_instances(args.seed, args.list)
    algorithm = get_algorithm(common.ALGORITHM)
    budgets = {"max_time": common.MAX_TIME, "max_segments": common.MAX_SEGMENTS}
    radii = [instance.r for instance in instances]
    ready = time.perf_counter()

    if args.workload == "cold-batch":
        calls = [lambda: batch.simulate_batch(instances, algorithm, **budgets)] * 2
    else:
        calls = [
            functools.partial(
                batch_asymmetric.simulate_batch_asymmetric,
                instances,
                algorithm,
                radius_a=radii,
                radius_b=[r * ratio for r in radii],
                **budgets,
            )
            for ratio in common.RATIOS
        ]
    # The unit's wall time (and its trace) covers the one-shot call of
    # cold-batch and the whole sweep of section5-sweep.
    wall_passes = 1 if args.workload == "cold-batch" else len(calls)
    passes, rows, outputs, trace = [], [], [], None
    for call in calls:
        before = compiler.rows_compiled_total()
        start = time.perf_counter()
        outputs.append(call())
        passes.append(time.perf_counter() - start)
        rows.append(compiler.rows_compiled_total() - before)
        if tracer is not None and len(passes) == wall_passes:
            trace = tracer.record()

    # -- correctness, outside the timed region ---------------------------------
    bad = set()
    if args.workload == "cold-batch":
        for k, (cold, warm) in enumerate(zip(*outputs)):
            if _bits(cold) != _bits(warm):
                bad.add(k)
    else:
        symmetric = batch.simulate_batch(instances, algorithm, **budgets)
        for k, (outcome, result) in enumerate(zip(outputs[0], symmetric)):
            if _verdict(outcome) != _verdict(result):
                bad.add(k)

    rng = np.random.default_rng([args.seed, args.list])
    subset = [
        k
        for k in rng.permutation(len(instances)).tolist()
        if max(_result(output[k]).windows_processed for output in outputs)
        <= CHECK_MAX_WINDOWS
    ][:CHECK_INSTANCES]
    event = RendezvousSimulator(**budgets)
    for k in subset:
        instance = instances[k]
        if args.workload == "cold-batch":
            pairs = [(outputs[0][k], event.run(instance, algorithm))]
        else:
            pairs = [
                (
                    output[k],
                    simulate_asymmetric(
                        instance, algorithm, radius_a=radii[k],
                        radius_b=radii[k] * ratio, **budgets,
                    ),
                )
                for ratio, output in zip(common.RATIOS, outputs)
            ]
        if not all(_agrees(ours, theirs) for ours, theirs in pairs):
            bad.add(k)

    print(
        json.dumps(
            {
                "ready": ready,
                "instances": len(instances),
                "passes": passes,
                "wall_passes": wall_passes,
                "rows_compiled": rows,
                "failed": len(bad),
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "env": common.environment(),
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
