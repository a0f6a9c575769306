"""The ``cold-batch`` and ``section5-sweep`` workloads (parent side).

Each unit is one fresh interpreter (``batch_unit.py``) on its own list of
1,000 stratified instances: list 0, 1, 2, ... of the seed, until the run's
time is up.  Spreading a run over several lists keeps the heavy tail of any
one list (a few budget-exhausted instances carry most windows) from setting
the figures alone.  Medians are taken over units.

A traced run measures every list twice -- untraced, then traced -- so the
per-layer figures come with their own tracing overhead.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional

import common

UNIT = os.path.join(common.BENCH_DIR, "batch_unit.py")
MIN_LISTS = 2
UNIT_TIMEOUT = 90.0
PASSES = {"cold-batch": 2, "section5-sweep": len(common.RATIOS)}


def _run_unit(workload: str, seed: int, index: int, traced: bool, log) -> Optional[dict]:
    argv = [UNIT, "--workload", workload, "--seed", str(seed), "--list", str(index)]
    if traced:
        argv.append("--trace")
    label = f"list {index}{' traced' if traced else ''}"
    spawned = time.perf_counter()
    unit, error = common.run_child(argv, timeout=UNIT_TIMEOUT)
    if unit is None:
        log(f"{label}: FAILED ({error})")
        return None
    unit["index"] = index
    unit["setup"] = unit["ready"] - spawned
    unit["wall"] = sum(unit["passes"][: unit["wall_passes"]])
    passes = " ".join(f"{seconds:.3f}" for seconds in unit["passes"])
    log(
        f"{label}: setup {unit['setup']:.3f}s, passes [{passes}] s, "
        f"rows compiled {unit['rows_compiled']}, failed {unit['failed']}"
    )
    return unit


def _layers(units: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: medians of times over units, exact counts of list 0."""

    def med(key: Callable[[dict], float]) -> float:
        return common.median([key(unit) for unit in units])

    def total(unit: dict, name: str) -> float:
        return unit["trace"]["summary"].get(name, {}).get("total_s", 0.0)

    first = min(units, key=lambda unit: unit["index"])
    counts = first["trace"]["counts"]
    metrics = {
        "algorithms.program_s": med(lambda u: total(u, "algorithms.program")),
        "motion.compile_s": med(lambda u: total(u, "motion.compile")),
        "motion.rows_compiled": sum(first["rows_compiled"][: first["wall_passes"]]),
        "sim.rounds": counts.get("sim.rounds", 0),
        "sim.windows": counts.get("sim.windows", 0),
        "sim.build_windows_s": med(lambda u: total(u, "sim.build_windows")),
        "geometry.kernel_s": med(lambda u: total(u, "geometry.kernel")),
        "geometry.windows_per_s": med(
            lambda u: u["trace"]["counts"].get("sim.windows", 0)
            / max(total(u, "geometry.kernel"), 1e-9)
        ),
        "geometry.kernel_bytes_computed": counts.get("geometry.kernel_bytes_computed", 0),
        "sim.engine_self_s": med(
            lambda u: u["trace"]["summary"].get("sim.engine", {}).get("self_s", 0.0)
        ),
        "analysis.sample_s": med(lambda u: total(u, "analysis.sample")),
    }
    trace = first["trace"]
    metrics.update(common.window_metrics(trace["windows"], trace["met"], trace["frozen"]))
    plain = {unit["index"]: unit["wall"] for unit in untraced}
    paired = [unit["wall"] - plain[unit["index"]] for unit in units if unit["index"] in plain]
    metrics["trace.overhead_s"] = common.median(paired)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    started = time.perf_counter()
    untraced: List[dict] = []
    traced: List[dict] = []
    lost = 0
    index = 0
    while index < MIN_LISTS or time.perf_counter() - started < seconds:
        for tracing in (False, True) if trace else (False,):
            unit = _run_unit(workload, seed, index, tracing, log)
            if unit is None:
                lost += 1
            else:
                (traced if tracing else untraced).append(unit)
        index += 1

    per_unit = common.PER_TYPE * len(common.TYPE_CLASSES) * PASSES[workload]
    units = untraced + traced
    attempted = sum(unit["instances"] * len(unit["passes"]) for unit in units)
    attempted += lost * per_unit
    failed = sum(unit["failed"] for unit in units) + lost * per_unit
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and lost == 0,
        "env": units[0]["env"] if units else None,
    }
    if trace:
        result["metrics"] = _layers(traced, untraced) if traced else {}
        return result
    if not untraced:
        result["metrics"] = {}
        return result
    result["metrics"] = {
        "setup_s": common.median([unit["setup"] for unit in untraced]),
        "wall_s": common.median([unit["wall"] for unit in untraced]),
        "cold_pass_s": common.median([unit["passes"][0] for unit in untraced]),
        "warm_pass_s": common.median(
            [seconds for unit in untraced for seconds in unit["passes"][1:]]
        ),
        "instances_per_s": common.median(
            [unit["instances"] * unit["wall_passes"] / unit["wall"] for unit in untraced]
        ),
        "peak_rss_mb": common.median([unit["rss_kb"] for unit in untraced]) / 1024.0,
    }
    return result
