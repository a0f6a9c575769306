"""Shared pieces of the benchmark: paths, workload inputs, child processes, statistics."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BOOT = os.path.join(BENCH_DIR, "boot")
#: Scratch space of the running benchmark, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# The standard Monte-Carlo workload of BENCH_engine.json / BENCH_asymmetric.json.
ALGORITHM = "almost-universal-compact"
MAX_TIME = 1e6
MAX_SEGMENTS = 100_000
PER_TYPE = 250
TYPE_CLASSES = ("type-1", "type-2", "type-3", "type-4")
#: Section 5 radius ratios r_b / r_a, in the order experiments/section5.py runs them.
RATIOS = (1.0, 0.5, 0.25)


def stratified_instances(seed: int, index: int) -> list:
    """The ``index``-th list of a seed: 250 instances of each algorithmic type.

    List 0 of seed 7 is exactly the instance list of ``BENCH_engine.json``.
    Needs ``repro`` importable.
    """
    from repro.analysis.sampler import InstanceSampler
    from repro.core.classification import InstanceClass

    sampler = InstanceSampler(seed=seed if index == 0 else [seed, index])
    instances = []
    for name in TYPE_CLASSES:
        instances.extend(sampler.batch_of_class(InstanceClass(name), PER_TYPE))
    return instances


def child_env(*, boot: bool = False, **extra: str) -> Dict[str, str]:
    """Environment of a child interpreter: the checkout's ``src`` on the path.

    ``boot`` also puts ``boot/`` on the path, whose ``sitecustomize`` installs
    the tracing wrappers when ``PERFBENCH_TRACE_DIR`` is set.
    """
    env = dict(os.environ)
    paths = [BOOT, SRC] if boot else [SRC]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CONTRACTS"] = "off"
    env["REPRO_OBS"] = "off"
    env["TMPDIR"] = WORK_ROOT
    # Imports read cached bytecode (written into the checkout's __pycache__
    # by the first unit), as they would from an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(extra)
    return env


def run_child(argv: Sequence[str], *, timeout: float):
    """Run a Python child to completion; return its last stdout line as JSON.

    Returns ``(payload, error)``: the payload is ``None`` when the child failed,
    with ``error`` saying why.
    """
    try:
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f}s"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"unparsable output: {lines[-1][:200]}"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def top_share(windows: Sequence[int], fraction: float = 0.02) -> float:
    """Share of all windows carried by the top ``fraction`` of instances."""
    if not windows:
        return 0.0
    ordered = sorted(windows, reverse=True)
    top = max(1, round(len(ordered) * fraction))
    total = sum(ordered)
    return sum(ordered[:top]) / total if total else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def window_metrics(windows: List[int], met: int, frozen: int) -> Dict[str, float]:
    """Exact per-instance work counts of one unit of work."""
    return {
        "sim.instances": len(windows),
        "sim.met": met,
        "sim.frozen": frozen,
        "sim.windows_top2pct_share": top_share(windows),
        "sim.windows_p50": percentile(windows, 50),
        "sim.windows_p99": percentile(windows, 99),
        "sim.windows_max": max(windows) if windows else 0,
    }


def environment() -> Dict[str, Any]:
    """What a result depends on besides the code (needs ``repro`` importable)."""
    import platform

    import numpy

    from repro.geometry.backends import get_backend, resolve_kernel_threads

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_backend(None).name,
        "kernel_threads": resolve_kernel_threads(None),
    }
