"""PERF-SIM: raw simulator and kernel throughput.

These are the only benchmarks measuring *speed* rather than regenerating an
experiment: the closest-approach kernel, the trajectory compiler, the engine's
window loop under the two timebases, and the segment-count growth of
``PlanarCowWalk`` across phases (the quantity that dictates which phases of
Algorithm 1 are simulatable at all).
"""

import math

import pytest

from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.cow_walk import (
    planar_cow_walk,
    planar_cow_walk_columns,
    planar_cow_walk_segment_count,
)
from repro.core.instance import Instance
from repro.geometry.closest_approach import first_time_within
from repro.motion.compiler import compile_trajectory
from repro.sim.engine import RendezvousSimulator


def test_closest_approach_kernel(benchmark):
    """One million quadratic first-hit solves per second is the ballpark."""

    def run():
        total = 0.0
        for k in range(1000):
            hit = first_time_within(
                (0.0, 0.0), (1.0, 0.1), (10.0 + k * 0.01, 5.0), (-1.0, -0.4), 0.5, 50.0
            )
            if hit is not None:
                total += hit
        return total

    assert benchmark(run) > 0.0


def test_trajectory_compiler_throughput(benchmark):
    """Compile PlanarCowWalk(4) (~6.7k segments) through a non-trivial frame."""
    instance = Instance(r=0.5, x=1.0, y=1.0, phi=1.0, tau=2.0, v=0.5, t=1.0, chi=-1)
    spec = instance.agent_b()

    def run():
        return sum(1 for _ in compile_trajectory(spec, [planar_cow_walk_columns(4)]))

    # One extra segment: the pre-wake sleep (the agent wakes at t = 1).
    assert benchmark(run) == planar_cow_walk_segment_count(4) + 1


@pytest.mark.parametrize("timebase", ["float", "exact"])
def test_engine_window_loop(benchmark, timebase):
    """Engine throughput on an infeasible instance (pure window processing)."""
    instance = Instance(r=0.25, x=50.0, y=0.0, t=0.1)
    simulator = RendezvousSimulator(
        max_time=1e9, max_segments=30_000, timebase=timebase
    )
    algorithm = AlmostUniversalRV()

    def run():
        return simulator.run(instance, algorithm)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert not result.met
    benchmark.extra_info["segments_processed"] = result.segments_total
    benchmark.extra_info["windows"] = result.windows_processed


@pytest.mark.parametrize("phase", [1, 2, 3, 4])
def test_planar_cow_walk_segment_growth(benchmark, phase):
    """Segment count per PlanarCowWalk phase (the Algorithm 1 cost driver)."""

    def run():
        return sum(1 for _ in planar_cow_walk(phase))

    count = benchmark(run)
    assert count == planar_cow_walk_segment_count(phase)
    benchmark.extra_info["segments"] = count
