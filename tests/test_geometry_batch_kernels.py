"""Property tests pinning the numpy batch kernels to the scalar kernels.

The batch kernels are the arithmetic core of the vectorized engine; every
element of a batched call must agree with the scalar function the event
engine uses, or the two engines silently diverge.  Strategies stack several
window problems per example so the segmented layout (not just n=1) is
exercised.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from profiles import DETERMINISM_SETTINGS, QUICK_SETTINGS
from repro.geometry.closest_approach import (
    closest_approach_batch,
    closest_approach_moving_points,
    first_hit_and_closest_approach,
    first_time_within,
    first_time_within_batch,
    fused_window_batch,
    fused_window_batch_dual,
)

coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
speeds = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)

window_problems = st.lists(
    st.tuples(
        st.tuples(coords, coords),  # pos_a
        st.tuples(speeds, speeds),  # vel_a
        st.tuples(coords, coords),  # pos_b
        st.tuples(speeds, speeds),  # vel_b
        st.floats(0.0, 5.0),        # radius
        st.floats(0.0, 20.0),       # duration
    ),
    min_size=1,
    max_size=8,
)


def _stack(problems):
    pos_a = np.array([p[0] for p in problems])
    vel_a = np.array([p[1] for p in problems])
    pos_b = np.array([p[2] for p in problems])
    vel_b = np.array([p[3] for p in problems])
    radius = np.array([p[4] for p in problems])
    durations = np.array([p[5] for p in problems])
    return pos_a, vel_a, pos_b, vel_b, radius, durations


class TestFirstTimeWithinBatch:
    @DETERMINISM_SETTINGS
    @given(window_problems)
    def test_matches_scalar_elementwise(self, problems):
        pos_a, vel_a, pos_b, vel_b, radius, durations = _stack(problems)
        hits = first_time_within_batch(pos_a, vel_a, pos_b, vel_b, radius, durations)
        for k, problem in enumerate(problems):
            scalar = first_time_within(*problem)
            if scalar is None:
                assert math.isnan(hits[k])
            else:
                assert hits[k] == scalar  # identical arithmetic, identical bits

    def test_scalar_radius_broadcasts(self):
        hits = first_time_within_batch(
            [(0.0, 0.0), (0.0, 0.0)],
            [(0.0, 0.0), (0.0, 0.0)],
            [(10.0, 0.0), (3.0, 0.0)],
            [(-1.0, 0.0), (0.0, 0.0)],
            1.0,
            [100.0, 100.0],
        )
        assert hits[0] == pytest.approx(9.0)
        assert math.isnan(hits[1])


class TestClosestApproachBatch:
    @DETERMINISM_SETTINGS
    @given(window_problems)
    def test_matches_scalar_elementwise(self, problems):
        pos_a, vel_a, pos_b, vel_b, _, durations = _stack(problems)
        min_distance, t_star = closest_approach_batch(
            pos_a, vel_a, pos_b, vel_b, durations
        )
        for k, (pa, va, pb, vb, _r, duration) in enumerate(problems):
            scalar = closest_approach_moving_points(pa, va, pb, vb, duration)
            # math.hypot (correctly rounded) and np.hypot (libm) may differ
            # in the last ulp; everything else is identical arithmetic.
            assert min_distance[k] == pytest.approx(scalar.min_distance, rel=1e-12, abs=1e-12)
            assert t_star[k] == scalar.time_offset


class TestFusedWindowBatch:
    @DETERMINISM_SETTINGS
    @given(window_problems)
    def test_matches_fused_scalar_kernel(self, problems):
        pos_a, vel_a, pos_b, vel_b, radius, durations = _stack(problems)
        rel = pos_b - pos_a
        rel_vel = vel_b - vel_a
        hit, min_distance, t_star = fused_window_batch(
            rel[:, 0], rel[:, 1], rel_vel[:, 0], rel_vel[:, 1], radius, durations
        )
        for k, (pa, va, pb, vb, r, duration) in enumerate(problems):
            scalar_hit, scalar_approach = first_hit_and_closest_approach(
                pa, va, pb, vb, r, duration
            )
            if scalar_hit is None:
                assert math.isnan(hit[k])
            else:
                assert hit[k] == scalar_hit
            assert min_distance[k] == pytest.approx(
                scalar_approach.min_distance, rel=1e-12, abs=1e-12
            )
            assert t_star[k] == scalar_approach.time_offset

    @QUICK_SETTINGS
    @given(window_problems)
    def test_track_closest_false_skips_bookkeeping(self, problems):
        pos_a, vel_a, pos_b, vel_b, radius, durations = _stack(problems)
        rel = pos_b - pos_a
        rel_vel = vel_b - vel_a
        hit, min_distance, t_star = fused_window_batch(
            rel[:, 0], rel[:, 1], rel_vel[:, 0], rel_vel[:, 1], radius, durations,
            track_closest=False,
        )
        assert min_distance is None and t_star is None
        full_hit, _, _ = fused_window_batch(
            rel[:, 0], rel[:, 1], rel_vel[:, 0], rel_vel[:, 1], radius, durations
        )
        assert np.array_equal(hit, full_hit, equal_nan=True)


def _window_spread(count=512, seed=3):
    """Relative-coordinate windows covering hits, misses, statics and grazes."""
    rng = np.random.default_rng(seed)
    rel_x = rng.uniform(-40.0, 40.0, count)
    rel_y = rng.uniform(-40.0, 40.0, count)
    rvel_x = rng.uniform(-4.0, 4.0, count)
    rvel_y = rng.uniform(-4.0, 4.0, count)
    rvel_x[::7] = 0.0  # static relative motion lanes
    rvel_y[::7] = 0.0
    radius = rng.uniform(0.05, 6.0, count)
    radius[::11] = 0.0  # exact-contact lanes
    second = radius * rng.uniform(1.0, 3.0, count)
    durations = rng.uniform(0.0, 30.0, count)
    return rel_x, rel_y, rvel_x, rvel_y, radius, second, durations


def _scalar(rel_x, rel_y, rvel_x, rvel_y, radius, duration):
    """The event engine's fused scalar kernel on one relative window."""
    return first_hit_and_closest_approach(
        (0.0, 0.0), (0.0, 0.0), (rel_x, rel_y), (rvel_x, rvel_y), radius, duration
    )


class TestKernelOnWindowSpread:
    """Both batch kernels against the scalar kernel on a fixed window spread."""

    def test_single_radius_matches_scalar(self):
        rel_x, rel_y, rvel_x, rvel_y, radius, _, durations = _window_spread()
        hit, mins, t_star = fused_window_batch(
            rel_x, rel_y, rvel_x, rvel_y, radius, durations
        )
        for k in range(len(durations)):
            scalar_hit, approach = _scalar(
                rel_x[k], rel_y[k], rvel_x[k], rvel_y[k], radius[k], durations[k]
            )
            if scalar_hit is None:
                assert math.isnan(hit[k])
            else:
                assert hit[k] == scalar_hit
            assert mins[k] == pytest.approx(approach.min_distance, rel=1e-12, abs=1e-12)
            assert t_star[k] == approach.time_offset

    def test_dual_radius_matches_scalar_at_both_radii(self):
        rel_x, rel_y, rvel_x, rvel_y, radius, second, durations = _window_spread()
        hit, hit2, mins, t_star = fused_window_batch_dual(
            rel_x, rel_y, rvel_x, rvel_y, radius, second, durations
        )
        single = fused_window_batch(rel_x, rel_y, rvel_x, rvel_y, radius, durations)
        assert np.array_equal(hit, single[0], equal_nan=True)
        assert np.array_equal(mins, single[1])
        assert np.array_equal(t_star, single[2])
        for k in range(len(durations)):
            scalar_hit2, _ = _scalar(
                rel_x[k], rel_y[k], rvel_x[k], rvel_y[k], second[k], durations[k]
            )
            if scalar_hit2 is None:
                assert math.isnan(hit2[k])
            else:
                assert hit2[k] == scalar_hit2

    def test_dual_radius_verdict_only_mode(self):
        rel_x, rel_y, rvel_x, rvel_y, radius, second, durations = _window_spread(128)
        hit, hit2, mins, t_star = fused_window_batch_dual(
            rel_x, rel_y, rvel_x, rvel_y, radius, second, durations,
            track_closest=False,
        )
        assert mins is None and t_star is None
        full = fused_window_batch_dual(
            rel_x, rel_y, rvel_x, rvel_y, radius, second, durations
        )
        assert np.array_equal(hit, full[0], equal_nan=True)
        assert np.array_equal(hit2, full[1], equal_nan=True)


class TestFusedScalarKernel:
    @DETERMINISM_SETTINGS
    @given(
        st.tuples(coords, coords), st.tuples(speeds, speeds),
        st.tuples(coords, coords), st.tuples(speeds, speeds),
        st.floats(0.0, 5.0), st.floats(0.0, 20.0),
    )
    def test_equals_unfused_pair(self, pos_a, vel_a, pos_b, vel_b, radius, duration):
        hit, approach = first_hit_and_closest_approach(
            pos_a, vel_a, pos_b, vel_b, radius, duration
        )
        assert hit == first_time_within(pos_a, vel_a, pos_b, vel_b, radius, duration)
        unfused = closest_approach_moving_points(pos_a, vel_a, pos_b, vel_b, duration)
        assert approach.min_distance == unfused.min_distance
        assert approach.time_offset == unfused.time_offset

    def test_track_closest_false(self):
        hit, approach = first_hit_and_closest_approach(
            (0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (-1.0, 0.0), 1.0, 100.0,
            track_closest=False,
        )
        assert hit == pytest.approx(9.0)
        assert approach is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            first_hit_and_closest_approach(
                (0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), -1.0, 1.0
            )
        with pytest.raises(ValueError):
            first_hit_and_closest_approach(
                (0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), 1.0, -1.0
            )
