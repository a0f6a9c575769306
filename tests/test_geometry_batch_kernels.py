"""Property tests pinning the numpy batch kernels to the scalar kernels.

The batch kernels are the arithmetic core of the vectorized engine; every
element of a batched call must agree with the scalar function the event
engine uses, or the two engines silently diverge.  Strategies stack several
window problems per example so the segmented layout (not just n=1) is
exercised.  The candidate-only :func:`solve_windows` must also equal the
all-window kernel it replaced (``tests/kernel_oracle.py``) bit for bit, on
edge inputs the scalar comparison never draws.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kernel_oracle
from profiles import DETERMINISM_SETTINGS, QUICK_SETTINGS
from repro.contracts import core as contracts_core
from repro.geometry.closest_approach import (
    closest_approach_batch,
    closest_approach_moving_points,
    first_hit_and_closest_approach,
    first_time_within,
    first_time_within_batch,
    fused_window_batch,
    fused_window_batch_dual,
    solve_windows,
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


# -- candidate-only kernel against the all-window oracle ---------------------------

_EDGE_COMPONENTS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-160,
    1e154, -1e154, 1e300, -1e300, math.inf, -math.inf,
)
_EDGE_MAGNITUDES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-160, 1e154, 1e300, math.inf)

#: Positions and velocities: moderate values, hand-picked edges (subnormal,
#: tiny, squares that overflow, infinite) and the whole float range.
components = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from(_EDGE_COMPONENTS),
    st.floats(allow_nan=False),
)
#: Radii and durations: non-negative, subnormal and infinite included.
magnitudes = st.one_of(
    st.floats(0.0, 20.0),
    st.sampled_from(_EDGE_MAGNITUDES),
    st.floats(min_value=0.0),
)


@st.composite
def _generic_window(draw):
    rel_x, rel_y, rvel_x, rvel_y = (draw(components) for _ in range(4))
    return rel_x, rel_y, rvel_x, rvel_y, draw(magnitudes), draw(magnitudes)


@st.composite
def _static_window(draw):
    zero = st.sampled_from((0.0, -0.0))
    return draw(components), draw(components), draw(zero), draw(zero), draw(magnitudes), draw(magnitudes)


@st.composite
def _inside_window(draw):
    rel_x, rel_y = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    start = math.hypot(rel_x, rel_y)
    radius = draw(st.one_of(
        st.just(start),
        st.just(math.nextafter(start, math.inf)),
        st.just(math.nextafter(start, 0.0)),
        st.floats(start, 2.0 * start + 1.0),
    ))
    return rel_x, rel_y, draw(components), draw(components), radius, draw(magnitudes)


@st.composite
def _tangent_window(draw):
    """A window whose line passes within a few ulps of the radius."""
    radius = draw(st.floats(1e-3, 1e3))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    speed = draw(st.floats(1e-3, 1e3))
    lead = radius * draw(st.floats(0.25, 4.0))  # distance to the closest point
    distance = radius + draw(st.integers(-4, 4)) * math.ulp(radius)
    ux, uy = math.cos(theta), math.sin(theta)
    arrival = lead / speed
    duration = draw(st.one_of(st.just(arrival), st.floats(0.0, 3.0 * arrival)))
    return (
        -distance * uy - lead * ux, distance * ux - lead * uy,
        speed * ux, speed * uy, radius, duration,
    )


@st.composite
def _with_second_radius(draw, window):
    """A window plus a second radius: equal, an ulp away, scaled or free.

    NaN passes the public kernels' sign check, so it is drawn too.
    """
    rel_x, rel_y, rvel_x, rvel_y, radius, duration = draw(window)
    second = draw(st.one_of(
        st.just(radius),
        st.just(math.nextafter(radius, math.inf)),
        st.just(math.nextafter(radius, 0.0)),
        st.floats(0.0, 4.0).map(lambda factor: radius * factor),
        magnitudes,
        st.just(math.nan),
    ))
    return rel_x, rel_y, rvel_x, rvel_y, radius, second, duration


oracle_windows = st.lists(
    _with_second_radius(st.one_of(
        _generic_window(), _static_window(), _inside_window(), _tangent_window()
    )),
    min_size=1,
    max_size=12,
)


def _same_bits(expected, actual):
    """Equal values, NaN positions and sign bits (``None`` matches ``None``)."""
    if expected is None or actual is None:
        return expected is None and actual is None
    return (
        expected.shape == actual.shape
        and np.array_equal(np.isnan(expected), np.isnan(actual))
        and np.array_equal(np.signbit(expected), np.signbit(actual))
        and np.array_equal(expected, actual, equal_nan=True)
    )


class TestCandidateOnlyKernel:
    """``solve_windows`` against the all-window kernel kept in tests/."""

    # No pinned budget: the deep profile's 1,000 draws apply (CI runs this
    # module under it).
    @settings(deadline=None)
    @given(
        oracle_windows,
        st.sampled_from(("single", "same", "equal", "mixed", "swapped")),
        st.booleans(),
    )
    # A lone moving window with <p, v> = 0 has t* = -0.0 before the clip,
    # which numpy's in-place clip of a one-element column leaves negative.
    @example([(1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0)], "single", True)
    # A NaN radius hits nowhere and must not hide the other column's hit.
    @example([(3.0, 0.0, -1.0, 0.0, 1.0, math.nan, 5.0)], "swapped", False)
    def test_matches_all_window_oracle(self, windows, columns, track):
        rel_x, rel_y, rvel_x, rvel_y, radius, second, durations = (
            np.array(column, dtype=float) for column in zip(*windows)
        )
        # "mixed" keeps each window's own second radius, larger or smaller.
        if columns == "single":
            second = None
        elif columns == "same":
            second = radius
        elif columns == "equal":
            second = radius.copy()
        elif columns == "swapped":
            radius, second = second, radius
        inputs = (rel_x, rel_y, rvel_x, rvel_y, radius, second, durations)
        before = [None if column is None else column.copy() for column in inputs]
        # Infinite inputs give infinite closest approaches, which the kernel
        # contracts reject; this property pins the arithmetic alone.
        with contracts_core._override_mode("off"), np.errstate(all="ignore"):
            expected = kernel_oracle.solve_windows(*inputs, track)
            actual = solve_windows(*inputs, track)
        for name, want, got in zip(("hit", "second_hit", "min", "t_star"), expected, actual):
            assert _same_bits(want, got), name
        assert (actual[1] is actual[0]) == (expected[1] is expected[0])
        for column, copy in zip(inputs, before):
            assert column is None or _same_bits(copy, column)


class TestPublicWrapperShapes:
    """0-d inputs and scalar radii keep their shapes through the wrappers."""

    WINDOW = dict(rel_x=3.0, rel_y=0.5, rvel_x=-1.0, rvel_y=0.0, duration=5.0)

    def _scalar(self, radius):
        w = self.WINDOW
        return first_hit_and_closest_approach(
            (0.0, 0.0), (0.0, 0.0), (w["rel_x"], w["rel_y"]),
            (w["rvel_x"], w["rvel_y"]), radius, w["duration"],
        )

    @pytest.mark.parametrize("track", [True, False])
    def test_fused_window_batch_zero_d(self, track):
        w = self.WINDOW
        hit, mins, t_star = fused_window_batch(
            w["rel_x"], w["rel_y"], w["rvel_x"], w["rvel_y"], 1.0, w["duration"],
            track_closest=track,
        )
        scalar_hit, approach = self._scalar(1.0)
        assert isinstance(hit, np.ndarray) and hit.shape == ()
        assert hit == scalar_hit
        if track:
            assert mins.shape == () and t_star.shape == ()
            assert mins == pytest.approx(approach.min_distance, rel=1e-12)
            assert t_star == approach.time_offset
        else:
            assert mins is None and t_star is None

    @pytest.mark.parametrize("track", [True, False])
    def test_fused_window_batch_dual_zero_d(self, track):
        w = self.WINDOW
        hit, hit2, mins, t_star = fused_window_batch_dual(
            w["rel_x"], w["rel_y"], w["rvel_x"], w["rvel_y"], 1.0, 2.0,
            w["duration"], track_closest=track,
        )
        assert hit.shape == () and hit2.shape == ()
        assert hit == self._scalar(1.0)[0]
        assert hit2 == self._scalar(2.0)[0]
        if track:
            assert mins.shape == () and t_star.shape == ()
            assert t_star == self._scalar(1.0)[1].time_offset
        else:
            assert mins is None and t_star is None

    def test_scalar_radii_broadcast_over_columns(self):
        rel_x = np.array([3.0, 10.0, 0.5])
        zeros = np.zeros(3)
        rvel_x = np.array([-1.0, -1.0, 0.0])
        hit, mins, t_star = fused_window_batch(rel_x, zeros, rvel_x, zeros, 1.0, 8.0)
        assert hit.shape == mins.shape == t_star.shape == (3,)
        assert hit[0] == 2.0 and math.isnan(hit[1]) and hit[2] == 0.0
        dual = fused_window_batch_dual(rel_x, zeros, rvel_x, zeros, 1.0, 4.0, 8.0)
        assert all(column.shape == (3,) for column in dual)
        assert np.array_equal(dual[0], hit, equal_nan=True)
        assert np.array_equal(dual[1], [0.0, 6.0, 0.0])

    def test_stacked_wrappers_on_one_window(self):
        pos_a, vel_a, pos_b, vel_b = (0.0, 0.0), (0.0, 0.0), (3.0, 0.5), (-1.0, 0.0)
        hit = first_time_within_batch(pos_a, vel_a, pos_b, vel_b, 1.0, 5.0)
        assert hit.shape == ()
        assert hit == first_time_within(pos_a, vel_a, pos_b, vel_b, 1.0, 5.0)
        # closest_approach_batch solves at the 0.0 radius internally.
        mins, t_star = closest_approach_batch(pos_a, vel_a, pos_b, vel_b, 5.0)
        scalar = closest_approach_moving_points(pos_a, vel_a, pos_b, vel_b, 5.0)
        assert mins.shape == () and t_star.shape == ()
        assert mins == pytest.approx(scalar.min_distance, rel=1e-12)
        assert t_star == scalar.time_offset
        stacked = closest_approach_batch([pos_a], [vel_a], [pos_b], [vel_b], [5.0])
        assert [column.shape for column in stacked] == [(1,), (1,)]
        assert stacked[1][0] == t_star
