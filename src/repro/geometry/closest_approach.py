"""Closest approach of two uniformly moving points.

Rendezvous occurs at the *first* instant the two agents are at distance at
most ``r``.  Between consecutive trajectory events both agents move with
constant (possibly zero) velocity, so their relative position is an affine
function of time and the squared distance is a quadratic.  Finding the first
time the distance drops to ``r`` therefore reduces to solving one quadratic
per overlapping segment pair — this module implements that kernel and a few
derived conveniences.

All computations are on plain floats; the durations handed in by the engine
are *offsets from the start of the overlap window*, which stay small even when
absolute simulation times are astronomically large (the exact timebase keeps
the absolute times as ``Fraction``).

Two flavours of the kernel exist:

* the scalar functions used by the event engine, including the fused
  :func:`first_hit_and_closest_approach` which answers both questions of one
  window (first hit? closest approach?) from a single set of dot products;
* the batch kernels (:func:`first_time_within_batch`,
  :func:`closest_approach_batch`, :func:`fused_window_batch`) used by the
  vectorized batch engine, which solve the quadratics of *all* windows of a
  simulation — or of many stacked simulations — in single array operations.
  Their element-wise math is plain numpy (:func:`solve_windows`), which
  mirrors the scalar kernels operation for operation; with contract checking
  enabled every call also runs the declared kernel contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_kernel_solution
from repro.geometry.vec import Vec2, dot, norm, sub


@dataclass(frozen=True)
class ClosestApproach:
    """Result of a closest-approach computation over a time window.

    Attributes
    ----------
    min_distance:
        The minimum distance achieved over the window.
    time_offset:
        The offset (from the window start) at which the minimum is achieved.
    """

    min_distance: float
    time_offset: float


def _relative_motion(
    pos_a: Vec2, vel_a: Vec2, pos_b: Vec2, vel_b: Vec2
) -> tuple[Vec2, Vec2]:
    """Return the relative position and velocity ``(b - a)``."""
    return sub(pos_b, pos_a), sub(vel_b, vel_a)


def closest_approach_moving_points(
    pos_a: Vec2,
    vel_a: Vec2,
    pos_b: Vec2,
    vel_b: Vec2,
    duration: float,
) -> ClosestApproach:
    """Minimum distance between two uniformly moving points over ``[0, duration]``.

    ``pos_*`` are the positions at offset 0 and ``vel_*`` the constant
    velocities.  ``duration`` may be 0 (both points static for an instant).
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    rel_pos, rel_vel = _relative_motion(pos_a, vel_a, pos_b, vel_b)
    speed_sq = dot(rel_vel, rel_vel)
    if speed_sq == 0.0:
        return ClosestApproach(norm(rel_pos), 0.0)
    # d(t)^2 = |rel_pos + t rel_vel|^2 is minimized at t* = -<p, v>/|v|^2.
    t_star = -dot(rel_pos, rel_vel) / speed_sq
    t_star = min(duration, max(0.0, t_star))
    at_star = (rel_pos[0] + t_star * rel_vel[0], rel_pos[1] + t_star * rel_vel[1])
    return ClosestApproach(norm(at_star), t_star)


def first_time_within(
    pos_a: Vec2,
    vel_a: Vec2,
    pos_b: Vec2,
    vel_b: Vec2,
    radius: float,
    duration: float,
) -> Optional[float]:
    """First offset in ``[0, duration]`` at which the distance is ``<= radius``.

    Returns ``None`` when the points never come within ``radius`` of each
    other during the window.  The returned offset is exact up to floating
    point: it is the smaller root of the quadratic
    ``|rel_pos + t * rel_vel|^2 = radius^2`` clamped to the window.
    """
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    rel_pos, rel_vel = _relative_motion(pos_a, vel_a, pos_b, vel_b)
    c = dot(rel_pos, rel_pos) - radius * radius
    if c <= 0.0:
        return 0.0
    a = dot(rel_vel, rel_vel)
    b = 2.0 * dot(rel_pos, rel_vel)
    if a == 0.0:
        # Relative position is constant and outside the radius.
        return None
    # Quadratic a t^2 + b t + c = 0 with a > 0, c > 0: we need the smaller
    # positive root, which exists iff the discriminant is non-negative and
    # b < 0 (the points are approaching).
    disc = b * b - 4.0 * a * c
    if disc < 0.0 or b >= 0.0:
        return None
    sqrt_disc = math.sqrt(disc)
    # Numerically stable smaller root for b < 0: 2c / (-b + sqrt_disc).
    t_hit = (2.0 * c) / (-b + sqrt_disc)
    if t_hit > duration:
        return None
    return max(0.0, t_hit)


def first_time_within_segment_pair(
    start_a: Vec2,
    end_a: Vec2,
    start_b: Vec2,
    end_b: Vec2,
    radius: float,
    duration: float,
) -> Optional[float]:
    """Same as :func:`first_time_within` but for endpoint-parametrized motion.

    Both points move from their start to their end position at constant speed
    over exactly ``duration`` time units (a zero duration means a static
    snapshot).  Useful when trajectories are given as synchronized polylines.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    if duration == 0.0:
        rel = sub(start_b, start_a)
        return 0.0 if norm(rel) <= radius else None
    vel_a = ((end_a[0] - start_a[0]) / duration, (end_a[1] - start_a[1]) / duration)
    vel_b = ((end_b[0] - start_b[0]) / duration, (end_b[1] - start_b[1]) / duration)
    return first_time_within(start_a, vel_a, start_b, vel_b, radius, duration)


def min_distance_over_window(
    pos_a: Vec2,
    vel_a: Vec2,
    pos_b: Vec2,
    vel_b: Vec2,
    duration: float,
) -> float:
    """Convenience wrapper returning only the minimum distance of the window."""
    return closest_approach_moving_points(pos_a, vel_a, pos_b, vel_b, duration).min_distance


def first_hit_and_closest_approach(
    pos_a: Vec2,
    vel_a: Vec2,
    pos_b: Vec2,
    vel_b: Vec2,
    radius: float,
    duration: float,
    *,
    track_closest: bool = True,
) -> Tuple[Optional[float], Optional[ClosestApproach]]:
    """Fused window kernel: first hit offset and closest approach in one pass.

    Equivalent to calling :func:`first_time_within` and
    :func:`closest_approach_moving_points` with the same arguments, but the
    relative position/velocity and the shared dot products are computed once.
    With ``track_closest=False`` the closest-approach half is skipped entirely
    (the second element is ``None``) — for campaigns that only need the
    verdict the bookkeeping is pure overhead.
    """
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    rel_pos, rel_vel = _relative_motion(pos_a, vel_a, pos_b, vel_b)
    speed_sq = dot(rel_vel, rel_vel)
    dot_pv = dot(rel_pos, rel_vel)
    c = dot(rel_pos, rel_pos) - radius * radius

    # -- first hit (same branch structure as first_time_within) ------------------
    hit: Optional[float]
    if c <= 0.0:
        hit = 0.0
    elif speed_sq == 0.0:
        hit = None
    else:
        b = 2.0 * dot_pv
        disc = b * b - 4.0 * speed_sq * c
        if disc < 0.0 or b >= 0.0:
            hit = None
        else:
            t_hit = (2.0 * c) / (-b + math.sqrt(disc))
            hit = None if t_hit > duration else max(0.0, t_hit)

    if not track_closest:
        return hit, None

    # -- closest approach (same arithmetic as closest_approach_moving_points) ----
    if speed_sq == 0.0:
        return hit, ClosestApproach(norm(rel_pos), 0.0)
    t_star = -dot_pv / speed_sq
    t_star = min(duration, max(0.0, t_star))
    at_star = (rel_pos[0] + t_star * rel_vel[0], rel_pos[1] + t_star * rel_vel[1])
    return hit, ClosestApproach(norm(at_star), t_star)


# -- numpy batch kernels -----------------------------------------------------------


def _relative_arrays(pos_a, vel_a, pos_b, vel_b):
    """Split ``(n, 2)`` position/velocity arrays into relative components."""
    pos_a = np.asarray(pos_a, dtype=float)
    vel_a = np.asarray(vel_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    vel_b = np.asarray(vel_b, dtype=float)
    rel = pos_b - pos_a
    rel_vel = vel_b - vel_a
    return rel[..., 0], rel[..., 1], rel_vel[..., 0], rel_vel[..., 1]


def _first_hit_columns(speed_sq, dot_pv, rel_x, rel_y, radius, durations):
    """First-hit offsets from precomputed dot products, one radius column.

    In-place ufuncs reuse temporaries where the value is no longer needed;
    every element still goes through exactly the scalar kernel's float
    operations, so verdicts stay bit-identical to the event engine.
    """
    c = rel_x * rel_x
    c += rel_y * rel_y
    c -= radius * radius
    inside = c <= 0.0
    b = 2.0 * dot_pv
    disc = b * b
    disc -= 4.0 * speed_sq * c
    approaching = ~inside
    approaching &= speed_sq > 0.0
    approaching &= b < 0.0
    approaching &= disc >= 0.0
    # Guard the sqrt/division on non-candidate windows; the formula matches
    # the numerically stable smaller root of the scalar kernel.
    safe_disc = np.where(approaching, disc, 0.0)
    np.sqrt(safe_disc, out=safe_disc)
    safe_disc -= b
    denominator = np.where(approaching, safe_disc, 1.0)
    t_hit = 2.0 * c
    t_hit /= denominator
    hit = np.where(
        approaching & (t_hit <= durations), np.maximum(t_hit, 0.0), np.nan
    )
    return np.where(inside, 0.0, hit)


def _closest_columns(speed_sq, dot_pv, rel_x, rel_y, rvel_x, rvel_y, durations):
    """Closest-approach half of the fused kernel, from precomputed dots.

    ``sqrt(x*x + y*y)`` stands in for ``hypot`` — a couple of ulps apart
    at these (overflow-safe) magnitudes, far inside both the kernel
    suite's 1e-12 and the engines' 1e-9 parity tolerances, and several
    times faster than libm's hypot.
    """
    safe_speed_sq = np.where(speed_sq > 0.0, speed_sq, 1.0)
    t_star = np.where(speed_sq > 0.0, -dot_pv / safe_speed_sq, 0.0)
    t_star = np.clip(t_star, 0.0, durations)
    at_x = t_star * rvel_x
    at_x += rel_x
    at_y = t_star * rvel_y
    at_y += rel_y
    at_x *= at_x
    at_y *= at_y
    at_x += at_y
    min_distance = np.sqrt(at_x, out=at_x)
    return min_distance, t_star


def solve_windows(
    rel_x, rel_y, rvel_x, rvel_y, radius, second_radius, durations, track_closest
):
    """The fused kernel's element-wise math over validated float columns.

    Returns ``(hit, second_hit, min_distance, t_star)``: ``hit`` holds
    first-hit offsets at ``radius`` with ``NaN`` where the window never
    reaches it; ``second_hit`` answers the same for ``second_radius``
    (``None`` when no second column was given); ``min_distance``/``t_star``
    are the per-window closest approach (``None`` when untracked).  Inputs
    are assumed validated by the public entry points below: non-negative
    radii and durations, same-length columns.  With contract checking
    enabled, the kernel contracts (``kernel.min_distance_nonneg``,
    ``kernel.min_leq_endpoints``, ``kernel.hit_within_window``) run on every
    call.
    """
    speed_sq = rvel_x * rvel_x + rvel_y * rvel_y
    dot_pv = rel_x * rvel_x + rel_y * rvel_y
    hit = _first_hit_columns(speed_sq, dot_pv, rel_x, rel_y, radius, durations)
    second_hit = None
    if second_radius is not None:
        if second_radius is radius or np.array_equal(radius, second_radius):
            # Equal columns (degenerate equal-radius sweeps, post-freeze
            # rounds of the asymmetric engine) answer both questions with
            # one root extraction; the equality check is a cheap pass.
            second_hit = hit
        else:
            second_hit = _first_hit_columns(
                speed_sq, dot_pv, rel_x, rel_y, second_radius, durations
            )
    min_distance = t_star = None
    if track_closest:
        min_distance, t_star = _closest_columns(
            speed_sq, dot_pv, rel_x, rel_y, rvel_x, rvel_y, durations
        )
    if _contracts.enabled():
        check_kernel_solution(
            hit, second_hit, min_distance, t_star,
            rel_x, rel_y, rvel_x, rvel_y, durations,
        )
    return hit, second_hit, min_distance, t_star


def fused_window_batch(
    rel_x: np.ndarray,
    rel_y: np.ndarray,
    rvel_x: np.ndarray,
    rvel_y: np.ndarray,
    radius,
    durations: np.ndarray,
    *,
    track_closest: bool = True,
):
    """Solve the quadratics of many windows at once, on relative coordinates.

    Parameters are parallel arrays over windows: the relative position
    ``(b - a)`` at the window start (absolute length units), the relative
    velocity (length per absolute time unit), the visibility radius (scalar
    or per-window array — windows of different instances can carry different
    radii), and the window durations (absolute time units; all times here are
    *offsets from the window start*, which stay small even when absolute
    simulation times are astronomically large).

    Returns ``(hit, min_distance, time_offset)``: ``hit`` holds the first
    offset at which the distance is ``<= radius`` and ``NaN`` where the window
    never comes within the radius (the vectorized analogue of ``None``);
    ``min_distance``/``time_offset`` mirror :class:`ClosestApproach` per
    window, or are ``None`` when ``track_closest`` is false.  The arithmetic
    matches the scalar kernels operation for operation, so verdicts agree
    with the event engine exactly on identical window inputs — the batch
    engines' 1e-9 parity tolerance absorbs only the accumulation differences
    upstream of the kernel.
    """
    rel_x = np.asarray(rel_x, dtype=float)
    rel_y = np.asarray(rel_y, dtype=float)
    rvel_x = np.asarray(rvel_x, dtype=float)
    rvel_y = np.asarray(rvel_y, dtype=float)
    durations = np.asarray(durations, dtype=float)
    radius = np.asarray(radius, dtype=float)
    # Same contract as the scalar kernels: surface sign bugs instead of
    # silently squaring them away.
    if np.any(radius < 0.0):
        raise ValueError("radius must be non-negative")
    if np.any(durations < 0.0):
        raise ValueError("durations must be non-negative")

    hit, _, min_distance, t_star = solve_windows(
        rel_x, rel_y, rvel_x, rvel_y, radius, None, durations, track_closest
    )
    return hit, min_distance, t_star


def fused_window_batch_dual(
    rel_x: np.ndarray,
    rel_y: np.ndarray,
    rvel_x: np.ndarray,
    rvel_y: np.ndarray,
    radius: np.ndarray,
    second_radius: np.ndarray,
    durations: np.ndarray,
    *,
    track_closest: bool = True,
):
    """Solve every window against *two* per-window radius columns in one pass.

    The asymmetric-radius engine asks two questions of each window: the first
    offset at which the distance reaches the smaller (meeting) radius and the
    first offset at which it reaches the larger (freeze) radius.  Both
    quadratics share every dot product — only the constant term differs — so
    the kernel computes the shared terms once and runs the root extraction
    twice, with the same operation-for-operation arithmetic as the scalar
    kernel (verdict parity with the event engine is exact on identical window
    inputs; the engines' 1e-9 tolerance only absorbs upstream accumulation).

    ``radius`` and ``second_radius`` are scalars or per-window arrays in
    absolute length units; there is no ordering requirement between them.
    Returns ``(hit, second_hit, min_distance,
    time_offset)`` where ``hit`` and ``second_hit`` are the first-hit offsets
    (``NaN`` where the window never reaches that radius) and the trailing
    pair mirrors :func:`fused_window_batch` (``None`` when ``track_closest``
    is false).
    """
    rel_x = np.asarray(rel_x, dtype=float)
    rel_y = np.asarray(rel_y, dtype=float)
    rvel_x = np.asarray(rvel_x, dtype=float)
    rvel_y = np.asarray(rvel_y, dtype=float)
    durations = np.asarray(durations, dtype=float)
    radius = np.asarray(radius, dtype=float)
    second_radius = np.asarray(second_radius, dtype=float)
    if np.any(radius < 0.0) or np.any(second_radius < 0.0):
        raise ValueError("radius must be non-negative")
    if np.any(durations < 0.0):
        raise ValueError("durations must be non-negative")

    return solve_windows(
        rel_x, rel_y, rvel_x, rvel_y, radius, second_radius, durations,
        track_closest,
    )


def first_time_within_batch(
    pos_a, vel_a, pos_b, vel_b, radius, durations
) -> np.ndarray:
    """Vectorized :func:`first_time_within` over ``(n, 2)`` stacked inputs.

    ``pos_*``/``vel_*`` are arrays of shape ``(n, 2)``; ``radius`` is a scalar
    or an ``(n,)`` array; ``durations`` an ``(n,)`` array.  Returns an ``(n,)``
    float array of first-hit offsets with ``NaN`` where the points never come
    within the radius during their window.
    """
    rel_x, rel_y, rvel_x, rvel_y = _relative_arrays(pos_a, vel_a, pos_b, vel_b)
    hit, _, _ = fused_window_batch(
        rel_x, rel_y, rvel_x, rvel_y, radius, durations, track_closest=False
    )
    return hit


def closest_approach_batch(
    pos_a, vel_a, pos_b, vel_b, durations
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`closest_approach_moving_points` over stacked inputs.

    Returns ``(min_distance, time_offset)`` arrays of shape ``(n,)``.
    """
    rel_x, rel_y, rvel_x, rvel_y = _relative_arrays(pos_a, vel_a, pos_b, vel_b)
    _, min_distance, t_star = fused_window_batch(
        rel_x, rel_y, rvel_x, rvel_y, 0.0, durations, track_closest=True
    )
    return min_distance, t_star
