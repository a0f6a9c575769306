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
  :func:`closest_approach_batch`, :func:`fused_window_batch`), which solve
  the quadratics of many windows in single array operations.  Their
  element-wise math is plain numpy (:func:`solve_windows`), which mirrors
  the scalar kernels operation for operation; with contract checking
  enabled every call also runs the declared kernel contracts.  The
  vectorized batch engine calls :func:`solve_windows` directly, one
  cache-sized tile of a round's stacked windows at a time
  (:func:`repro.sim.rounds.solve_round`), after checking the round's radii
  and durations once.

:func:`solve_windows` forms the terms every radius shares once, then marks
the *candidate* windows — those that start inside the larger radius or
approach it with a real root — and runs square roots and divisions on those
alone: on the Section 5 sweeps they are a few percent of all windows.  The
smaller radius needs no separate scan, because rounding is monotone (see the
comment in :func:`solve_windows`).  The public wrappers broadcast their
inputs to one shape and flatten them to columns, so 0-d inputs and scalar
radii work; the all-window kernel this replaced is kept in
``tests/kernel_oracle.py``, which the candidate-only one equals bit for bit.
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


def _quadratic_terms(p_sq, b_sq, four_speed_sq, approaching, radius_sq):
    """The constant term, discriminant and root masks at one squared radius.

    Returns ``(c, disc, inside, real_root)``: ``c = |p|^2 - r^2`` and
    ``disc = b^2 - 4|v|^2 c`` in the scalar kernel's operation order,
    ``inside`` where the window starts within the radius (``c <= 0``) and
    ``real_root`` where ``approaching`` holds and the discriminant is
    non-negative.  A window outside the radius hits only where
    ``real_root`` holds for ``approaching = (|v| > 0) & (b < 0)``; a wider
    ``approaching`` mask gives a wider ``real_root`` mask.
    """
    c = p_sq - radius_sq
    inside = c <= 0.0
    disc = four_speed_sq * c
    np.subtract(b_sq, disc, out=disc)
    real_root = disc >= 0.0
    real_root &= approaching
    return c, disc, inside, real_root


def _radius_hits(p_sq, dot_pv, b_sq, four_speed_sq, radius, durations):
    """First-hit offsets at one radius column, ``NaN`` where none.

    Windows that start inside the radius hit at ``0.0``.  The square root,
    the division and the duration test run only on the candidates (outside
    the radius, approaching, with a real root), where every element goes
    through exactly the scalar kernel's float operations: the numerically
    stable smaller root ``2c / (sqrt(disc) - b)``, kept if it is no later
    than the window's end and raised to at least ``0.0``.
    """
    b = 2.0 * dot_pv
    # 4|v|^2 > 0 exactly where |v|^2 > 0: scaling by 4 neither reaches 0
    # nor changes a sign.
    approaching = b < 0.0
    approaching &= four_speed_sq > 0.0
    c, disc, inside, candidate = _quadratic_terms(
        p_sq, b_sq, four_speed_sq, approaching, radius * radius
    )
    candidate &= ~inside
    hit = np.full(c.shape, np.nan)
    hit[inside] = 0.0
    at = np.flatnonzero(candidate)
    t_hit = 2.0 * c[at]
    denominator = np.sqrt(disc[at])
    denominator -= b[at]
    t_hit /= denominator
    within = t_hit <= durations[at]
    hit[at[within]] = np.maximum(t_hit[within], 0.0)
    return hit


def _first_hit_columns(rel_x, rel_y, speed_sq, dot_pv, radii, durations):
    """First-hit half of the fused kernel: one hit column per radius column.

    ``|p|^2``, ``b^2`` and ``4|v|^2`` are formed once for every radius.  A
    window can only hit a radius where it starts inside the larger radius or
    approaches with a real root there — a few percent of the windows of the
    benchmark sweeps — so the radii are solved on those windows alone, and
    every other window reports ``NaN`` without a square root or a division.
    """
    p_sq = rel_x * rel_x
    p_sq += rel_y * rel_y
    b_sq = 2.0 * dot_pv
    b_sq *= b_sq
    four_speed_sq = 4.0 * speed_sq
    # Rounding is monotone: for radii rho <= R, fl(rho^2) <= fl(R^2), so
    # c_rho = fl(|p|^2 - fl(rho^2)) >= c_R, and on moving windows, where
    # 4|v|^2 > 0, disc_rho = fl(b^2 - fl(4|v|^2 c_rho)) <= disc_R.  A window
    # inside rho is inside R, and one with a real root at rho has one at R,
    # so no radius hits outside the larger radius's inside-or-real-root
    # windows.  (c_R is NaN only when |p|^2 and R^2 are both infinite, and
    # then c_rho is infinite or NaN: no hit either.)  ``fmax`` picks the
    # larger radius per element in either column order and skips a NaN
    # radius, whose column hits nowhere; the mask leaves out the moving test
    # (b < 0 is <p, v> < 0), which only admits a few extra windows for the
    # exact solve below.
    larger = radii[0] if len(radii) == 1 else np.fmax(*radii)
    _, _, reach, real_root = _quadratic_terms(
        p_sq, b_sq, four_speed_sq, dot_pv < 0.0, larger * larger
    )
    reach |= real_root
    at = np.flatnonzero(reach)
    terms = (p_sq[at], dot_pv[at], b_sq[at], four_speed_sq[at])
    durations_at = durations[at]
    hits = []
    for radius in radii:
        hit = np.full(rel_x.shape, np.nan)
        hit[at] = _radius_hits(*terms, radius[at], durations_at)
        hits.append(hit)
    return hits


def _closest_columns(speed_sq, dot_pv, rel_x, rel_y, rvel_x, rvel_y, durations):
    """Closest-approach half of the fused kernel, from precomputed dots.

    ``t* = -<p, v> / |v|^2`` where the points move and ``0.0`` where they
    do not, clipped to ``[0, duration]``.  The quotient is formed in place
    in the buffers of ``speed_sq`` and ``dot_pv``, which the caller must not
    read afterwards.

    ``sqrt(x*x + y*y)`` stands in for ``hypot`` — a couple of ulps apart
    at these (overflow-safe) magnitudes, far inside both the kernel
    suite's 1e-12 and the engines' 1e-9 parity tolerances, and several
    times faster than libm's hypot.
    """
    static = speed_sq > 0.0
    np.logical_not(static, out=static)
    np.putmask(speed_sq, static, 1.0)  # a safe divisor; the quotient is dropped
    t_star = np.negative(dot_pv, out=dot_pv)
    t_star /= speed_sq
    np.putmask(t_star, static, 0.0)
    # Not in place: numpy's in-place clip can keep a -0.0 that the
    # out-of-place call raises to 0.0 (seen on one-element columns).
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
    are assumed validated — by the public entry points below, or once per
    round by :func:`repro.sim.rounds.solve_round`, which calls this per
    tile: one-dimensional float columns of one length (the radii
    included), non-negative radii and durations.  Every window is solved on
    its own, so splitting the columns changes no value.

    ``|v|^2`` and ``<p, v>`` are formed once for both halves; the first-hit
    half (:func:`_first_hit_columns`) takes square roots and divisions only
    on the windows that can reach the larger radius.  With contract checking
    enabled, the kernel contracts (``kernel.min_distance_nonneg``,
    ``kernel.min_leq_endpoints``, ``kernel.hit_within_window``) run on every
    call.
    """
    speed_sq = rvel_x * rvel_x + rvel_y * rvel_y
    dot_pv = rel_x * rvel_x + rel_y * rvel_y
    radii = [radius]
    if second_radius is not None and not (
        second_radius is radius or np.array_equal(radius, second_radius)
    ):
        radii.append(second_radius)
    # Equal columns (degenerate equal-radius sweeps, post-freeze rounds of
    # the asymmetric engine) answer both questions with one root extraction;
    # the equality check is a cheap pass.
    hits = _first_hit_columns(rel_x, rel_y, speed_sq, dot_pv, radii, durations)
    hit = hits[0]
    second_hit = None if second_radius is None else hits[-1]

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


def _window_columns(*inputs):
    """Broadcast public kernel inputs to one shape, as flat float columns.

    Returns the common shape and one contiguous one-dimensional column per
    input, so 0-d inputs and scalar radii reach :func:`solve_windows` as
    columns; :func:`_shaped` gives the outputs that shape back.
    """
    arrays = np.broadcast_arrays(*(np.asarray(item, dtype=float) for item in inputs))
    return arrays[0].shape, [np.ravel(array) for array in arrays]


def _shaped(shape, outputs):
    """The kernel's outputs in the inputs' broadcast shape."""
    return tuple(None if out is None else out.reshape(shape) for out in outputs)


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
    durations = np.asarray(durations, dtype=float)
    radius = np.asarray(radius, dtype=float)
    # Same contract as the scalar kernels: surface sign bugs instead of
    # silently squaring them away.
    if np.any(radius < 0.0):
        raise ValueError("radius must be non-negative")
    if np.any(durations < 0.0):
        raise ValueError("durations must be non-negative")

    shape, columns = _window_columns(rel_x, rel_y, rvel_x, rvel_y, radius, durations)
    rel_x, rel_y, rvel_x, rvel_y, radius, durations = columns
    hit, _, min_distance, t_star = solve_windows(
        rel_x, rel_y, rvel_x, rvel_y, radius, None, durations, track_closest
    )
    return _shaped(shape, (hit, min_distance, t_star))


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
    the kernel computes the shared terms once and extracts each radius's
    roots on the windows that can reach the larger radius, with the same
    operation-for-operation arithmetic as the scalar kernel (verdict parity
    with the event engine is exact on identical window inputs; the engines'
    1e-9 tolerance only absorbs upstream accumulation).

    ``radius`` and ``second_radius`` are scalars or per-window arrays in
    absolute length units; there is no ordering requirement between them.
    Returns ``(hit, second_hit, min_distance,
    time_offset)`` where ``hit`` and ``second_hit`` are the first-hit offsets
    (``NaN`` where the window never reaches that radius) and the trailing
    pair mirrors :func:`fused_window_batch` (``None`` when ``track_closest``
    is false).
    """
    durations = np.asarray(durations, dtype=float)
    radius = np.asarray(radius, dtype=float)
    second_radius = np.asarray(second_radius, dtype=float)
    if np.any(radius < 0.0) or np.any(second_radius < 0.0):
        raise ValueError("radius must be non-negative")
    if np.any(durations < 0.0):
        raise ValueError("durations must be non-negative")

    shape, columns = _window_columns(
        rel_x, rel_y, rvel_x, rvel_y, radius, second_radius, durations
    )
    return _shaped(shape, solve_windows(*columns, track_closest))


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
