"""The all-window batch kernel, kept verbatim as a test oracle.

These are ``_first_hit_columns``, ``_closest_columns`` and ``solve_windows``
as they stood in :mod:`repro.geometry.closest_approach` before the kernel
solved roots only on candidate windows: every radius column runs the whole
root extraction (square root, division and ``np.where`` guards) over every
window.  ``tests/test_geometry_batch_kernels.py`` requires the candidate-only
kernel to reproduce every output bit for bit: values, NaN positions and sign
bits.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import core as _contracts
from repro.contracts.invariants import check_kernel_solution


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
    are assumed validated — by the public entry points below, or once per
    round by :func:`repro.sim.rounds.solve_round`, which calls this per
    tile: non-negative radii and durations, same-length columns.  Every
    window is solved on its own, so splitting the columns changes no value.
    With contract checking
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
