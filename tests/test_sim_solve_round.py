"""Property suite for the tiled round solve.

:func:`repro.sim.rounds.solve_round` forms the windows' relative motion and
runs the fused kernel one tile of ``KERNEL_CHUNK_WINDOWS`` windows at a time,
with tiles that need not line up with entries, and reduces per entry once
over round-length columns.  The entry-aligned chunked solve it replaced is
kept verbatim in :mod:`solve_round_oracle`; on rounds drawn with the window
construction's strategies (:mod:`test_sim_build_windows`) every field of the
two solutions must agree bit for bit.  The draws aim at the reductions' edge
cases: radii a few ulps around a window's closest approach, its start
distance or the closest approach over an entry's extended final window
(grazing hits, the inside-at-start branch and the final-window freeze), one
per-entry radius or two (the second one clamps at the freeze; the oracle
takes them repeated over each entry's windows), closest-approach tracking on or
off, the final-window extension present or not, and tile sizes of 1, 3, 64,
the round's length and the default.  A memory guard bounds the solve's
peak allocation per window, so round-length state columns cannot come back.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import solve_round_oracle
from repro.geometry.closest_approach import fused_window_batch
from repro.sim import rounds
from repro.sim.rounds import build_windows, solve_round
from test_sim_build_windows import _round, _round_inputs, _table

_FIELDS = ("first_hit", "hit_offset", "first_hit2", "hit_offset2", "group_min", "min_time")


def _nudged(value, steps):
    """``value`` moved ``steps`` ulps (never below zero)."""
    direction = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, direction))
    return value


@st.composite
def _radii(draw, windows, distances):
    """One radius per entry; mostly near grazing."""
    radius = np.empty(len(windows.counts))
    for k, (lo, hi) in enumerate(zip(windows.offsets[:-1], windows.offsets[1:])):
        kind = draw(st.sampled_from(("free", "closest", "start", "final")))
        if kind == "free":
            radius[k] = draw(st.floats(min_value=0.0, max_value=8.0))
            continue
        if kind == "final":
            value = distances[kind][k]
        else:
            value = distances[kind][draw(st.integers(int(lo), int(hi) - 1))]
        radius[k] = _nudged(float(value), draw(st.integers(-2, 2)))
    return radius


@st.composite
def _rounds(draw):
    windows = build_windows(*draw(_round_inputs()))
    rel_x, rel_y, rvel_x, rvel_y = windows.relative_motion(slice(None))
    _, closest, _ = fused_window_batch(
        rel_x, rel_y, rvel_x, rvel_y, 0.0, windows.durations
    )
    # Each entry's final window, over the extension to its real end.
    last = windows.offsets[1:] - 1
    _, final, _ = fused_window_batch(
        rel_x[last], rel_y[last], rvel_x[last], rvel_y[last], 0.0,
        windows.final_durations,
    )
    distances = {
        "closest": closest,
        "start": np.sqrt(rel_x * rel_x + rel_y * rel_y),
        "final": final,
    }
    radius = draw(_radii(windows, distances))
    second = draw(st.sampled_from(("none", "drawn", "same")))
    second_radius = {
        "none": None,
        "drawn": draw(_radii(windows, distances)) if second == "drawn" else None,
        "same": radius,
    }[second]
    track = draw(st.booleans())
    if draw(st.booleans()):
        windows.final_durations = None
    tile = draw(st.sampled_from((1, 3, 64, len(windows), rounds.KERNEL_CHUNK_WINDOWS)))
    return windows, radius, second_radius, track, tile


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rounds())
def test_tiled_solve_matches_the_chunked_oracle(drawn):
    windows, radius, second_radius, track, tile = drawn
    # The oracle takes per-window columns: repeat each entry's radii over
    # its windows (one array for both when the second radius is the first).
    window_radius = np.repeat(radius, windows.counts)
    window_second = (
        None if second_radius is None
        else window_radius if second_radius is radius
        else np.repeat(second_radius, windows.counts)
    )
    expected = solve_round_oracle.solve_round(
        windows, window_radius, track_min_distance=track,
        second_radius=window_second,
        clamp_at_second_hit=second_radius is not None,
        _parity_recheck=False,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounds, "KERNEL_CHUNK_WINDOWS", tile)
        solution = solve_round(
            windows, radius, track_min_distance=track,
            second_radius=second_radius, _parity_recheck=False,
        )
    for name in _FIELDS:
        mine, theirs = getattr(solution, name), getattr(expected, name)
        if theirs is None:
            assert mine is None, name
            continue
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs, equal_nan=True), name
        assert mine.tobytes() == theirs.tobytes(), name


def test_negative_radii_are_rejected():
    table = _table(np.array([0.0, 1.0, 2.0, 3.0]), 5)
    windows = build_windows(*_round([(table, table, 0.0, 4.0), (table, table, 0.5, 2.5)]))
    radius = np.ones(len(windows.counts))
    radius[-1] = -1.0
    with pytest.raises(ValueError, match="radius"):
        solve_round(windows, radius, track_min_distance=False)
    with pytest.raises(ValueError, match="radius"):
        solve_round(
            windows, np.ones(len(windows.counts)), track_min_distance=False,
            second_radius=radius,
        )


def test_peak_memory_stays_within_the_tile_budget():
    # One entry of about 208,000 windows, every option on: round-length
    # columns may hold at most 64 bytes per window (hits of both radii and
    # the closest approaches take 32), anything more must scale with the
    # tile.  Forming the eight state columns for the whole round, as the
    # entry-aligned chunks did (one entry is one chunk), takes 64 bytes per
    # window on its own.
    rng = np.random.default_rng(3)
    tables = [
        _table(np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 1.0, 104_999)))), seed)
        for seed in (0, 1)
    ]
    windows = build_windows(*_round([(*tables, 0.0, 52_000.0)]))
    total = len(windows)
    assert total >= 200_000
    radius = np.full(1, 0.5)
    second_radius = np.full(1, 2.0)
    tile = 1 << 12
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rounds, "KERNEL_CHUNK_WINDOWS", tile)
            solve_round(
                windows, radius, track_min_distance=True,
                second_radius=second_radius, _parity_recheck=False,
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * total + 256 * tile
