"""Pin suite for :func:`repro.sim.engine.window_bounds`.

Window-end clamping used to be implemented twice — once in the symmetric
engine loop, once in the asymmetric one — with subtly different spellings of
the same semantics.  ``window_bounds`` is now the single place it lives, and
these tests pin the exact behaviour both loops relied on: earliest-bound
selection, ``None`` as "unbounded", and the clamp of rounding-negative
durations at zero.
"""

import pathlib
from fractions import Fraction

from repro.sim.engine import window_bounds
from repro.sim.timebase import get_timebase

FLOAT = get_timebase("float")
EXACT = get_timebase("exact")


class TestWindowBounds:
    def test_horizon_binds_when_segments_unbounded(self):
        window_end, window = window_bounds(2.0, None, None, 10.0, FLOAT)
        assert window_end == 10.0
        assert window == 8.0

    def test_earliest_segment_end_binds(self):
        window_end, window = window_bounds(0.0, 3.0, 5.0, 10.0, FLOAT)
        assert window_end == 3.0
        assert window == 3.0
        window_end, window = window_bounds(0.0, 7.0, 4.0, 10.0, FLOAT)
        assert window_end == 4.0
        assert window == 4.0

    def test_one_sided_none_is_unbounded(self):
        window_end, window = window_bounds(1.0, None, 6.0, 10.0, FLOAT)
        assert window_end == 6.0
        assert window == 5.0
        window_end, window = window_bounds(1.0, 6.0, None, 10.0, FLOAT)
        assert window_end == 6.0
        assert window == 5.0

    def test_horizon_beats_later_segment_ends(self):
        window_end, window = window_bounds(0.0, 20.0, 30.0, 10.0, FLOAT)
        assert window_end == 10.0
        assert window == 10.0

    def test_negative_duration_clamps_to_zero(self):
        # A cursor can sit an ulp past the window end after accumulated float
        # advancement; the duration must clamp at zero, never go negative.
        current = 10.0 + 1e-9
        window_end, window = window_bounds(current, None, None, 10.0, FLOAT)
        assert window_end == 10.0
        assert window == 0.0

    def test_zero_length_window_at_boundary(self):
        window_end, window = window_bounds(5.0, 5.0, 9.0, 10.0, FLOAT)
        assert window_end == 5.0
        assert window == 0.0

    def test_exact_timebase_end_stays_exact(self):
        # Window ends stay exact rationals; the duration is a float by the
        # timebase contract (``diff`` returns a representable float).
        current = Fraction(1, 3)
        end_a = Fraction(2, 3)
        horizon = Fraction(10)
        window_end, window = window_bounds(current, end_a, None, horizon, EXACT)
        assert window_end == Fraction(2, 3) and isinstance(window_end, Fraction)
        assert window == float(Fraction(1, 3))

    def test_single_implementation(self):
        # The refactor's point: exactly one window-end clamp in the codebase,
        # inside one window loop with one caller (the simulator's run body).
        # The asymmetric module must not grow its own loop or run body again.
        import repro
        import repro.sim.asymmetric as asymmetric
        import repro.sim.engine as engine

        assert asymmetric.RendezvousSimulator is engine.RendezvousSimulator
        assert not hasattr(asymmetric, "_freeze")
        assert not hasattr(asymmetric, "drive_windows")
        root = pathlib.Path(repro.__file__).parent
        calls = [
            (path.name, line)
            for path in sorted(root.rglob("*.py"))
            for line in path.read_text().splitlines()
            if "drive_windows(" in line and "def drive_windows(" not in line
        ]
        assert len(calls) == 1, calls
