"""Tests for the local-to-absolute trajectory compiler."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.frames import Frame
from repro.core.instance import AgentSpec, Instance
from repro.core.units import AgentUnits
from repro.motion.compiler import compile_trajectory, sleep_segment
from repro.motion.instructions import Move, Wait
from repro.motion.program import instruction_blocks
from repro.sim.timebase import ExactTimebase


def make_spec(origin=(0.0, 0.0), phi=0.0, chi=1, tau=1.0, v=1.0, wake=0.0, name="X"):
    return AgentSpec(frame=Frame(origin, phi, chi), units=AgentUnits(tau, v, wake), name=name)


class TestSleepSegment:
    def test_no_sleep_when_wake_zero(self):
        assert sleep_segment(make_spec()) is None

    def test_sleep_duration_and_position(self):
        seg = sleep_segment(make_spec(origin=(1.0, 2.0), wake=3.0))
        assert seg.duration == 3.0
        assert seg.start_pos == (1.0, 2.0)
        assert seg.velocity == (0.0, 0.0)
        assert seg.kind == "sleep"


class TestReferenceAgent:
    def test_simple_moves(self):
        spec = make_spec()
        program = [Move(2.0, 0.0), Wait(1.0), Move(0.0, 1.0)]
        segments = list(compile_trajectory(spec, instruction_blocks(program)))
        assert len(segments) == 3
        move_east, pause, move_north = segments
        assert move_east.start_time == 0.0 and move_east.duration == 2.0
        assert move_east.velocity == pytest.approx((1.0, 0.0))
        assert move_east.end_pos == pytest.approx((2.0, 0.0))
        assert pause.kind == "wait" and pause.duration == 1.0
        assert move_north.start_time == pytest.approx(3.0)
        assert move_north.end_pos == pytest.approx((2.0, 1.0))

    def test_null_instructions_skipped(self):
        program = [Move(0.0, 0.0), Wait(0.0)]
        segments = list(compile_trajectory(make_spec(), instruction_blocks(program)))
        assert segments == []

    def test_position_at_offset(self):
        (segment,) = compile_trajectory(make_spec(), instruction_blocks([Move(4.0, 0.0)]))
        assert segment.position_at_offset(1.0) == pytest.approx((1.0, 0.0))
        with pytest.raises(ValueError):
            segment.position_at_offset(10.0)


class TestUnitsAndFrames:
    def test_speed_and_clock_scaling(self):
        # tau = 2, v = 3: one local length unit = 6 absolute units, traversed
        # in 2 absolute time units (at absolute speed 3).
        spec = make_spec(tau=2.0, v=3.0)
        (segment,) = compile_trajectory(spec, instruction_blocks([Move(1.0, 0.0)]))
        assert segment.duration == pytest.approx(2.0)
        assert segment.end_pos == pytest.approx((6.0, 0.0))
        assert math.hypot(*segment.velocity) == pytest.approx(3.0)

    def test_wait_scaling(self):
        spec = make_spec(tau=2.0, v=3.0)
        (segment,) = compile_trajectory(spec, instruction_blocks([Wait(5.0)]))
        assert segment.duration == pytest.approx(10.0)

    def test_wake_time_shifts_start(self):
        spec = make_spec(wake=4.0)
        segments = list(compile_trajectory(spec, instruction_blocks([Move(1.0, 0.0)])))
        assert segments[0].kind == "sleep"
        assert segments[1].start_time == pytest.approx(4.0)

    def test_rotated_frame(self):
        spec = make_spec(phi=math.pi / 2.0)
        (segment,) = compile_trajectory(spec, instruction_blocks([Move(1.0, 0.0)]))
        assert segment.end_pos == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_mirrored_frame(self):
        spec = make_spec(chi=-1)
        (segment,) = compile_trajectory(spec, instruction_blocks([Move(0.0, 1.0)]))
        assert segment.end_pos == pytest.approx((0.0, -1.0))

    def test_agent_b_of_instance(self):
        instance = Instance(r=1.0, x=2.0, y=3.0, phi=math.pi, tau=2.0, v=0.5, t=1.0, chi=1)
        spec = instance.agent_b()
        segments = list(compile_trajectory(spec, instruction_blocks([Move(1.0, 0.0)])))
        sleep, move = segments
        assert sleep.duration == 1.0
        assert move.start_time == pytest.approx(1.0)
        # Length unit tau*v = 1, direction rotated by pi.
        assert move.end_pos == pytest.approx((1.0, 3.0), abs=1e-9)
        assert move.duration == pytest.approx(2.0)

    @given(
        st.floats(0.1, 4.0),
        st.floats(0.1, 4.0),
        st.floats(0.0, 2.0 * math.pi - 1e-9),
        st.sampled_from([1, -1]),
        st.lists(
            st.one_of(
                st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(lambda d: Move(*d)),
                st.floats(0.0, 3.0).map(Wait),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_total_duration_matches_units(self, tau, v, phi, chi, instructions):
        """Total absolute duration equals local duration times the clock rate."""
        spec = make_spec(phi=phi, chi=chi, tau=tau, v=v)
        segments = list(compile_trajectory(spec, instruction_blocks(instructions)))
        local_duration = sum(
            instr.duration for instr in instructions if not instr.is_null()
        )
        assert sum(s.duration for s in segments) == pytest.approx(local_duration * tau, rel=1e-9)

    @given(
        st.lists(
            st.tuples(
                # Subnormal displacements carry only a handful of mantissa
                # bits, so the 1e-9 relative tolerance below is not
                # meaningful for them (and such moves are physically
                # meaningless anyway).
                st.floats(-3.0, 3.0, allow_subnormal=False),
                st.floats(-3.0, 3.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_path_length_scales_with_length_unit(self, displacements):
        moves = [Move(dx, dy) for dx, dy in displacements]
        base = list(compile_trajectory(make_spec(), instruction_blocks(moves)))
        scaled = list(
            compile_trajectory(make_spec(tau=2.0, v=1.5), instruction_blocks(moves))
        )
        base_length = sum(math.hypot(*s.velocity) * s.duration for s in base)
        scaled_length = sum(math.hypot(*s.velocity) * s.duration for s in scaled)
        assert scaled_length == pytest.approx(base_length * 3.0, rel=1e-9)


class TestExactTimebase:
    def test_exact_timestamps_are_fractions(self):
        spec = make_spec(wake=0.5)
        segments = list(
            compile_trajectory(
                spec, instruction_blocks([Move(1.0, 0.0), Wait(0.25)]),
                timebase=ExactTimebase(),
            )
        )
        assert all(isinstance(s.start_time, Fraction) for s in segments)
        assert segments[-1].start_time == Fraction(3, 2)

    def test_exact_accumulation_has_no_drift(self):
        spec = make_spec()
        instructions = [Move(0.1, 0.0)] * 10
        segments = list(
            compile_trajectory(spec, instruction_blocks(instructions), timebase=ExactTimebase())
        )
        # Each duration is Fraction(0.1) exactly; the sum is exact, not 0.9999...
        assert segments[-1].start_time == 9 * Fraction(0.1)


class TestDegenerateMoves:
    def test_subnormal_move_velocity_stays_finite(self):
        """Velocity is disp/duration, not disp * (1/duration): the reciprocal
        of a subnormal duration overflows to inf even though the quotient is
        perfectly representable."""
        d = 2.225073858507203e-309
        [segment] = list(compile_trajectory(make_spec(), instruction_blocks([Move(d, d)])))
        assert math.isfinite(segment.velocity[0])
        assert segment.velocity[0] == pytest.approx(math.sqrt(0.5))
        assert segment.velocity[1] == pytest.approx(math.sqrt(0.5))
