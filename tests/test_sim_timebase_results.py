"""Tests for timebases, result objects and the trajectory recorder."""

from fractions import Fraction

import pytest

from repro.core.instance import Instance
from repro.geometry.polyline import Polyline
from repro.motion.compiler import TrajectorySegment
from repro.sim.recorder import TrajectoryRecorder
from repro.sim.results import SimulationResult, TerminationReason
from repro.sim.timebase import ExactTimebase, FloatTimebase, Timebase, get_timebase


class TestTimebases:
    def test_get_timebase_by_name(self):
        assert isinstance(get_timebase("float"), FloatTimebase)
        assert isinstance(get_timebase("exact"), ExactTimebase)
        assert isinstance(get_timebase(None), FloatTimebase)

    def test_get_timebase_passthrough(self):
        timebase = ExactTimebase()
        assert get_timebase(timebase) is timebase

    def test_get_timebase_unknown(self):
        with pytest.raises(ValueError):
            get_timebase("decimal")

    def test_float_operations(self):
        tb = FloatTimebase()
        assert tb.lift(3) == 3.0
        assert tb.add(1.5, 0.25) == 1.75
        assert tb.diff(2.0, 0.5) == 1.5
        assert tb.to_float(2.5) == 2.5

    def test_exact_operations(self):
        tb = ExactTimebase()
        lifted = tb.lift(0.1)
        assert isinstance(lifted, Fraction)
        assert lifted == Fraction(0.1)  # exact value of the float 0.1
        assert tb.add(Fraction(1, 3), 0.5) == Fraction(1, 3) + Fraction(1, 2)
        assert tb.diff(Fraction(5, 2), Fraction(1, 2)) == 2.0

    def test_exact_preserves_huge_offsets(self):
        tb = ExactTimebase()
        huge = tb.lift(2.0**60)
        later = tb.add(huge, 0.25)
        # Float arithmetic would lose the 0.25 entirely (ulp at 2**60 is 256).
        assert tb.diff(later, huge) == 0.25

    def test_float_loses_huge_offsets(self):
        tb = FloatTimebase()
        huge = tb.lift(2.0**60)
        later = tb.add(huge, 0.25)
        assert tb.diff(later, huge) == 0.0

    def test_abstract_interface(self):
        tb = Timebase()
        for call in (lambda: tb.lift(1.0), lambda: tb.add(1.0, 1.0), lambda: tb.diff(1.0, 0.0), lambda: tb.to_float(1.0)):
            with pytest.raises(NotImplementedError):
                call()
        assert tb.compare_key(5.0) == 5.0


class TestRecorder:
    def segment(self, start, end, t0=0.0):
        duration = 1.0
        velocity = ((end[0] - start[0]) / duration, (end[1] - start[1]) / duration)
        return TrajectorySegment(t0, duration, start, velocity, t0 + duration, end)

    def test_records_endpoints(self):
        recorder = TrajectoryRecorder((0.0, 0.0))
        recorder.record_segment(self.segment((0.0, 0.0), (1.0, 0.0)))
        recorder.record_segment(self.segment((1.0, 0.0), (1.0, 1.0)))
        poly = recorder.as_polyline()
        assert isinstance(poly, Polyline)
        assert poly.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))

    def test_skips_stationary_segments(self):
        recorder = TrajectoryRecorder((0.0, 0.0))
        recorder.record_segment(self.segment((0.0, 0.0), (0.0, 0.0)))
        assert recorder.vertex_count == 1

    def test_truncation(self):
        recorder = TrajectoryRecorder((0.0, 0.0), max_vertices=3)
        for k in range(10):
            recorder.record_segment(self.segment((float(k), 0.0), (float(k + 1), 0.0)))
        assert recorder.vertex_count == 3
        assert recorder.truncated

    def test_record_point(self):
        recorder = TrajectoryRecorder((0.0, 0.0))
        recorder.record_point((2.0, 2.0))
        recorder.record_point((2.0, 2.0))
        assert recorder.vertex_count == 2

    def test_min_vertices_validation(self):
        with pytest.raises(ValueError):
            TrajectoryRecorder((0.0, 0.0), max_vertices=1)


class TestSimulationResult:
    def make_result(self, met=True):
        instance = Instance(r=0.5, x=1.0, y=0.0)
        return SimulationResult(
            instance=instance,
            algorithm_name="test",
            met=met,
            termination=TerminationReason.RENDEZVOUS if met else TerminationReason.MAX_TIME,
            meeting_time=2.0 if met else None,
            meeting_point_a=(1.0, 0.0) if met else None,
            meeting_point_b=(1.25, 0.0) if met else None,
            min_distance=0.25 if met else 0.8,
            min_distance_time=2.0,
            simulated_time=2.0,
            segments_a=3,
            segments_b=4,
        )

    def test_meeting_distance(self):
        assert self.make_result().meeting_distance == pytest.approx(0.25)
        assert self.make_result(met=False).meeting_distance is None

    def test_segments_total_and_success(self):
        result = self.make_result()
        assert result.segments_total == 7
        assert result.success is True

    def test_approach_ratio(self):
        assert self.make_result().approach_ratio() == pytest.approx(0.5)

    def test_summary_strings(self):
        assert "rendezvous at" in self.make_result().summary()
        assert "no rendezvous" in self.make_result(met=False).summary()

    def test_as_record_flattens_instance(self):
        record = self.make_result().as_record()
        assert record["instance_r"] == 0.5
        assert record["met"] is True
        assert record["algorithm"] == "test"
