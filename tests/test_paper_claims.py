"""Integration tests tying the implementation back to the paper's statements.

Each test names the lemma/claim/theorem it exercises.  These are *executable
checks* of the paper's structural facts on concrete instances — they do not
re-prove the statements, but a bug in the model (frames, units, canonical
line, engine) would break them.
"""

import math
from fractions import Fraction

import pytest

from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.base import FunctionAlgorithm
from repro.algorithms.cow_walk import planar_cow_walk
from repro.algorithms.dedicated import dedicated_witness
from repro.analysis.sampler import InstanceSampler
from repro.core.canonical import canonical_geometry
from repro.core.classification import InstanceClass
from repro.core.instance import Instance
from repro.geometry.lines import Line
from repro.geometry.vec import dist
from repro.motion.compiler import compile_trajectory
from repro.motion.instructions import Move, Wait
from repro.motion.program import instruction_blocks
from repro.sim.engine import simulate


def positions_at(instance, program_factory, times):
    """Positions of both agents at the given absolute times (no early stop)."""
    specs = instance.agents()
    tracks = []
    for spec, role in zip(specs, "AB"):
        program = instruction_blocks(program_factory(instance, spec, role))
        segments = list(compile_trajectory(spec, program))
        positions = []
        for when in times:
            position = spec.start
            for segment in segments:
                if when < segment.start_time:
                    break
                offset = min(when - segment.start_time, segment.duration)
                position = (
                    segment.start_pos[0] + segment.velocity[0] * offset,
                    segment.start_pos[1] + segment.velocity[1] * offset,
                )
            positions.append(position)
        tracks.append(positions)
    return tracks


class TestLemma21MirrorSymmetry:
    """Lemma 2.1: for synchronous chi=-1 instances, the later agent's trajectory
    is the earlier agent's trajectory shifted along L and mirrored across L."""

    def make_program(self):
        def program(instance, spec, role):
            yield Move(1.0, 0.5)
            yield Wait(0.5)
            yield Move(-2.0, 1.0)
            yield Move(0.5, -3.0)

        return program

    @pytest.mark.parametrize(
        "instance",
        [
            Instance(r=0.1, x=4.0, y=2.0, phi=0.0, chi=-1, t=1.5),
            Instance(r=0.1, x=3.0, y=1.0, phi=2.0, chi=-1, t=0.75),
            Instance(r=0.1, x=-2.0, y=3.0, phi=4.0, chi=-1, t=2.0),
        ],
    )
    def test_trajectory_is_shift_plus_reflection(self, instance):
        geometry = canonical_geometry(instance)
        program = self.make_program()
        times = [0.25, 1.0, 2.0, 3.5, 5.0, 7.0]
        track_a, track_b = positions_at(instance, program, times)
        shift = (
            geometry.proj_b[0] - geometry.proj_a[0],
            geometry.proj_b[1] - geometry.proj_a[1],
        )
        for when, pos_b in zip(times, track_b):
            if when < instance.t:
                continue
            # Position of A at time (when - t), shifted by projA->projB and
            # reflected across the canonical line, must equal B's position.
            track_a_then = positions_at(instance, program, [when - instance.t])[0][0]
            shifted = (track_a_then[0] + shift[0], track_a_then[1] + shift[1])
            mirrored = geometry.line.reflect(shifted)
            assert mirrored == pytest.approx(pos_b, abs=1e-9)

    def test_corollary_21_projection_distance_invariant(self):
        """Corollary 2.1: dist(projA(z - t), projB(z)) stays equal to dist(projA, projB)."""
        instance = Instance(r=0.1, x=4.0, y=2.0, phi=1.0, chi=-1, t=1.25)
        geometry = canonical_geometry(instance)
        program = self.make_program()
        times = [1.5, 2.5, 4.0, 6.0]
        for when in times:
            pos_a = positions_at(instance, program, [when - instance.t])[0][0]
            pos_b = positions_at(instance, program, [when])[1][0]
            proj_a = geometry.line.project(pos_a)
            proj_b = geometry.line.project(pos_b)
            assert dist(proj_a, proj_b) == pytest.approx(geometry.proj_distance, abs=1e-9)


class TestClaim37PlanarCoverage:
    """Claim 3.7: PlanarCowWalk(i) run by an agent with unit u gets within r of
    every point at distance at most 2**i * u, provided u / 2**i <= r."""

    def test_agent_with_small_unit(self):
        from repro.geometry.segments import Segment

        instance = Instance(r=0.25, x=1.5, y=-0.75, tau=0.5, v=1.0)  # B's unit is 0.5
        spec = instance.agent_b()
        segments = list(compile_trajectory(spec, instruction_blocks(planar_cow_walk(2))))
        target = (0.0, 0.0)  # agent A's position, at distance ~1.68 < 2**2 * 0.5
        best = min(
            Segment(segment.start_pos, segment.end_pos).distance_to_point(target)
            for segment in segments
            if not segment.is_stationary or segment.duration > 0.0
        )
        assert best <= instance.r


class TestTheorem31Characterization:
    """Theorem 3.1, both directions, on stratified random instances."""

    def test_feasible_classes_have_witnesses(self):
        sampler = InstanceSampler(seed=17)
        for cls in (
            InstanceClass.TYPE_1,
            InstanceClass.TYPE_2,
            InstanceClass.TYPE_3,
            InstanceClass.TYPE_4,
            InstanceClass.S1_BOUNDARY,
            InstanceClass.S2_BOUNDARY,
        ):
            instance = sampler.of_class(cls)
            witness = dedicated_witness(instance)
            result = simulate(
                instance, witness, max_time=1e9, max_segments=300_000, radius_slack=1e-9
            )
            assert result.met, f"{cls} witness failed"

    def test_infeasible_lower_bound_chi_plus(self):
        instance = Instance(r=0.5, x=3.0, y=0.0, t=1.0)
        result = simulate(instance, AlmostUniversalRV(), max_time=1e5, max_segments=80_000)
        assert not result.met
        assert result.min_distance >= instance.initial_distance - instance.t - 1e-9

    def test_infeasible_lower_bound_chi_minus(self):
        instance = Instance(r=0.5, x=4.0, y=1.0, phi=0.0, chi=-1, t=1.0)
        result = simulate(instance, AlmostUniversalRV(), max_time=1e5, max_segments=80_000)
        assert not result.met
        # Projection distance is 4; it can shrink by at most t = 1.
        assert result.min_distance >= 4.0 - 1.0 - 1e-9


class TestSection4ExceptionBehaviour:
    """Section 4: on the boundary the meeting has zero slack."""

    def test_lemma39_meeting_distance_exactly_r(self, s2_instance):
        from repro.algorithms.dedicated import Lemma39Boundary

        result = simulate(s2_instance, Lemma39Boundary(), radius_slack=1e-12)
        assert result.met
        assert result.meeting_distance == pytest.approx(s2_instance.r, abs=1e-9)

    def test_s1_dedicated_meeting_distance_exactly_r(self, s1_instance):
        from repro.algorithms.dedicated import AlignedDelayWalk

        result = simulate(s1_instance, AlignedDelayWalk(), radius_slack=1e-12)
        assert result.met
        assert result.meeting_distance == pytest.approx(s1_instance.r, abs=1e-9)

    def test_perturbed_boundary_is_covered_by_universal(self, s1_instance):
        perturbed = s1_instance.with_delay(s1_instance.t + 1.0)
        result = simulate(perturbed, AlmostUniversalRV(), max_time=1e9, max_segments=400_000)
        assert result.met


class TestConclusionDifferentRadii:
    """Section 5: the results survive different visibility radii.

    Rendezvous is defined with the *smaller* radius; running any working
    algorithm as if both agents had the larger radius gets them within the
    larger radius, and the planar-search phases then close the remaining gap.
    Executably: shrinking r (the common radius stands in for the smaller one)
    still yields rendezvous, just later.
    """

    def test_smaller_radius_still_met_but_later(self):
        big = Instance(r=0.8, x=1.0, y=1.0, phi=math.pi / 2.0, chi=1, t=0.5)
        small = big.with_visibility_radius(0.2)
        algorithm = AlmostUniversalRV()
        result_big = simulate(big, algorithm, max_time=1e9, max_segments=400_000)
        result_small = simulate(small, algorithm, max_time=1e9, max_segments=400_000)
        assert result_big.met and result_small.met
        assert result_small.meeting_time >= result_big.meeting_time


class TestExactTimebaseIntegration:
    def test_type3_meeting_time_is_exact_fraction(self, type3_instance):
        result = simulate(
            type3_instance,
            AlmostUniversalRV(),
            max_time=1e45,
            max_segments=400_000,
            timebase="exact",
        )
        assert result.met
        assert isinstance(result.meeting_time_exact, Fraction)
