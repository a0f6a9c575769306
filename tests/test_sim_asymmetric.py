"""Tests for the Section 5 extension: different visibility radii."""

import math

import pytest

from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.base import UniversalAlgorithm
from repro.algorithms.dedicated import LinearProbe
from repro.core.instance import Instance
from repro.motion.instructions import Move
from repro.sim.asymmetric import AsymmetricOutcome, simulate_asymmetric
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import RendezvousSimulator, simulate
from repro.sim.results import TerminationReason


class WalkEast(UniversalAlgorithm):
    name = "walk-east"

    def __init__(self, distance=20.0):
        self.distance = distance

    def program(self):
        yield Move(self.distance, 0.0)


class TestBasicSemantics:
    def test_equal_radii_match_symmetric_engine(self):
        instance = Instance(r=0.5, x=3.0, y=0.0, t=2.75)
        symmetric = simulate(instance, WalkEast())
        outcome = simulate_asymmetric(instance, WalkEast())
        assert outcome.met == symmetric.met
        assert outcome.meeting_time == pytest.approx(symmetric.meeting_time)
        assert outcome.frozen_agent is None  # meeting happens at the shared radius

    def test_invalid_radii(self):
        instance = Instance(r=0.5, x=3.0, y=0.0)
        with pytest.raises(ValueError):
            simulate_asymmetric(instance, WalkEast(), radius_a=0.0)
        with pytest.raises(ValueError):
            simulate_asymmetric(instance, WalkEast(), max_time=math.inf)

    @pytest.mark.parametrize("key", ["radius_a", "radius_b"])
    @pytest.mark.parametrize(
        "caller",
        ["RendezvousSimulator.run", "simulate", "simulate_asymmetric", "repro simulate"],
    )
    def test_radius_errors_name_their_entry_point(self, caller, key, capsys):
        # Every entry point shares one validating body; each error must
        # still name the entry point the caller actually used.
        expected = f"{caller}: {key} must be positive and finite, got 0.0"
        if caller == "repro simulate":
            from repro.cli import main

            code = main(["simulate", "--r", "0.5", "--x", "3", "--y", "0",
                         "--algorithm", "stay-put", f"--{key.replace('_', '-')}", "0"])
            assert code == 2
            assert f"error: {expected}" in capsys.readouterr().err
            return
        instance = Instance(r=0.5, x=3.0, y=0.0)
        with pytest.raises(ValueError) as excinfo:
            if caller == "simulate_asymmetric":
                simulate_asymmetric(instance, WalkEast(), **{key: 0.0})
            elif caller == "simulate":
                simulate(instance, WalkEast(), **{key: 0.0})
            else:
                RendezvousSimulator(**{key: 0.0}).run(instance, WalkEast())
        assert str(excinfo.value) == expected

    def test_larger_radius_agent_freezes_first(self):
        # B sleeps 10 time units; A walks east towards B.  A (radius 2) sees B
        # at distance 2 and freezes; it never gets within B's radius 0.5, and
        # the walk-east program gives B no chance to close the gap afterwards.
        instance = Instance(r=0.5, x=5.0, y=0.0, t=10.0)
        outcome = simulate_asymmetric(
            instance, WalkEast(4.0), radius_a=2.0, radius_b=0.5, max_time=100.0
        )
        assert outcome.frozen_agent == "A"
        assert outcome.freeze_time == pytest.approx(3.0)
        assert outcome.freeze_distance == pytest.approx(2.0)
        assert not outcome.met
        assert outcome.result.termination is TerminationReason.PROGRAMS_FINISHED

    def test_rendezvous_at_smaller_radius(self):
        # Same setup but B's later walk passes through A's frozen position.
        instance = Instance(r=0.5, x=5.0, y=0.0, t=10.0, phi=math.pi)
        outcome = simulate_asymmetric(
            instance, WalkEast(6.0), radius_a=2.0, radius_b=0.5, max_time=100.0
        )
        # A freezes at distance 2 (time 3); B wakes at 10 and walks (its east is
        # absolute west) towards A's frozen position at x=3.
        assert outcome.frozen_agent == "A"
        assert outcome.met
        assert outcome.result.meeting_distance == pytest.approx(0.5)
        assert outcome.meeting_time == pytest.approx(10.0 + (5.0 - 3.0) - 0.5)

    def test_reports_radii_in_algorithm_name(self):
        instance = Instance(r=0.5, x=2.0, y=0.0, t=3.0)
        outcome = simulate_asymmetric(instance, WalkEast(), radius_a=0.5, radius_b=0.25)
        assert "r_a=0.5" in outcome.result.algorithm_name


class TestFreezeCounterfactualFixes:
    """PR 4 bugfixes: the freeze event retroactively cancels motion.

    The closest-approach tracker used to scan each window in full *before*
    the freeze was detected, recording minima achieved by the larger-radius
    agent's counterfactual motion past its freeze time; the freeze resume
    path also skipped the segment-budget check, and ``max_segments`` was
    never validated.  All three are fixed in both engines.
    """

    def _drive_by(self):
        # A (radius 5) walks east straight through B's position; B sleeps
        # until t=30 and then walks *away*.  A freezes at distance 5 (t=5)
        # and never moves again, so the true closest approach is exactly the
        # freeze distance — but A's counterfactual continuation would have
        # passed through B (distance 0 at t=10), which is what the old
        # tracker recorded.
        return Instance(r=0.5, x=10.0, y=0.0, t=30.0), WalkEast(20.0)

    def test_event_engine_min_distance_stops_at_freeze(self):
        instance, algorithm = self._drive_by()
        outcome = simulate_asymmetric(
            instance, algorithm, radius_a=5.0, radius_b=0.5, max_time=100.0
        )
        assert outcome.frozen_agent == "A"
        assert outcome.freeze_time == pytest.approx(5.0)
        assert not outcome.met
        assert outcome.result.min_distance == pytest.approx(5.0)
        assert outcome.result.min_distance_time == pytest.approx(5.0)

    def test_batch_engine_parity_including_horizon_cut_freeze_window(self):
        instance, algorithm = self._drive_by()
        event = simulate_asymmetric(
            instance, algorithm, radius_a=5.0, radius_b=0.5, max_time=100.0
        )
        # initial_horizon=9.0 cuts the freeze window at the adaptive horizon:
        # the old engine re-scanned it to its true boundary (t=20) and
        # recorded the counterfactual pass-through.
        for initial_horizon in (None, 9.0):
            batch = simulate_batch_asymmetric(
                [instance], algorithm, radius_a=5.0, radius_b=0.5,
                max_time=100.0, initial_horizon=initial_horizon,
            )[0]
            assert batch.frozen_agent == "A"
            assert batch.result.min_distance == pytest.approx(
                event.result.min_distance, rel=1e-9
            )
            assert batch.result.min_distance_time == pytest.approx(5.0, rel=1e-9)

    def test_freeze_resume_enforces_segment_budget(self):
        def algorithm(instance, spec, role):
            if role == "A":
                return []  # A never moves; B walks west in unit steps
            return [Move(1.0, 0.0) for _ in range(10)]

        instance = Instance(r=0.5, x=10.0, y=0.0, phi=math.pi)
        # The freeze at t=3 lands exactly on a segment boundary of the moving
        # agent, so resuming pulls its 4th segment — over the budget of 3.
        # The old code skipped the budget check on the freeze path and went
        # on to meet at t=3.5 despite the exhausted budget.
        event = simulate_asymmetric(
            instance, algorithm, radius_a=7.0, radius_b=6.5,
            max_time=100.0, max_segments=3,
        )
        assert event.frozen_agent == "A"
        assert event.freeze_time == pytest.approx(3.0)
        assert not event.met
        assert event.result.termination is TerminationReason.MAX_SEGMENTS
        batch = simulate_batch_asymmetric(
            [instance], algorithm, radius_a=7.0, radius_b=6.5,
            max_time=100.0, max_segments=3,
        )[0]
        assert batch.frozen_agent == "A" and not batch.met
        assert batch.result.termination is TerminationReason.MAX_SEGMENTS
        assert batch.result.simulated_time == pytest.approx(
            event.result.simulated_time, rel=1e-9
        )

    def test_non_positive_max_segments_rejected_everywhere(self):
        instance = Instance(r=0.5, x=3.0, y=0.0)
        for bad in (0, -5):
            with pytest.raises(ValueError):
                simulate_asymmetric(instance, WalkEast(), max_segments=bad)
            with pytest.raises(ValueError):
                simulate_batch_asymmetric([instance], WalkEast(), max_segments=bad)
            with pytest.raises(ValueError):
                simulate_batch([instance], WalkEast(), max_segments=bad)


class TestSection5Claims:
    def test_universal_algorithm_survives_asymmetric_radii(self):
        """Section 5: AlmostUniversalRV keeps working because every phase
        contains a planar search that the still-moving agent eventually runs."""
        instance = Instance(r=0.6, x=1.0, y=1.0, phi=math.pi / 2.0, chi=1, t=0.5)
        outcome = simulate_asymmetric(
            instance,
            AlmostUniversalRV(),
            radius_a=0.6,
            radius_b=0.2,
            max_time=1e12,
            max_segments=600_000,
        )
        assert outcome.met
        assert outcome.result.meeting_distance <= 0.2 + 1e-9
        # The meeting at the smaller radius can only happen later than (or at)
        # the symmetric meeting at the larger radius.
        symmetric = simulate(instance, AlmostUniversalRV(), max_time=1e12, max_segments=600_000)
        assert outcome.meeting_time >= symmetric.meeting_time - 1e-9

    def test_dedicated_probe_without_search_step_can_fail(self):
        """The paper's caveat: algorithms without a trailing search procedure
        are *not* automatically correct under asymmetric radii — the frozen
        agent may stop before the mover gets within the smaller radius."""
        instance = Instance(r=1.0, x=2.0, y=2.0, phi=math.pi / 2.0, chi=1, t=0.0)
        symmetric = simulate(instance, LinearProbe())
        assert symmetric.met
        outcome = simulate_asymmetric(
            instance, LinearProbe(), radius_a=1.0, radius_b=0.05, max_time=1e6
        )
        # The larger-radius agent freezes mid-probe; the other finishes its own
        # probe but no longer ends at the same point, so with a tiny radius the
        # meeting is not guaranteed (and indeed does not happen here).
        assert outcome.frozen_agent is not None
        assert not outcome.met
