"""Tests for the analytical phase bounds (Lemmas 3.2-3.5) and cost estimates."""

import math
import os
import resource
import subprocess
import sys
import textwrap

import pytest

from repro.algorithms import bounds
from repro.algorithms.bounds import (
    PhaseCost,
    cgkk_completion_bound,
    estimate_simulation_cost,
    latecomers_completion_bound,
    phase_cost,
    type1_phase_bound,
    type2_phase_bound,
    type3_phase_bound,
    type4_phase_bound,
    universal_phase_bound,
)
from repro.algorithms.cgkk import cgkk_meeting_phase_bound
from repro.algorithms.cow_walk import planar_cow_walk_segment_count
from repro.algorithms.latecomers import latecomers_meeting_phase_bound
from repro.algorithms.schedules import CompactSchedule, PaperSchedule
from repro.analysis.sampler import InstanceSampler
from repro.core.classification import InstanceClass
from repro.core.instance import Instance


class TestCompletionBounds:
    def test_latecomers_completion_positive_and_exceeds_delay_phase(self, type2_instance):
        delta = latecomers_completion_bound(type2_instance)
        assert delta > 0.0
        # The bound must at least include one full probe of the phase where
        # the delay fits (wait 2**k >= t).
        assert delta >= type2_instance.t

    def test_latecomers_completion_requires_contract(self, infeasible_instance):
        with pytest.raises(ValueError):
            latecomers_completion_bound(infeasible_instance)

    def test_cgkk_completion_positive(self, type4_instance):
        assert cgkk_completion_bound(type4_instance.halved_radius_no_delay()) > 0.0

    def test_cgkk_completion_requires_contract(self):
        with pytest.raises(ValueError):
            cgkk_completion_bound(Instance(r=0.5, x=3.0, y=0.0))


class TestPhaseBounds:
    def test_type1(self, type1_instance):
        bound = type1_phase_bound(type1_instance)
        assert bound >= 1
        # More slack (larger e) can only help: the bound must not grow when
        # the delay increases by a little.
        looser = type1_instance.with_delay(type1_instance.t + 0.5)
        assert type1_phase_bound(looser) <= bound + 1

    def test_type1_requires_positive_slack(self, infeasible_instance):
        with pytest.raises(ValueError):
            type1_phase_bound(Instance(r=0.5, x=4.0, y=0.0, chi=-1, t=1.0))

    def test_type2(self, type2_instance):
        assert type2_phase_bound(type2_instance) >= 1

    def test_type3(self, type3_instance):
        bound = type3_phase_bound(type3_instance)
        assert bound >= 1
        # Smaller radius -> finer sweeps -> larger (or equal) phase bound.
        finer = type3_instance.with_visibility_radius(type3_instance.r / 8.0)
        assert type3_phase_bound(finer) >= bound

    def test_type3_requires_different_clocks(self, type4_instance):
        with pytest.raises(ValueError):
            type3_phase_bound(type4_instance)

    def test_type4(self, type4_instance):
        assert type4_phase_bound(type4_instance) >= 1

    def test_universal_dispatch(self, trivial_instance, type1_instance, type2_instance,
                                type3_instance, type4_instance, s1_instance,
                                infeasible_instance):
        assert universal_phase_bound(trivial_instance) == 0
        assert universal_phase_bound(type1_instance) == type1_phase_bound(type1_instance)
        assert universal_phase_bound(type2_instance) == type2_phase_bound(type2_instance)
        assert universal_phase_bound(type3_instance) == type3_phase_bound(type3_instance)
        assert universal_phase_bound(type4_instance) == type4_phase_bound(type4_instance)
        assert universal_phase_bound(s1_instance) is None
        assert universal_phase_bound(infeasible_instance) is None


class TestPhaseCost:
    def test_block1_dominates_and_counts_planar_walks(self):
        cost = phase_cost(2)
        assert isinstance(cost, PhaseCost)
        assert cost.segments >= 8 * planar_cow_walk_segment_count(2)
        assert cost.local_duration > 2.0**60  # the block-3 wait of phase 2

    def test_compact_schedule_has_smaller_duration(self):
        paper = phase_cost(3, PaperSchedule())
        compact = phase_cost(3, CompactSchedule())
        assert compact.local_duration < paper.local_duration
        assert compact.segments == paper.segments

    def test_cost_grows_with_phase(self):
        costs = [phase_cost(i).segments for i in range(1, 5)]
        assert costs == sorted(costs)
        assert costs[-1] > 10 * costs[0]

    def test_estimate_simulation_cost(self, type4_instance, s2_instance):
        estimate = estimate_simulation_cost(type4_instance)
        assert estimate is not None
        assert estimate.phase == universal_phase_bound(type4_instance)
        assert estimate.segments > 0
        assert estimate_simulation_cost(s2_instance) is None

    def test_estimate_is_cumulative(self, type4_instance):
        estimate = estimate_simulation_cost(type4_instance)
        total = sum(phase_cost(i).segments for i in range(1, estimate.phase + 1))
        assert estimate.segments == total


#: ``Delta`` through each phase as the probe-by-probe enumeration summed it
#: (every guess of every phase listed, sorted nearest-first, then added up in
#: that order).  Phase 7 is missing: its ~5e7 sorted tuples exhaust memory.
ENUMERATED_CGKK_DELTA = {
    1: 8.0,
    2: 137.0017380535345,
    3: 4368.343631027095,
    4: 141387.5167536955,
    5: 4532807.583295731,
    6: 145078778.06393564,
}
ENUMERATED_LATECOMERS_DELTA = {
    1: 16.0,
    2: 337.0017380535343,
    3: 10936.343631027063,
    4: 353587.5167536951,
    5: 11332527.583295282,
    6: 362700642.0638414,
}

#: A seed-7 type-4 instance whose CGKK image needs phase 7.
PHASE_SEVEN_ARGS = {
    "r": 0.7117019300959175,
    "x": 2.2539666158659957,
    "y": 4.470942182802464,
    "phi": 5.4118277245328725,
    "t": 2.3431798997908695,
}
PHASE_SEVEN_TYPE4 = Instance(**PHASE_SEVEN_ARGS)


class TestCompletionBoundsAtScale:
    """The completion bounds sum each phase's disc without enumerating it."""

    def test_deltas_match_the_enumerated_sums(self, monkeypatch):
        for phase, expected in ENUMERATED_CGKK_DELTA.items():
            monkeypatch.setattr(bounds, "cgkk_meeting_phase_bound", lambda _i, p=phase: p)
            assert cgkk_completion_bound(PHASE_SEVEN_TYPE4) == pytest.approx(
                expected, rel=1e-12
            )
        for phase, expected in ENUMERATED_LATECOMERS_DELTA.items():
            monkeypatch.setattr(
                bounds, "latecomers_meeting_phase_bound", lambda _i, p=phase: p
            )
            assert latecomers_completion_bound(PHASE_SEVEN_TYPE4) == pytest.approx(
                expected, rel=1e-12
            )

    def test_fixture_bounds_unchanged(
        self, trivial_instance, type1_instance, type2_instance, type3_instance,
        type4_instance, s1_instance, infeasible_instance,
    ):
        assert [
            universal_phase_bound(instance)
            for instance in (
                trivial_instance, type1_instance, type2_instance, type3_instance,
                type4_instance, s1_instance, infeasible_instance,
            )
        ] == [0, 12, 14, 3, 23, None, None]

    def test_seed7_bounds_unchanged_where_enumeration_finished(self, monkeypatch):
        sampler = InstanceSampler(seed=7)
        sampler.batch_of_class(InstanceClass.TYPE_1, 250)
        type2 = sampler.batch_of_class(InstanceClass.TYPE_2, 250)
        sampler.batch_of_class(InstanceClass.TYPE_3, 250)
        type4 = sampler.batch_of_class(InstanceClass.TYPE_4, 250)
        covered = [
            instance for instance in type2
            if latecomers_meeting_phase_bound(instance) in ENUMERATED_LATECOMERS_DELTA
        ] + [
            instance for instance in type4
            if cgkk_meeting_phase_bound(instance.halved_radius_no_delay())
            in ENUMERATED_CGKK_DELTA
        ]
        assert len(covered) == 486  # all but the 14 phase-7 type-4 instances
        current = [universal_phase_bound(instance) for instance in covered]
        monkeypatch.setattr(
            bounds, "cgkk_completion_bound",
            lambda image: ENUMERATED_CGKK_DELTA[cgkk_meeting_phase_bound(image)],
        )
        monkeypatch.setattr(
            bounds, "latecomers_completion_bound",
            lambda instance: ENUMERATED_LATECOMERS_DELTA[
                latecomers_meeting_phase_bound(instance)
            ],
        )
        assert current == [universal_phase_bound(instance) for instance in covered]

    def test_phase_seven_instance_fits_time_and_memory(self):
        # The enumeration needed several GB here; the row sums need a few MB.
        limit = 1 << 30
        flags = [
            item for key, value in PHASE_SEVEN_ARGS.items()
            for item in (f"--{key}", repr(value))
        ]
        script = textwrap.dedent(
            f"""
            from repro.algorithms.bounds import estimate_simulation_cost, universal_phase_bound
            from repro.cli import main
            from repro.core.instance import Instance
            instance = Instance(**{PHASE_SEVEN_ARGS!r})
            print(universal_phase_bound(instance), estimate_simulation_cost(instance).phase)
            main(["classify", *{flags!r}])
            """
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", REPRO_CONTRACTS="off")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "18 18"
        assert "phase bound       : 18" in lines
