"""Tests for AlmostUniversalRV (Algorithm 1): structure and coverage (Theorem 3.2)."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.algorithms.almost_universal import AlmostUniversalRV
from repro.algorithms.cow_walk import planar_cow_walk_duration, planar_cow_walk_segment_count
from repro.algorithms.schedules import CompactSchedule, PaperSchedule
from repro.contracts import core as contracts_core
from repro.contracts.core import ContractViolation, _override_mode
from repro.core.instance import Instance
from repro.motion.compiler import LocalProgramBuilder
from repro.motion.instructions import Move, Wait
from repro.motion.localpath import LocalPath
from repro.motion.program import ColumnBlock, instruction_blocks
from repro.sim.engine import simulate
from repro.sim.results import TerminationReason
from repro.util.errors import AlgorithmContractError


class TestSchedules:
    def test_paper_schedule_constants(self):
        schedule = PaperSchedule()
        assert schedule.planar_resolution(3) == 3
        assert schedule.rotations(3) == 16
        assert schedule.rotation_step(3) == pytest.approx(math.pi / 8.0)
        assert schedule.block2_wait(3) == 8.0
        assert schedule.block2_run(3) == 8.0
        assert schedule.block3_wait(2) == 2.0**60
        assert schedule.block4_run(3) == 8.0
        assert schedule.block4_chunk(3) == pytest.approx(1.0 / 8.0)
        assert schedule.block4_wait(3) == 8.0

    def test_compact_schedule_smaller_waits(self):
        paper, compact = PaperSchedule(), CompactSchedule()
        for i in (2, 3, 4):
            assert compact.block3_wait(i) < paper.block3_wait(i)
            # Every other block keeps the paper's constants.
            assert compact.rotations(i) == paper.rotations(i)
            assert compact.block2_wait(i) == paper.block2_wait(i)
            assert compact.block4_chunk(i) == paper.block4_chunk(i)


class TestProgramStructure:
    def test_name_mentions_schedule(self):
        assert "paper" in AlmostUniversalRV().name
        assert "compact" in AlmostUniversalRV(CompactSchedule()).name

    def test_block1_is_rotated_planar_walks(self):
        algorithm = AlmostUniversalRV()
        block = LocalPath.from_instructions(algorithm._block1_type1(1))
        # 2**(i+1) = 4 planar walks of parameter 1, all returning to the start.
        assert block.is_closed(tol=1e-9)
        assert block.total_duration() == pytest.approx(4 * planar_cow_walk_duration(1))

    def test_program_runs_an_overridden_phase(self):
        class Tweaked(AlmostUniversalRV):
            def phase(self, i):
                yield Wait(1.0)

        tweaked = Tweaked(PaperSchedule(), max_phase=2)
        assert list(tweaked.program()) == [Wait(1.0)] * 2
        assert tweaked.program_cache_key is None

    def test_program_chains_the_phases_in_order(self):
        algorithm = AlmostUniversalRV(CompactSchedule(), max_phase=2)
        assert list(algorithm.program()) == list(algorithm.phase(1)) + list(algorithm.phase(2))

    def test_block2_waits_runs_and_backtracks(self):
        algorithm = AlmostUniversalRV()
        instructions = list(algorithm._block2_type2(2))
        assert instructions[0] == Wait(4.0)
        path = LocalPath.from_instructions(instructions)
        # wait(4) + run for 4 + backtrack of at most 4.
        assert path.total_duration() <= 12.0 + 1e-9
        assert path.is_closed(tol=1e-9)

    def test_block3_wait_then_walk(self):
        algorithm = AlmostUniversalRV()
        instructions = list(algorithm._block3_type3(1))
        assert instructions[0] == Wait(2.0**15)
        path = LocalPath.from_instructions(instructions)
        assert path.total_duration() == pytest.approx(2.0**15 + planar_cow_walk_duration(1))
        assert path.is_closed(tol=1e-9)

    def test_block4_chunks_and_waits(self):
        algorithm = AlmostUniversalRV()
        instructions = list(algorithm._block4_type4(1))
        waits = [i for i in instructions if isinstance(i, Wait) and i.duration == 2.0]
        # 2**(2i) = 4 chunks, each followed by a wait of 2**i = 2.
        assert len(waits) == 4
        path = LocalPath.from_instructions(instructions)
        assert path.is_closed(tol=1e-9)

    def test_phase_concatenates_four_blocks(self):
        algorithm = AlmostUniversalRV()
        phase = LocalPath.from_instructions(algorithm.phase(1))
        blocks = (
            LocalPath.from_instructions(algorithm._block1_type1(1)).total_duration()
            + LocalPath.from_instructions(algorithm._block2_type2(1)).total_duration()
            + LocalPath.from_instructions(algorithm._block3_type3(1)).total_duration()
            + LocalPath.from_instructions(algorithm._block4_type4(1)).total_duration()
        )
        assert phase.total_duration() == pytest.approx(blocks)
        assert phase.is_closed(tol=1e-9)

    def test_max_phase_truncates_program(self):
        short = AlmostUniversalRV(max_phase=1)
        long_prefix = list(short.program())
        assert len(long_prefix) > 0
        # Phase 2 exists for the unbounded program: its prefix is strictly longer.
        unbounded_prefix = list(itertools.islice(AlmostUniversalRV().program(), len(long_prefix) + 10))
        assert len(unbounded_prefix) == len(long_prefix) + 10

    def test_program_is_anonymous(self, type4_instance):
        """The emitted stream must be identical for both agents."""
        algorithm = AlmostUniversalRV()
        a_stream = itertools.islice(
            algorithm.program_for(type4_instance, type4_instance.agent_a(), "A"), 200
        )
        b_stream = itertools.islice(
            algorithm.program_for(type4_instance, type4_instance.agent_b(), "B"), 200
        )
        assert list(a_stream) == list(b_stream)


class TestTheorem32Coverage:
    """Executable Theorem 3.2: the single algorithm meets on all four types."""

    def test_type1(self, type1_instance):
        result = simulate(type1_instance, AlmostUniversalRV(), max_time=1e12, max_segments=600_000)
        assert result.met

    def test_type2(self, type2_instance):
        result = simulate(type2_instance, AlmostUniversalRV(), max_time=1e12, max_segments=600_000)
        assert result.met

    def test_type3_needs_exact_timebase(self, type3_instance):
        result = simulate(
            type3_instance, AlmostUniversalRV(), max_time=1e45, max_segments=600_000,
            timebase="exact",
        )
        assert result.met

    def test_type4(self, type4_instance):
        result = simulate(type4_instance, AlmostUniversalRV(), max_time=1e12, max_segments=600_000)
        assert result.met

    def test_type4_different_speeds(self):
        instance = Instance(r=0.5, x=1.0, y=0.0, v=2.0, t=0.5)
        result = simulate(instance, AlmostUniversalRV(), max_time=1e12, max_segments=600_000)
        assert result.met

    def test_type1_rotated_mirrored(self):
        instance = Instance(r=0.5, x=1.0, y=1.0, phi=math.pi / 2.0, chi=-1, t=2.0)
        result = simulate(instance, AlmostUniversalRV(), max_time=1e12, max_segments=600_000)
        assert result.met

    def test_compact_schedule_also_covers(self, type4_instance, type2_instance):
        algorithm = AlmostUniversalRV(CompactSchedule())
        assert simulate(type4_instance, algorithm, max_time=1e12, max_segments=600_000).met
        assert simulate(type2_instance, algorithm, max_time=1e12, max_segments=600_000).met

    def test_infeasible_instance_never_meets(self, infeasible_instance):
        result = simulate(
            infeasible_instance, AlmostUniversalRV(), max_time=1e6, max_segments=150_000
        )
        assert not result.met
        # Theorem 3.1 lower bound: the distance can shrink by at most t.
        assert result.min_distance >= (
            infeasible_instance.initial_distance - infeasible_instance.t - 1e-9
        )

    def test_s1_boundary_not_guaranteed(self, s1_instance):
        """On the exception boundary the universal algorithm gets close (within
        any positive slack of r) but the zero-slack meeting is not guaranteed."""
        result = simulate(s1_instance, AlmostUniversalRV(), max_time=1e6, max_segments=150_000)
        if not result.met:
            assert result.min_distance >= s1_instance.r - 1e-9


def _columns(blocks, max_steps=None):
    """The builder table of a block stream, fully consumed (or ``max_steps`` rows)."""
    return LocalProgramBuilder(blocks).snapshot(math.inf, max_steps=max_steps)


def _assert_bit_identical(native, reference):
    for name in ("dx", "dy", "duration", "cumulative"):
        assert getattr(native, name).tobytes() == getattr(reference, name).tobytes(), name


class TestColumnarProgram:
    """``program_blocks`` is the instruction stream, row for row and bit for bit."""

    @pytest.mark.parametrize("schedule", [PaperSchedule(), CompactSchedule()], ids=["paper", "compact"])
    @pytest.mark.parametrize("phase", [1, 2, 3, 4])
    def test_phase_blocks_match_the_instruction_stream(self, schedule, phase):
        algorithm = AlmostUniversalRV(schedule)
        native = _columns(algorithm.phase_blocks(phase))
        reference = _columns(instruction_blocks(algorithm.phase(phase)))
        assert native.complete and reference.complete
        _assert_bit_identical(native, reference)

    def test_phase_five_prefix_matches_the_instruction_stream(self):
        algorithm = AlmostUniversalRV(CompactSchedule())
        rows = 50_000
        native = _columns(algorithm.phase_blocks(5), max_steps=rows)
        reference = _columns(
            instruction_blocks(itertools.islice(algorithm.phase(5), rows)), max_steps=rows
        )
        assert len(native) == len(reference) == rows
        _assert_bit_identical(native, reference)

    def test_max_phase_is_honoured(self):
        algorithm = AlmostUniversalRV(CompactSchedule(), max_phase=3)
        native = _columns(algorithm.program_blocks())
        reference = _columns(instruction_blocks(algorithm.program()))
        assert native.complete
        assert len(native) == sum(len(_columns(instruction_blocks(algorithm.phase(i)))) for i in (1, 2, 3))
        _assert_bit_identical(native, reference)

    def test_phase_override_falls_back_to_the_adapter(self):
        class Tweaked(AlmostUniversalRV):
            def phase(self, i):
                yield Wait(float(i))

        table = _columns(Tweaked(PaperSchedule(), max_phase=3).program_blocks())
        assert table.complete
        assert table.duration.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("reader", ["builder", "float", "exact"])
    def test_non_finite_schedule_is_rejected(self, reader):
        # The batch engine's builder and the event engine (both timebases)
        # read blocks through the same validator.
        @dataclasses.dataclass(frozen=True)
        class NanStep(PaperSchedule):
            def rotation_step(self, i):
                return math.nan

        algorithm = AlmostUniversalRV(NanStep(), max_phase=1)
        with pytest.raises(AlgorithmContractError):
            if reader == "builder":
                _columns(algorithm.program_blocks())
            else:
                simulate(Instance(r=0.5, x=3.0, y=0.0), algorithm, timebase=reader)

    @pytest.mark.parametrize("reader", ["builder", "event"])
    def test_columns_parity_contract_checks_native_blocks(self, monkeypatch, reader):
        from repro.motion import compiler

        contract = contracts_core.get("program.columns_parity")
        monkeypatch.setattr(compiler, "_columns_parity_calls", 0)
        fired = contract.fired
        algorithm = AlmostUniversalRV(PaperSchedule(), max_phase=2)
        with _override_mode("raise"):
            if reader == "builder":
                _columns(algorithm.program_blocks())
            else:
                simulate(Instance(r=0.5, x=3.0, y=0.0), algorithm, max_segments=100)
        assert contract.fired > fired

    def test_columns_parity_contract_catches_a_divergent_block(self, monkeypatch):
        from repro.motion import compiler

        monkeypatch.setattr(compiler, "_columns_parity_calls", 0)
        block = ColumnBlock(
            np.array([1.0]), np.array([0.0]), np.array([1.0]),
            reference=lambda: [Move(1.0, -0.0)],  # the signed zero differs
        )
        with _override_mode("raise"), pytest.raises(ContractViolation):
            _columns([block])
