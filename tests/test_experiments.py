"""Tests for the experiment drivers and the report machinery (small parameters)."""

import json
import os

import pytest

from repro.experiments.ablation import run_schedule_ablation, run_timebase_ablation
from repro.experiments.figures import (
    all_figures,
    figure1_canonical_line,
    figure2_coordinate_systems,
    figure3_claim31_geometry,
    figure4_endgame_cases,
    figure5_lemma39_cases,
)
from repro.experiments.measure_experiment import run_measure_experiment
from repro.experiments.report import ExperimentResult, format_table, results_directory, write_csv, write_json
from repro.experiments.scaling import run_scaling_experiment
from repro.experiments.theorem31 import infeasibility_lower_bound, run_characterization_experiment
from repro.experiments.theorem32 import run_universal_coverage_experiment
from repro.experiments.theorem41 import run_exception_boundary_experiment
from repro.core.instance import Instance


class TestReport:
    def test_format_table_alignment_and_missing_values(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2.5, "c": None}]
        table = format_table(rows)
        assert "a" in table and "b" in table and "c" in table
        assert "-" in table  # missing/None rendered as a dash

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_write_csv_and_json(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
        csv_path = write_csv(rows, str(tmp_path / "out.csv"))
        assert os.path.exists(csv_path)
        with open(csv_path) as handle:
            header = handle.readline().strip().split(",")
        assert header == ["a", "b", "c"]
        json_path = write_json({"x": [1, 2, 3]}, str(tmp_path / "out.json"))
        with open(json_path) as handle:
            assert json.load(handle) == {"x": [1, 2, 3]}

    def test_experiment_result_render_and_save(self, tmp_path):
        result = ExperimentResult(name="demo exp", rows=[{"k": 1}], notes=["a note"])
        rendered = result.render()
        assert "demo exp" in rendered and "a note" in rendered
        paths = result.save(str(tmp_path))
        assert os.path.exists(paths["csv"]) and os.path.exists(paths["json"])

    def test_results_directory_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "custom"))
        directory = results_directory()
        assert directory.endswith("custom") and os.path.isdir(directory)


class TestFigures:
    def test_figure1(self):
        result = figure1_canonical_line()
        row = result.rows[0]
        assert row["proj_distance"] > 0.0
        assert row["offset_A"] == pytest.approx(-row["offset_B"])
        assert "canonical_line_L" in result.extra["series"]

    def test_figure2_alpha_below_step(self):
        result = figure2_coordinate_systems(phase=2, epoch=1)
        assert result.rows[0]["rotation_step"] == pytest.approx(0.7853981633974483)
        assert "rot_x_axis" in result.extra["series"]

    def test_figure3_bound_holds(self):
        result = figure3_claim31_geometry()
        assert result.rows[0]["bound_holds"]

    def test_figure4_both_cases_meet(self):
        result = figure4_endgame_cases()
        assert len(result.rows) == 2
        assert all(row["met"] for row in result.rows)
        assert set(result.extra["series"]) == {"case_a_crossing", "case_b_grazing"}

    def test_figure5_meets_at_exactly_r(self):
        result = figure5_lemma39_cases()
        assert all(row["met"] for row in result.rows)
        assert all(row["meets_at_exactly_r"] for row in result.rows)

    def test_all_figures(self):
        figures = all_figures()
        assert len(figures) == 5
        assert len({fig.name for fig in figures}) == 5


class TestTheoremExperiments:
    def test_characterization_small(self):
        result = run_characterization_experiment(
            samples_per_class=2, infeasible_samples=2, seed=3, max_segments=150_000
        )
        by_label = {row["label"]: row for row in result.rows}
        for label in ("trivial", "type-1", "type-2", "type-3", "type-4", "S1-boundary", "S2-boundary"):
            assert by_label[label]["success_rate"] == 1.0, label
        assert by_label["infeasible"]["success_rate"] == 0.0
        assert by_label["infeasible"]["lower_bound_respected"] is True

    def test_infeasibility_lower_bound_helper(self):
        inst = Instance(r=0.5, x=3.0, y=0.0, t=0.5)
        assert infeasibility_lower_bound(inst) == pytest.approx(2.5)
        inst2 = Instance(r=0.5, x=3.0, y=0.0, t=0.5, chi=-1)
        assert infeasibility_lower_bound(inst2) == pytest.approx(2.5)

    def test_universal_coverage_small(self):
        result = run_universal_coverage_experiment(
            samples_per_type=2, seed=4, max_segments=400_000
        )
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["success_rate"] == 1.0, row["label"]

    def test_exception_boundary_small(self):
        result = run_exception_boundary_experiment(samples_per_set=2, seed=5, max_segments=150_000)
        by_set = {row["set"]: row for row in result.rows}
        for name in ("S1", "S2"):
            assert by_set[name]["dedicated_success"] == 2
            assert by_set[name]["dedicated_meets_at_exactly_r"] == 2
            assert by_set[name]["universal_success_after_perturbation"] == 2

    def test_universal_coverage_campaign_mode(self, tmp_path):
        """campaign_dir routes the sweep through the orchestrator and resumes."""
        directory = str(tmp_path / "thm32")
        kwargs = dict(
            samples_per_type=2, seed=4, max_segments=400_000,
            timebase="float", max_time=1e9,
        )
        result = run_universal_coverage_experiment(campaign_dir=directory, **kwargs)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["success_rate"] == 1.0, row["label"]
        assert any("Campaign mode" in note for note in result.notes)
        # Re-running aggregates the stored columns without recomputing.
        from repro.campaign import CampaignStore

        manifest_before = CampaignStore(directory).manifest_records()
        again = run_universal_coverage_experiment(campaign_dir=directory, **kwargs)
        assert again.rows == result.rows
        assert CampaignStore(directory).manifest_records() == manifest_before


def _sweeps():
    from repro.experiments.scenarios import run_speed_ratio_experiment, run_stalling_experiment
    from repro.experiments.section5 import run_asymmetric_radius_experiment

    return {
        "thm32": lambda **kw: run_universal_coverage_experiment(
            samples_per_type=2, seed=4, timebase="float", max_time=1e9, **kw
        ),
        "section5": lambda **kw: run_asymmetric_radius_experiment(
            samples_per_type=2, ratios=(1.0, 0.5), **kw
        ),
        "speeds": lambda **kw: run_speed_ratio_experiment(
            samples_per_type=2, factors=(0.5, 2.0), **kw
        ),
        "stalling": lambda **kw: run_stalling_experiment(
            samples_per_type=2, durations=(4.0,), **kw
        ),
    }


@pytest.mark.parametrize("name", ["thm32", "section5", "speeds", "stalling"])
def test_sweep_rows_do_not_depend_on_the_campaign_dir(name, tmp_path, monkeypatch):
    """A sweep without a campaign_dir is the same campaign, run in a temporary dir."""
    import tempfile

    sweep = _sweeps()[name]
    kept = sweep(campaign_dir=str(tmp_path / "kept"))
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    unkept = sweep(campaign_dir=None)
    assert unkept.rows == kept.rows
    assert list(scratch.iterdir()) == []


class TestScalingAndAblation:
    def test_scaling_small(self):
        result = run_scaling_experiment(
            delays=(0.5,), distances=(1.0,), radii=(0.8,), max_segments=300_000
        )
        assert len(result.rows) == 3
        for row in result.rows:
            if "dedicated_met" in row:
                assert row["dedicated_met"]
            assert row.get("universal_met", True)

    def test_timebase_ablation_small(self):
        result = run_timebase_ablation(
            instances=[Instance(r=0.5, x=1.0, y=0.0, tau=0.5, v=1.0, t=0.0)],
            max_segments=200_000,
        )
        # One shallow row plus the deep wait-and-sweep row.
        assert len(result.rows) == 2
        shallow, deep = result.rows
        assert shallow["exact_met"] and shallow["float_met"]
        assert deep["exact_met"]

    def test_schedule_ablation_small(self):
        result = run_schedule_ablation(
            instances=[Instance(r=0.6, x=1.0, y=0.0, t=1.5)], max_segments=200_000
        )
        row = result.rows[0]
        assert row["paper_met"] and row["compact_met"]


class TestMeasureExperiment:
    def test_measure_experiment_small(self):
        result = run_measure_experiment(samples=20_000, seed=1)
        assert any(row["class"] == "infeasible" for row in result.rows)
        assert "boundary_thickness" in result.extra
        assert result.extra["dimension_summary"]["ambient_dimension"] == 7
        assert any("feasible fraction" in note for note in result.notes)


def test_incomplete_sweep_raises_instead_of_tabulating(tmp_path, monkeypatch):
    """A sweep whose campaign stopped short names it, rather than a missing cell."""
    from repro.campaign import CampaignError
    from repro.experiments import sweep
    from repro.experiments.scenarios import run_speed_ratio_experiment

    run_campaign = sweep.run_campaign
    monkeypatch.setattr(
        sweep, "run_campaign", lambda *args, **kw: run_campaign(*args, max_shards=1, **kw)
    )
    with pytest.raises(CampaignError, match="did not complete"):
        run_speed_ratio_experiment(
            samples_per_type=1, factors=(1.0, 2.0), campaign_dir=str(tmp_path / "speeds")
        )


def test_failed_sweep_reports_the_shard_traceback(monkeypatch):
    """A sweep in a temporary directory fails at once, naming the original error."""
    from repro.campaign import CampaignError
    from repro.campaign.executor import FaultInjection
    from repro.experiments import sweep
    from repro.experiments.scenarios import run_speed_ratio_experiment

    dispatched = []

    def fail(shard):
        dispatched.append(shard)
        raise FaultInjection("fail")

    run_campaign = sweep.run_campaign
    monkeypatch.setattr(
        sweep, "run_campaign", lambda *args, **kw: run_campaign(*args, shard_hook=fail, **kw)
    )
    with pytest.raises(CampaignError) as caught:
        run_speed_ratio_experiment(samples_per_type=1, factors=(2.0,))
    message = str(caught.value)
    assert "Traceback" in message
    assert "RuntimeError: injected shard fault" in message
    # No retries in a temporary directory: one dispatch per shard.
    assert len(dispatched) == len({shard.shard_id for shard in dispatched})
