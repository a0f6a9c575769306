"""Boundary-validation audit: campaign entry points reject bad inputs *early*.

Every numeric knob a campaign accepts — spec fields, per-arm simulator
options, orchestrator execution knobs, CLI flags — must fail at construction
time with a clear :class:`CampaignError` naming the offending field, not
hundreds of shards later with a bare numpy ``ValueError`` or an OS error in a
half-written store.  These tests pin that property for each entry point; the
sibling rule (knob validation happens before any directory is touched) is
pinned explicitly for the orchestrator.
"""

import json
import math

import pytest

from repro.campaign import CampaignArm, CampaignError, CampaignSpec
from repro.campaign.orchestrator import run_campaign
from repro.cli import main
from repro.parallel.runner import BatchRunner
from shard_work import spy


def make_spec(**overrides):
    base = dict(
        name="boundary",
        arms=(CampaignArm(algorithm="stay-put"),),
        classes=("type-1",),
        instances_per_cell=4,
        seed=1,
        simulator={"max_time": 100.0},
        shard_size=4,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestSpecCountFields:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_instances_per_cell_must_be_a_positive_int(self, bad):
        with pytest.raises(CampaignError, match="instances_per_cell.*positive integer"):
            make_spec(instances_per_cell=bad)

    @pytest.mark.parametrize("bad", [0, -1, 4.0, True])
    def test_shard_size_must_be_a_positive_int(self, bad):
        # A float shard_size used to survive into plan_shards and fail there
        # with a numpy slicing TypeError; now it names itself.
        with pytest.raises(CampaignError, match="shard_size.*positive integer"):
            make_spec(shard_size=bad)

    @pytest.mark.parametrize("bad", [-1, -(2**40), 0.5, True])
    def test_seed_must_be_a_non_negative_int(self, bad):
        # numpy's SeedSequence only rejects negative entropy once the first
        # shard samples; the spec must refuse upfront instead.
        with pytest.raises(CampaignError, match="seed.*non-negative integer"):
            make_spec(seed=bad)

    def test_zero_seed_is_valid(self):
        assert make_spec(seed=0).seed == 0


class TestSimulatorOptionRanges:
    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, "fast"])
    def test_max_time_default_must_be_positive_finite(self, bad):
        with pytest.raises(CampaignError, match="max_time.*campaign defaults"):
            make_spec(simulator={"max_time": bad})

    @pytest.mark.parametrize("key", ["max_segments"])
    @pytest.mark.parametrize("bad", [0, -10, 2.5])
    def test_integer_options_must_be_positive_ints(self, key, bad):
        with pytest.raises(CampaignError, match=f"{key}.*positive integer"):
            make_spec(simulator={key: bad})

    def test_radius_slack_must_be_non_negative(self):
        with pytest.raises(CampaignError, match="radius_slack.*non-negative"):
            make_spec(simulator={"radius_slack": -1e-9})
        assert make_spec(simulator={"radius_slack": 0.0}) is not None

    def test_bad_arm_override_names_the_arm(self):
        # The engines see campaign defaults merged under the arm's overrides,
        # so the *merged* view is validated and the error names the arm.
        arm = CampaignArm(algorithm="stay-put", label="broken",
                          options={"max_time": -1.0})
        with pytest.raises(CampaignError, match="max_time.*arm 'broken'"):
            make_spec(arms=(arm,))

    def test_bad_campaign_default_fails_even_when_every_arm_overrides_it(self):
        arm = CampaignArm(algorithm="stay-put", options={"max_time": 10.0})
        with pytest.raises(CampaignError, match="campaign defaults"):
            make_spec(arms=(arm,), simulator={"max_time": -1.0})

    @pytest.mark.parametrize("bad", [0.0, -0.25])
    def test_ratio_options_must_be_positive(self, bad):
        with pytest.raises(CampaignError, match="radius_a_ratio"):
            CampaignArm(algorithm="stay-put", options={"radius_a_ratio": bad})

    def test_asymmetric_radii_must_be_positive(self):
        arm = CampaignArm(algorithm="stay-put", options={"radius_a": 0.0})
        with pytest.raises(CampaignError, match="radius_a"):
            make_spec(arms=(arm,))

    def test_simulator_fields_without_a_range_pass_through(self):
        # Every RendezvousSimulator field is a valid option; range checks
        # only cover the numeric keys with a fixed domain.
        spec = make_spec(simulator={"max_time": 10.0, "raise_on_budget": False})
        assert spec.simulator["raise_on_budget"] is False

    def test_none_means_engine_default_and_is_accepted(self):
        assert make_spec(simulator={"radius_a": None}) is not None


class TestUnknownSimulatorOptions:
    """Keys no simulator, ratio or scenario declares fail at the spec.

    Left alone they reach ``RendezvousSimulator(**options)`` as a
    ``TypeError`` in every attempt of every shard, and the executor
    quarantines the whole campaign with zero rows.
    """

    @pytest.mark.parametrize("key", [
        "max_segmnts",        # a typo
        "initial_horizon",    # a batch-engine argument, not a simulator field
        "kernel_threads",     # removed execution knobs
        "kernel_backend",
    ])
    def test_unknown_default_is_named(self, key):
        with pytest.raises(CampaignError, match=f"unknown simulator option.*'{key}'"):
            make_spec(simulator={"max_time": 100.0, key: 1})

    def test_unknown_arm_option_names_key_and_arm(self):
        arm = CampaignArm(algorithm="stay-put", label="typo",
                          options={"radius_b_ration": 0.5})
        with pytest.raises(CampaignError, match="'radius_b_ration' in arm 'typo'"):
            make_spec(arms=(arm,))

    def test_declared_options_are_accepted(self):
        # Simulator fields, ratio conveniences and scenario-declared options
        # (derived ranges included) together make up the accepted set.
        arm = CampaignArm(algorithm="stay-put",
                          options={"radius_a_ratio": 1.0, "radius_b_ratio": 0.5})
        spec = make_spec(arms=(arm,), simulator={
            "max_time": 100.0, "timebase": "float", "track_min_distance": False,
            "speed_b": 0.5, "stall_agent": "A", "stall_time_range": [0.0, 1.0],
            "stall_duration": 1.0,
        })
        assert spec.arm_options(0)["radius_b_ratio"] == 0.5

    def test_campaign_run_spec_file_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        data = make_spec().as_dict()
        data["simulator"]["max_segmnts"] = 1000
        spec_file.write_text(json.dumps(data))
        target = tmp_path / "never-created"
        code = main(["campaign", "run", "--campaign-dir", str(target),
                     "--spec", str(spec_file)])
        assert code == 2
        assert "max_segmnts" in capsys.readouterr().err
        assert not target.exists()

    def test_campaign_run_spec_with_vectorized_engine_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        data = make_spec().as_dict()
        data["simulator"].update(engine="vectorized", timebase="exact")
        spec_file.write_text(json.dumps(data))
        target = tmp_path / "never-created"
        code = main(["campaign", "run", "--campaign-dir", str(target),
                     "--spec", str(spec_file)])
        assert code == 2
        assert "must be one of 'event', got 'vectorized'" in capsys.readouterr().err
        assert not target.exists()


class TestScenarioOptionBoundary:
    """Scenario-owned options validate at the spec boundary via the registry."""

    @pytest.mark.parametrize("options", [
        {"speed_a": 0.0},
        {"speed_b": -2.0},
        {"speed_a": math.inf},
        {"stall_agent": "A"},
        {"stall_agent": "C", "stall_time": 1.0, "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time": -1.0, "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time": 1.0, "stall_duration": 0.0},
        {"stall_agent": "A", "stall_time_range": [5.0, 2.0], "stall_duration": 1.0},
        {"stall_agent": "A", "stall_time": 1.0, "stall_time_range": [0.0, 2.0],
         "stall_duration": 1.0},
    ])
    def test_bad_scenario_defaults_fail_at_spec_construction(self, options):
        with pytest.raises(CampaignError):
            make_spec(simulator=dict({"max_time": 100.0}, **options))

    def test_bad_scenario_arm_override_names_the_arm(self):
        arm = CampaignArm(algorithm="stay-put", label="limping",
                          options={"speed_a": -1.0})
        with pytest.raises(CampaignError, match="arm 'limping'.*speed_a"):
            make_spec(arms=(arm,))

    def test_valid_scenario_options_accepted(self):
        spec = make_spec(simulator={
            "max_time": 100.0, "speed_a": 2.0, "speed_b": 0.5,
            "stall_agent": "B", "stall_time_range": [0.0, 10.0],
            "stall_duration_range": [0.5, 2.0],
        })
        assert spec.simulator["stall_agent"] == "B"

    def test_stall_range_draws_are_partition_independent(self):
        # The derived stall schedule is a pure function of (spec, arm, class,
        # stream position): re-sharding the campaign must not move any draw.
        from repro.campaign.shards import plan_shards, shard_instances, shard_tasks

        def draws(shard_size):
            spec = make_spec(
                instances_per_cell=8, shard_size=shard_size,
                simulator={"max_time": 100.0, "stall_agent": "A",
                           "stall_time_range": [0.0, 10.0],
                           "stall_duration_range": [1.0, 2.0]},
            )
            out = []
            for shard in plan_shards(spec):
                work = shard_tasks(spec, shard, shard_instances(spec, shard))
                assert not {"stall_time_range", "stall_duration_range"} & set(work.options)
                times, durations = work.columns["stall_time"], work.columns["stall_duration"]
                assert ((0.0 <= times) & (times <= 10.0)).all()
                assert ((1.0 <= durations) & (durations <= 2.0)).all()
                out.extend(zip(times.tolist(), durations.tolist()))
            return out

        assert draws(8) == draws(3) == draws(1)

    def test_stall_draws_differ_across_positions(self, monkeypatch):
        from repro.campaign.shards import plan_shards, shard_instances, shard_tasks

        spec = make_spec(
            instances_per_cell=6, shard_size=6,
            simulator={"max_time": 100.0, "stall_agent": "A",
                       "stall_time_range": [0.0, 10.0],
                       "stall_duration_range": [1.0, 2.0]},
        )
        (shard,) = plan_shards(spec)
        instances = shard_instances(spec, shard)
        work = shard_tasks(spec, shard, instances)
        times = work.columns["stall_time"].tolist()
        assert len(set(times)) == len(times)
        # The drawn schedule is what the shard runs: one batch call takes the
        # per-instance stall columns, the event engine each instance's value.
        calls = spy(monkeypatch, "simulate_batch")
        assert len(BatchRunner().run(work)) == len(instances)
        assert len(calls) == 1 and list(calls[0]["stall_time"]) == times
        assert work.instance_options(2)["stall_time"] == times[2]


class TestOrchestratorKnobs:
    @pytest.mark.parametrize(
        "knob, bad",
        [
            ("max_shards", 0),
            ("max_shards", -2),
            ("workers", 0),
            ("workers", -1),
            ("workers", True),
            ("shard_timeout", 0.0),
            ("shard_timeout", -5.0),
            ("max_attempts", 0),
            ("max_attempts", None),
            ("lease_timeout", 0.0),
            ("lease_timeout", None),
        ],
    )
    def test_non_positive_knobs_raise_before_touching_the_directory(
        self, tmp_path, knob, bad
    ):
        target = tmp_path / "never-created"
        with pytest.raises(CampaignError, match=knob):
            run_campaign(str(target), make_spec(), **{knob: bad})
        # Validation precedes initialization: a refused run leaves no trace.
        assert not target.exists()

    def test_negative_retry_backoff_is_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="retry_backoff"):
            run_campaign(str(tmp_path / "x"), make_spec(), retry_backoff=-0.5)

    def test_zero_retry_backoff_is_allowed(self, tmp_path):
        # 0 disables the backoff sleep; it is a valid (if aggressive) choice.
        stats = run_campaign(str(tmp_path / "c"), make_spec(), retry_backoff=0.0)
        assert stats.shards_executed > 0


class TestCliBoundary:
    def _run(self, tmp_path, *extra):
        return main([
            "campaign", "run",
            "--campaign-dir", str(tmp_path / "cli-campaign"),
            "--algorithm", "stay-put",
            "--classes", "type-1",
            "--instances-per-cell", "4",
            "--max-time", "100",
            *extra,
        ])

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--shard-size", "0"),
            ("--seed", "-1"),
            ("--instances-per-cell", "0"),
            ("--max-time", "0"),
            ("--max-segments", "-5"),
            ("--max-shards", "0"),
            ("--workers", "0"),
            ("--max-attempts", "0"),
            ("--lease-timeout", "0"),
        ],
    )
    def test_bad_flags_exit_2_with_a_named_error(self, tmp_path, capsys, flag, value):
        code = self._run(tmp_path, flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert flag.lstrip("-").replace("-", "_") in err

    def test_valid_flags_run_the_campaign(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
