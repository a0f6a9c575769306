"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_classify_arguments(self):
        args = build_parser().parse_args(
            ["classify", "--r", "0.5", "--x", "1", "--y", "1", "--phi", "1.5707", "--chi", "1"]
        )
        assert args.command == "classify"
        assert args.r == 0.5


class TestClassifyCommand:
    def test_type4(self, capsys):
        code = main(["classify", "--r", "0.5", "--x", "1", "--y", "1", "--phi", "1.5707963"])
        out = capsys.readouterr().out
        assert code == 0
        assert "type-4" in out
        assert "feasible          : True" in out
        assert "phase bound" in out

    def test_infeasible(self, capsys):
        code = main(["classify", "--r", "0.5", "--x", "3", "--y", "0", "--t", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "infeasible" in out
        assert "covered by AURV   : False" in out

    def test_invalid_instance_reports_error(self, capsys):
        code = main(["classify", "--r", "-1", "--x", "3", "--y", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_dedicated_simulation(self, capsys):
        code = main(
            ["simulate", "--r", "0.5", "--x", "1", "--y", "1", "--phi", "1.5707963",
             "--algorithm", "dedicated"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rendezvous at" in out

    def test_render_flag(self, capsys):
        code = main(
            ["simulate", "--r", "0.5", "--x", "2", "--y", "1", "--chi", "-1", "--t", "2",
             "--algorithm", "line-search", "--render"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "+--" in out  # the ASCII canvas border

    def test_miss_exit_code(self, capsys):
        argv = ["simulate", "--r", "0.5", "--x", "3", "--y", "0", "--t", "0.5",
                "--algorithm", "stay-put", "--max-time", "10"]
        assert main(argv) == 1
        assert main(argv + ["--allow-miss"]) == 0

    def test_asymmetric_radii(self, capsys):
        code = main(
            ["simulate", "--r", "0.6", "--x", "1", "--y", "1", "--phi", "1.5707963",
             "--t", "0.5", "--radius-a", "0.6", "--radius-b", "0.2",
             "--algorithm", "almost-universal"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "froze at" in out
        assert "rendezvous at" in out

    @pytest.mark.parametrize("flag", [
        ["--kernel-backend", "numpy"],
        ["--kernel-threads", "2"],
        ["--cache-policy", "all"],
    ])
    @pytest.mark.parametrize("command", ["simulate", "experiment", "campaign run",
                                         "campaign resume"])
    def test_removed_execution_flags_are_usage_errors(self, command, flag,
                                                      tmp_path, capsys):
        # The kernel has one implementation, chunks are solved serially and
        # campaign shards always admit only agent A's compiler: the flags
        # that once selected among those are gone, and argparse says so.
        argv = {
            "simulate": ["simulate", "--r", "0.5", "--x", "1", "--y", "1",
                         "--algorithm", "stay-put", "--timebase", "float",
                         "--engine", "vectorized", "--allow-miss"],
            "experiment": ["experiment", "thm31", "--samples", "1", "--no-save"],
            "campaign run": ["campaign", "run", "--campaign-dir",
                             str(tmp_path / "camp"), "--algorithm", "stay-put"],
            "campaign resume": ["campaign", "resume", "--campaign-dir",
                                str(tmp_path / "camp")],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + flag)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "camp").exists()


class TestOtherCommands:
    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "almost-universal" in out and "lemma-3.9" in out

    def test_experiment_figures_no_save(self, capsys):
        assert main(["experiment", "figures", "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "figure5-lemma39-cases" in out
        assert "[saved]" not in out

    def test_experiment_saves_results(self, tmp_path, capsys):
        code = main(["experiment", "thm41", "--samples", "2", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[saved]" in out
        assert any(path.suffix == ".csv" for path in tmp_path.iterdir())


class TestCampaignCommands:
    def _run_args(self, directory, extra=()):
        return [
            "campaign", "run", "--campaign-dir", str(directory),
            "--name", "cli-smoke", "--algorithm", "almost-universal-compact",
            "--classes", "type-1", "--instances-per-cell", "4",
            "--shard-size", "2", "--seed", "5",
            "--max-time", "1e6", "--max-segments", "30000",
            *extra,
        ]

    def test_run_interrupt_resume_report_check(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        # Interrupted run exits 3 and says how to resume.
        code = main(self._run_args(directory, ["--max-shards", "1"]))
        out = capsys.readouterr().out
        assert code == 3
        assert "campaign resume" in out

        # Status and report of the partial campaign also exit 3.
        assert main(["campaign", "status", "--campaign-dir", str(directory)]) == 3
        assert "1/2" in capsys.readouterr().out
        assert main(["campaign", "report", "--campaign-dir", str(directory)]) == 3
        assert "incomplete" in capsys.readouterr().out

        # Resume completes from the stored spec and skips the finished shard.
        code = main(["campaign", "resume", "--campaign-dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 already complete" in out

        # Report renders the aggregate and --check verifies the store.
        code = main(["campaign", "report", "--campaign-dir", str(directory), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "type-1" in out
        assert "[check] OK" in out

    def test_report_check_fails_on_corruption(self, tmp_path, capsys):
        from repro.campaign import CampaignStore

        directory = tmp_path / "camp"
        assert main(self._run_args(directory)) == 0
        capsys.readouterr()
        store = CampaignStore(str(directory))
        record = store.manifest_records()[0]
        with open(store.shard_path(record["shard_id"]), "r+b") as handle:
            handle.write(b"corrupt!")
        code = main(["campaign", "report", "--campaign-dir", str(directory), "--check"])
        assert code == 1
        assert "checksum" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.campaign import CampaignArm, CampaignSpec

        spec = CampaignSpec(
            name="from-file",
            arms=(CampaignArm(algorithm="almost-universal-compact"),),
            classes=("type-1",),
            instances_per_cell=2,
            seed=1,
            simulator={"max_time": 1e6, "max_segments": 30_000},
            shard_size=2,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        code = main([
            "campaign", "run", "--spec", str(spec_path),
            "--campaign-dir", str(tmp_path / "camp"),
        ])
        assert code == 0
        assert "from-file" in capsys.readouterr().out

    def test_run_without_spec_or_algorithm_errors(self, tmp_path, capsys):
        code = main(["campaign", "run", "--campaign-dir", str(tmp_path / "camp")])
        assert code == 2
        assert "--spec" in capsys.readouterr().err

    def test_unknown_class_errors_cleanly(self, tmp_path, capsys):
        code = main([
            "campaign", "run", "--campaign-dir", str(tmp_path / "camp"),
            "--algorithm", "almost-universal-compact", "--classes", "type-9",
        ])
        assert code == 2
        assert "unknown instance class" in capsys.readouterr().err

    def test_experiment_campaign_dir_routes_and_resumes(self, tmp_path, capsys):
        args = [
            "experiment", "section5", "--samples", "2",
            "--campaign-dir", str(tmp_path), "--no-save",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Campaign mode" in out
        assert (tmp_path / "section5" / "manifest.jsonl").exists()
        # Second run resumes from the store: identical table, no recompute.
        assert main(args) == 0
        assert "Campaign mode" in capsys.readouterr().out

    def test_experiment_campaign_dir_rejected_for_unsupported(self, tmp_path, capsys):
        code = main([
            "experiment", "thm41", "--samples", "2",
            "--campaign-dir", str(tmp_path), "--no-save",
        ])
        assert code == 2
        assert "--campaign-dir" in capsys.readouterr().err

    def test_spec_file_conflicts_with_inline_flags(self, tmp_path, capsys):
        from repro.campaign import CampaignArm, CampaignSpec

        spec = CampaignSpec(
            name="from-file",
            arms=(CampaignArm(algorithm="almost-universal-compact"),),
            classes=("type-1",),
            instances_per_cell=2,
            simulator={"max_time": 1e6, "max_segments": 30_000},
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        code = main([
            "campaign", "run", "--spec", str(spec_path),
            "--campaign-dir", str(tmp_path / "camp"), "--seed", "99",
        ])
        assert code == 2
        assert "--seed" in capsys.readouterr().err


class TestCampaignDoctorAndFaultFlags:
    def _run_args(self, directory, extra=()):
        return [
            "campaign", "run", "--campaign-dir", str(directory),
            "--name", "cli-doctor", "--algorithm", "almost-universal-compact",
            "--classes", "type-1", "--instances-per-cell", "4",
            "--shard-size", "2", "--seed", "5",
            "--max-time", "1e6", "--max-segments", "30000",
            *extra,
        ]

    def test_execution_flags_parse_with_defaults(self):
        args = build_parser().parse_args(self._run_args("d"))
        assert args.workers == 1
        assert args.shard_timeout is None
        assert args.max_attempts == 3
        assert args.lease_timeout == 60.0
        args = build_parser().parse_args(self._run_args(
            "d", ["--workers", "4", "--shard-timeout", "30",
                  "--max-attempts", "5", "--lease-timeout", "120"]
        ))
        assert args.workers == 4
        assert args.shard_timeout == 30.0
        assert args.max_attempts == 5
        assert args.lease_timeout == 120.0

    def test_run_with_worker_pool_completes(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        code = main(self._run_args(directory, ["--workers", "2"]))
        out = capsys.readouterr().out
        assert code == 0
        assert "workers: 2" in out
        assert main(["campaign", "report", "--campaign-dir", str(directory), "--check"]) == 0

    def test_invalid_workers_reports_clean_error(self, tmp_path, capsys):
        code = main(self._run_args(tmp_path / "camp", ["--workers", "0"]))
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_doctor_on_healthy_complete_store(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        assert main(self._run_args(directory)) == 0
        capsys.readouterr()
        code = main(["campaign", "doctor", "--campaign-dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[doctor] OK: store is clean and complete" in out

    def test_doctor_on_partial_store_exits_3(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        assert main(self._run_args(directory, ["--max-shards", "1"])) == 3
        capsys.readouterr()
        code = main(["campaign", "doctor", "--campaign-dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 3
        assert "OK but incomplete" in out
        assert "campaign resume" in out

    def test_doctor_repair_recovers_a_corrupt_store(self, tmp_path, capsys):
        from repro.campaign import CampaignStore

        directory = tmp_path / "camp"
        assert main(self._run_args(directory)) == 0
        capsys.readouterr()
        store = CampaignStore(str(directory))
        record = store.manifest_records()[0]
        with open(store.shard_path(record["shard_id"]), "r+b") as handle:
            handle.write(b"corrupt!")

        # Detection: exit 1, the broken shard named.
        code = main(["campaign", "doctor", "--campaign-dir", str(directory)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"[doctor] corrupt: {record['shard_id']}" in captured.out
        assert "FAIL" in captured.err

        # Repair: the corrupt file is deleted, leaving a clean-but-incomplete
        # store (exit 3); resume recomputes exactly that shard; check passes.
        code = main(["campaign", "doctor", "--campaign-dir", str(directory), "--repair"])
        out = capsys.readouterr().out
        assert code == 3
        assert f"repaired: deleted shard {record['shard_id']}" in out
        code = main(["campaign", "resume", "--campaign-dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 already complete" in out
        assert main(["campaign", "report", "--campaign-dir", str(directory), "--check"]) == 0

    def test_quarantined_store_resume_exits_3_with_guidance(self, tmp_path, capsys):
        from repro.campaign import CampaignStore, plan_shards

        directory = tmp_path / "camp"
        assert main(self._run_args(directory, ["--max-shards", "1"])) == 3
        capsys.readouterr()
        store = CampaignStore(str(directory))
        plan = plan_shards(store.load_spec())
        pending = [shard for shard in plan if shard.shard_id not in store.completed()]
        store.quarantine(pending[0], error="poison", attempts=3)

        code = main(["campaign", "resume", "--campaign-dir", str(directory)])
        captured = capsys.readouterr()
        assert code == 3
        assert "degraded: 1 shard(s) quarantined" in captured.err
        assert "doctor" in captured.err

        # Doctor names the quarantined shard; --repair clears it; resume
        # finishes the campaign cleanly.
        code = main(["campaign", "doctor", "--campaign-dir", str(directory), "--repair"])
        out = capsys.readouterr().out
        assert code == 3
        assert f"cleared quarantine {pending[0].shard_id}" in out
        assert main(["campaign", "resume", "--campaign-dir", str(directory)]) == 0


class TestServiceCommands:
    """`repro serve` / `repro submit`, and the CLI-wide exit-code contract.

    The contract (module docstring of :mod:`repro.cli`): 0 success, 2 usage,
    3 ran-but-incomplete (backpressure, draining, partial campaigns),
    1 integrity failure.  Each class is pinned by at least one test here or
    in :class:`TestCampaignCommands` / :class:`TestCampaignDoctorAndFaultFlags`.
    """

    def _submit_args(self, target, extra=()):
        return [
            "submit", *target,
            "--name", "svc-smoke", "--algorithm", "almost-universal-compact",
            "--classes", "type-1", "--instances-per-cell", "4",
            "--shard-size", "2", "--seed", "5",
            "--max-time", "1e6", "--max-segments", "30000",
            *extra,
        ]

    def test_submit_direct_accepts_then_dedups_exit_0(self, tmp_path, capsys):
        target = ["--service-dir", str(tmp_path)]
        assert main(self._submit_args(target)) == 0
        assert "accepted" in capsys.readouterr().out
        assert main(self._submit_args(target)) == 0
        assert "deduplicated" in capsys.readouterr().out

    def test_submit_without_spec_is_usage_error_2(self, tmp_path, capsys):
        code = main(["submit", "--service-dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_unreachable_daemon_is_usage_error_2(self, tmp_path, capsys):
        code = main(self._submit_args(["--url", "http://127.0.0.1:1"]))
        assert code == 2
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_submit_backpressure_exits_3(self, capsys, tmp_path):
        import threading

        from repro.campaign import CampaignArm, CampaignSpec
        from repro.service import ServiceDaemon, make_server

        daemon = ServiceDaemon(tmp_path, depth_limit=1)
        # Ready but never scheduling: occupy the single queue slot directly.
        daemon.recover()
        daemon.queue.record_daemon_start()
        daemon._server = make_server(daemon, "127.0.0.1", 0)
        thread = threading.Thread(target=daemon._server.serve_forever, daemon=True)
        thread.start()
        daemon._ready.set()
        try:
            daemon.queue.submit(
                CampaignSpec(
                    name="occupier",
                    arms=(CampaignArm(algorithm="almost-universal-compact"),),
                    classes=("type-1",),
                    instances_per_cell=2,
                    seed=999,
                    simulator={"max_time": 1e5, "max_segments": 20_000},
                    shard_size=2,
                )
            )
            url = f"http://127.0.0.1:{daemon._server.server_address[1]}"
            code = main(self._submit_args(["--url", url]))
            captured = capsys.readouterr()
            assert code == 3
            assert "refused (429)" in captured.err
        finally:
            daemon._server.shutdown()
            daemon._server.server_close()

    def test_serve_drains_cleanly_on_sigterm_exit_0(self, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--service-dir", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            daemon_file = tmp_path / "daemon.json"
            deadline = time.monotonic() + 60
            while not daemon_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert daemon_file.exists(), process.stderr.read() if process.poll() else "slow start"
            info = json.loads(daemon_file.read_text())
            with urllib.request.urlopen(
                f"http://{info['host']}:{info['port']}/readyz", timeout=10
            ) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        # The drain journaled a clean shutdown and removed daemon.json.
        assert not daemon_file.exists()
        assert '"message": "service daemon stopped cleanly"' in stderr

    def test_status_surfaces_lease_state(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        assert main([
            "campaign", "run", "--campaign-dir", str(directory),
            "--algorithm", "almost-universal-compact", "--classes", "type-1",
            "--instances-per-cell", "4", "--shard-size", "2", "--seed", "5",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--campaign-dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "leases            : 0 active, 0 stale" in out
        assert "quarantined" not in out  # nothing quarantined, line suppressed


class TestCampaignJsonViews:
    """--json on status/report: machine-readable payloads, same exit codes."""

    def _run_args(self, directory, extra=()):
        return [
            "campaign", "run", "--campaign-dir", str(directory),
            "--name", "cli-json", "--algorithm", "almost-universal-compact",
            "--classes", "type-1", "--instances-per-cell", "4",
            "--shard-size", "2", "--seed", "5",
            "--max-time", "1e6", "--max-segments", "30000",
            *extra,
        ]

    def test_status_json_complete_and_partial(self, tmp_path, capsys):
        import json

        directory = tmp_path / "camp"
        assert main(self._run_args(directory, ["--max-shards", "1"])) == 3
        capsys.readouterr()
        code = main([
            "campaign", "status", "--campaign-dir", str(directory), "--json",
        ])
        partial = json.loads(capsys.readouterr().out)
        assert code == 3
        assert partial["shards_complete"] == 1
        assert partial["shards_complete"] < partial["shards_total"]
        assert main(["campaign", "resume", "--campaign-dir", str(directory)]) == 0
        capsys.readouterr()
        code = main([
            "campaign", "status", "--campaign-dir", str(directory), "--json",
        ])
        complete = json.loads(capsys.readouterr().out)
        assert code == 0
        assert complete["shards_complete"] == complete["shards_total"]

    def test_report_json_check_payload(self, tmp_path, capsys):
        import json

        directory = tmp_path / "camp"
        assert main(self._run_args(directory)) == 0
        capsys.readouterr()
        code = main([
            "campaign", "report", "--campaign-dir", str(directory),
            "--check", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["complete"] is True
        assert payload["checked"] is True
        assert payload["name"] == "cli-json"


class TestObservabilityCommands:
    """`campaign profile` and `obs list`: the consumption side of the spans."""

    def _run_args(self, directory, extra=()):
        return [
            "campaign", "run", "--campaign-dir", str(directory),
            "--name", "cli-obs", "--algorithm", "almost-universal-compact",
            "--classes", "type-1", "--instances-per-cell", "4",
            "--shard-size", "2", "--seed", "5",
            "--max-time", "1e6", "--max-segments", "30000",
            *extra,
        ]

    def test_profile_without_phases_exits_incomplete(self, tmp_path, capsys):
        from repro.obs.core import _override_mode

        directory = tmp_path / "camp"
        with _override_mode("off"):
            assert main(self._run_args(directory)) == 0
        capsys.readouterr()
        code = main(["campaign", "profile", "--campaign-dir", str(directory)])
        assert code == 3
        assert "REPRO_OBS" in capsys.readouterr().err

    def test_profile_reports_phase_table_and_attribution(self, tmp_path, capsys):
        import json

        from repro.obs.core import _override_mode

        directory = tmp_path / "camp"
        with _override_mode("on"):
            assert main(self._run_args(directory)) == 0
        capsys.readouterr()
        code = main(["campaign", "profile", "--campaign-dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine.kernel_solve" in out
        assert "% of wall time" in out
        code = main([
            "campaign", "profile", "--campaign-dir", str(directory), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["shards_profiled"] == payload["shards_total"] > 0
        (arm,) = payload["arms"].values()
        assert arm["attribution"] > 0.5
        assert "engine.kernel_solve" in arm["phases"]

    def test_obs_list_prints_the_vocabulary(self, capsys):
        assert main(["obs", "list"]) == 0
        out = capsys.readouterr().out
        assert "engine.kernel_solve" in out
        assert "ipc.bytes" in out
        assert "REPRO_OBS" in out
