"""Command-line interface.

Five subcommands cover the everyday uses of the library without writing any
Python:

* ``repro classify``   — classify an instance, report feasibility/coverage and
  the analytical phase bound;
* ``repro simulate``   — run one algorithm on one instance (optionally with
  asymmetric visibility radii and an ASCII rendering of the outcome);
* ``repro experiment`` — run one (or all) of the DESIGN.md experiments and
  write the results under ``results/`` (the Monte-Carlo sweeps optionally as
  resumable campaigns via ``--campaign-dir``);
* ``repro campaign``   — run/resume/inspect/repair sharded, checkpointed
  simulation campaigns with an on-disk columnar result store
  (``run | resume | status | report | doctor``), fault-tolerant and
  parallel (``--workers``) with lease-based claims safe for concurrent
  runners;
* ``repro algorithms`` — list the registered algorithms;
* ``repro serve``      — run the campaign service daemon (durable job queue +
  scheduler + HTTP API) over a service directory;
* ``repro submit``     — submit a campaign spec to a running daemon (or
  straight into a service directory's journal when no daemon is up).

The module is also installed as the ``python -m repro`` entry point.

Exit-code contract (every subcommand, tested in ``tests/test_cli.py``):

* ``0`` — success: the command did what was asked and, where applicable,
  the subject is complete and healthy (a finished campaign, a clean store,
  an accepted or deduplicated submission, a cleanly drained daemon);
* ``2`` — usage error: bad flags, invalid spec, an unreachable daemon — nothing was executed (argparse's own convention,
  shared by every :class:`~repro.util.errors.ReproError`);
* ``3`` — ran fine but the subject is not (yet) complete: an interrupted or
  partial campaign, quarantined shards or jobs, a submission refused by
  backpressure or a draining daemon — retry/resume/repair is the remedy;
* ``1`` — integrity failure: checksum mismatches, corrupt stores
  (``report --check``, ``doctor`` without ``--repair``) — data cannot be
  trusted until repaired.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.algorithms.bounds import universal_phase_bound
from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.core.classification import classify
from repro.core.feasibility import feasibility_clause, is_covered_by_universal, is_feasible
from repro.core.instance import Instance
from repro.sim.engine import RendezvousSimulator
from repro.sim.scenarios import registered_scenarios, validate_scenario_options
from repro.util.errors import ReproError


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("instance (r, x, y, phi, tau, v, t, chi)")
    group.add_argument("--r", type=float, required=True, help="visibility radius (> 0)")
    group.add_argument("--x", type=float, required=True, help="x-coordinate of agent B")
    group.add_argument("--y", type=float, required=True, help="y-coordinate of agent B")
    group.add_argument("--phi", type=float, default=0.0, help="orientation of B in [0, 2*pi)")
    group.add_argument("--tau", type=float, default=1.0, help="clock rate of B (> 0)")
    group.add_argument("--v", type=float, default=1.0, help="speed of B (> 0)")
    group.add_argument("--t", type=float, default=0.0, help="wake-up delay of B (>= 0)")
    group.add_argument("--chi", type=int, default=1, choices=(1, -1), help="chirality of B")


def _instance_from_args(args: argparse.Namespace) -> Instance:
    return Instance(
        r=args.r, x=args.x, y=args.y, phi=args.phi, tau=args.tau, v=args.v, t=args.t, chi=args.chi
    )


def _cmd_classify(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    cls = classify(instance)
    print("instance          :", instance.describe())
    print("class             :", cls.value)
    print("feasibility clause:", feasibility_clause(instance).value)
    print("feasible          :", is_feasible(instance))
    print("covered by AURV   :", is_covered_by_universal(instance))
    bound = universal_phase_bound(instance) if cls.is_covered_by_universal else None
    print("phase bound       :", bound if bound is not None else "n/a")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    algorithm = get_algorithm(args.algorithm)
    # Non-default scenario flags, validated by the registry before any work.
    declared = {}
    if args.speed_a != 1.0:
        declared["speed_a"] = args.speed_a
    if args.speed_b != 1.0:
        declared["speed_b"] = args.speed_b
    for key in ("stall_agent", "stall_time", "stall_duration"):
        if getattr(args, key) is not None:
            declared[key] = getattr(args, key)
    simulator = RendezvousSimulator(
        max_time=args.max_time,
        max_segments=args.max_segments,
        timebase=args.timebase,
        record_trajectories=args.render,
        engine=args.engine,
        radius_a=args.radius_a,
        radius_b=args.radius_b,
        speed_a=args.speed_a,
        speed_b=args.speed_b,
        stall_agent=args.stall_agent,
        stall_time=args.stall_time,
        stall_duration=args.stall_duration,
    )
    try:
        validate_scenario_options(declared, "command line", error=ValueError)
        outcome = simulator._run(instance, algorithm, "repro simulate")
    except ValueError as error:
        # Bad option combinations (an exact timebase or --render on the
        # vectorized engine, --render with per-agent radii) are the library's
        # to refuse; they are usage errors here.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if outcome.frozen_agent is not None:
        print(
            f"agent {outcome.frozen_agent} froze at t={outcome.freeze_time:.6g} "
            f"(distance {outcome.freeze_distance:.6g})"
        )
    result = outcome.result
    print(result.summary())
    if args.render:
        from repro.viz.ascii_canvas import render_simulation

        print(render_simulation(result))
    return 0 if result.met or args.allow_miss else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        all_figures,
        run_asymmetric_radius_experiment,
        run_characterization_experiment,
        run_exception_boundary_experiment,
        run_measure_experiment,
        run_scaling_experiment,
        run_schedule_ablation,
        run_speed_ratio_experiment,
        run_stalling_experiment,
        run_timebase_ablation,
        run_universal_coverage_experiment,
    )

    thm31_engine = "vectorized" if args.engine in ("auto", "vectorized") else "event"
    sweep_engine = "event" if args.engine == "event" else "vectorized"
    # The big Monte-Carlo sweeps run as campaigns; --campaign-dir keeps their
    # columns under <dir>/<experiment>/ so each sweep owns its own manifest.
    # The event-engine run of a float sweep is another spec, so it gets its
    # own directory (<dir>/section5-event next to <dir>/section5).
    event_suffix = "-event" if args.engine == "event" else ""

    def campaign_subdir(name: str):
        if args.campaign_dir is None:
            return None
        import os

        return os.path.join(args.campaign_dir, name)

    registry = {
        "figures": lambda: all_figures(),
        "thm31": lambda: run_characterization_experiment(
            samples_per_class=args.samples, engine=thm31_engine
        ),
        "thm32": lambda: run_universal_coverage_experiment(
            samples_per_type=args.samples,
            engine=args.engine,
            campaign_dir=campaign_subdir("thm32"),
            # The vectorized engine is float-only; give it a float-safe horizon.
            **({"timebase": "float", "max_time": 1e9} if args.engine == "vectorized" else {}),
        ),
        "thm41": lambda: run_exception_boundary_experiment(samples_per_set=args.samples),
        "section5": lambda: run_asymmetric_radius_experiment(
            samples_per_type=args.samples,
            engine=sweep_engine,
            campaign_dir=campaign_subdir("section5" + event_suffix),
        ),
        "speeds": lambda: run_speed_ratio_experiment(
            samples_per_type=args.samples,
            engine=sweep_engine,
            campaign_dir=campaign_subdir("speeds" + event_suffix),
        ),
        "stalling": lambda: run_stalling_experiment(
            samples_per_type=args.samples,
            engine=sweep_engine,
            campaign_dir=campaign_subdir("stalling" + event_suffix),
        ),
        "measure": lambda: run_measure_experiment(samples=args.samples * 20_000),
        "scaling": lambda: run_scaling_experiment(),
        "ablation": lambda: [run_timebase_ablation(), run_schedule_ablation()],
    }
    names = list(registry) if args.name == "all" else [args.name]
    campaign_capable = {"thm32", "section5", "speeds", "stalling"}
    if args.campaign_dir is not None and not campaign_capable.intersection(names):
        print(
            "error: --campaign-dir applies to the Monte-Carlo sweeps "
            f"({', '.join(sorted(campaign_capable))}), not {args.name!r}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        outcome = registry[name]()
        results = outcome if isinstance(outcome, list) else [outcome]
        for result in results:
            print(result.render())
            if not args.no_save:
                paths = result.save(args.results_dir)
                print(f"[saved] {paths['csv']}")
            print()
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(f"{name:28s} {get_algorithm(name).name}")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    from repro.sim.events import registered_event_kinds

    print("scenario families:")
    for family in registered_scenarios():
        options = ", ".join(family.options) if family.options else "(none)"
        events = ", ".join(family.event_kinds)
        print(f"  {family.name:22s} events: {events}")
        print(f"  {'':22s} options: {options}")
        print(f"  {'':22s} {family.doc}")
    print("event kinds:")
    for kind in registered_event_kinds():
        print(
            f"  {kind.name:22s} detection={kind.detection} "
            f"resolution={kind.resolution} tracking={kind.tracking_clamp}"
        )
    return 0


# -- campaign subcommands ---------------------------------------------------------------


#: Inline-spec flags and their argparse defaults.  With ``--spec FILE`` these
#: flags have no effect (the file is the spec), so passing any of them
#: alongside ``--spec`` is an error rather than a silent no-op; only
#: ``--shard-size`` is an explicit, documented override.
_INLINE_SPEC_DEFAULTS = {
    "name": "campaign",
    "algorithm": [],
    "classes": "uniform",
    "instances_per_cell": 256,
    "seed": 0,
    "max_time": 1e6,
    "max_segments": 100_000,
    "timebase": "float",
}


def _campaign_spec_from_args(args: argparse.Namespace):
    """The campaign spec of a ``repro campaign run``: a file, or inline flags."""
    from repro.campaign import CampaignArm, CampaignSpec

    if args.spec is not None:
        conflicting = [
            "--" + key.replace("_", "-")
            for key, default in _INLINE_SPEC_DEFAULTS.items()
            if getattr(args, key) != default
        ]
        if conflicting:
            raise ReproError(
                f"--spec conflicts with inline spec flags {', '.join(conflicting)}; "
                "edit the spec file instead (--shard-size is the one supported "
                "override)"
            )
        with open(args.spec) as handle:
            spec = CampaignSpec.from_json(handle.read())
        if args.shard_size is not None:
            # shard_size enters the digest (it defines the shard plan), so an
            # override is a *different* campaign — which is exactly right: the
            # caller asked for a different partition.
            spec = CampaignSpec.from_dict({**spec.as_dict(), "shard_size": args.shard_size})
        return spec
    if not args.algorithm:
        raise ReproError("a campaign spec needs --spec FILE or at least one --algorithm")
    simulator = {"max_time": args.max_time, "max_segments": args.max_segments}
    if args.timebase != "float":
        simulator["timebase"] = args.timebase
    return CampaignSpec(
        name=args.name,
        arms=tuple(CampaignArm(algorithm=name) for name in args.algorithm),
        classes=tuple(args.classes.split(",")),
        instances_per_cell=args.instances_per_cell,
        seed=args.seed,
        simulator=simulator,
        shard_size=args.shard_size if args.shard_size is not None else 256,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import run_campaign

    spec = _campaign_spec_from_args(args) if args.campaign_command == "run" else None
    stats = run_campaign(
        args.campaign_dir,
        spec,
        max_shards=args.max_shards,
        progress=print,
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        max_attempts=args.max_attempts,
        lease_timeout=args.lease_timeout,
    )
    if stats.interrupted:
        print(f"interrupted: resume with `repro campaign resume --campaign-dir {args.campaign_dir}`")
        return 3
    if stats.shards_quarantined:
        print(
            f"degraded: {stats.shards_quarantined} shard(s) quarantined; inspect "
            f"failed/, then `repro campaign doctor --campaign-dir "
            f"{args.campaign_dir} --repair` and resume to retry them",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_campaign_doctor(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, plan_shards

    store = CampaignStore(args.campaign_dir)
    report = store.doctor(
        plan_shards(store.load_spec()),
        repair=args.repair,
        lease_timeout=args.lease_timeout,
    )
    print(
        f"shards            : {report['healthy']} healthy / "
        f"{report['shards_planned']} planned"
    )
    for key in ("corrupt", "wrong_rows", "orphaned", "stale_leases", "quarantined"):
        for shard_id in report[key]:
            print(f"[doctor] {key.replace('_', ' ')}: {shard_id}")
    if report["active_leases"]:
        print(f"[doctor] {len(report['active_leases'])} active lease(s) (runners alive)")
    for action in report["repaired"]:
        print(f"[doctor] repaired: {action}")
    if not report["clean"]:
        print("[doctor] FAIL: integrity problems found (re-run with --repair)",
              file=sys.stderr)
        return 1
    if not report["complete"]:
        print(
            f"[doctor] OK but incomplete: {len(report['incomplete'])} shard(s) to "
            "compute — `repro campaign resume` recomputes exactly those"
        )
        return 3
    print("[doctor] OK: store is clean and complete")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import status_rows
    from repro.experiments.report import format_table

    status = status_rows(args.campaign_dir)
    if args.json:
        print(json.dumps(status, sort_keys=True))
        return 0 if status["shards_complete"] == status["shards_total"] else 3
    print(f"campaign          : {status['name']} [{status['digest']}]")
    print(f"shards complete   : {status['shards_complete']}/{status['shards_total']}")
    print(f"rows stored       : {status['rows_stored']}/{status['rows_total']}")
    print(f"leases            : {status['leases_active']} active, "
          f"{status['leases_stale']} stale")
    if status["quarantined"]:
        print(f"quarantined       : {', '.join(status['quarantined'])}")
    if status["cells"]:
        print()
        print(format_table(status["cells"]))
    return 0 if status["shards_complete"] == status["shards_total"] else 3


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, plan_shards, status_rows
    from repro.experiments.report import format_table, write_csv

    if args.check:
        # Verify *before* aggregating, so a corrupt shard is reported as a
        # named check failure instead of crashing the table render.
        store = CampaignStore(args.campaign_dir)
        problems = store.verify(plan_shards(store.load_spec()))
        if problems:
            if args.json:
                print(json.dumps({"check_failures": problems}, sort_keys=True))
            else:
                for problem in problems:
                    print(f"[check] FAIL: {problem}", file=sys.stderr)
            return 1
    status = status_rows(args.campaign_dir)
    if args.json:
        payload = dict(
            status,
            complete=status["shards_complete"] == status["shards_total"],
            checked=bool(args.check),
        )
        if args.output_csv:
            write_csv(status["cells"], args.output_csv)
            payload["output_csv"] = args.output_csv
        print(json.dumps(payload, sort_keys=True))
        if args.check or payload["complete"]:
            return 0
        return 3
    print(f"== campaign {status['name']} [{status['digest']}] ==")
    print(format_table(status["cells"]))
    if args.output_csv:
        write_csv(status["cells"], args.output_csv)
        print(f"[saved] {args.output_csv}")
    if args.check:
        print(f"[check] OK: {status['shards_total']} shards, "
              f"{status['rows_stored']} rows, checksums verified")
        return 0
    if status["shards_complete"] != status["shards_total"]:
        # Same convention as `status`: a partial aggregate renders, but the
        # exit code says the campaign is not finished.
        print(
            f"(incomplete: {status['shards_complete']}/{status['shards_total']} shards)"
        )
        return 3
    return 0


def _profile_data(campaign_dir: str) -> Dict[str, Any]:
    """Aggregate the manifest's per-shard ``phases`` dicts into an arm profile."""
    from repro.campaign import CampaignStore
    from repro.obs.phases import IPC_BYTES_KEY, IPC_PHASES, WALL_PHASES

    store = CampaignStore(campaign_dir)
    spec = store.load_spec()
    completed = store.completed()
    arms: Dict[str, Dict[str, Any]] = {}
    ipc: List[Dict[str, Any]] = []
    shards_profiled = 0
    for shard_id, record in sorted(
        completed.items(), key=lambda item: item[1].get("index", 0)
    ):
        arm_index = int(record.get("arm", 0))
        label = (
            spec.arms[arm_index].label
            if 0 <= arm_index < len(spec.arms)
            else f"arm-{arm_index}"
        )
        bucket = arms.setdefault(
            label,
            {
                "shards": 0,
                "shards_profiled": 0,
                "rows": 0,
                "wall_seconds": 0.0,
                "phases": {},
                "attributed_seconds": 0.0,
            },
        )
        bucket["shards"] += 1
        bucket["rows"] += int(record.get("rows", 0))
        bucket["wall_seconds"] += float(record.get("wall_seconds", 0.0))
        phases = record.get("phases")
        if not isinstance(phases, dict) or not phases:
            continue
        shards_profiled += 1
        bucket["shards_profiled"] += 1
        for key, value in phases.items():
            if key == IPC_BYTES_KEY:
                continue
            bucket["phases"][key] = bucket["phases"].get(key, 0.0) + float(value)
        bucket["attributed_seconds"] += sum(
            float(phases.get(key, 0.0)) for key in WALL_PHASES
        )
        if any(key in phases for key in IPC_PHASES):
            ipc.append(
                {
                    "shard_id": shard_id,
                    "arm": label,
                    "serialize_seconds": float(phases.get("ipc.serialize", 0.0)),
                    "pipe_send_seconds": float(phases.get("ipc.pipe_send", 0.0)),
                    "bytes": int(phases.get(IPC_BYTES_KEY, 0)),
                }
            )
    for bucket in arms.values():
        wall = bucket["wall_seconds"]
        bucket["attribution"] = (
            round(bucket["attributed_seconds"] / wall, 4) if wall > 0 else None
        )
    return {
        "name": spec.name,
        "digest": spec.digest(),
        "shards_profiled": shards_profiled,
        "shards_total": len(completed),
        "arms": arms,
        "ipc": ipc,
    }


def _cmd_campaign_profile(args: argparse.Namespace) -> int:
    from repro.obs import MODE_ENV
    from repro.obs.phases import WALL_PHASES

    profile = _profile_data(args.campaign_dir)
    if args.json:
        print(json.dumps(profile, sort_keys=True))
        return 0 if profile["shards_profiled"] else 3
    print(f"== campaign {profile['name']} [{profile['digest']}] profile ==")
    if not profile["shards_profiled"]:
        print(
            f"no phase data in the manifest ({profile['shards_total']} shards); "
            f"run the campaign with {MODE_ENV}=on to record phase breakdowns",
            file=sys.stderr,
        )
        return 3
    for label, bucket in sorted(profile["arms"].items()):
        wall = bucket["wall_seconds"]
        rows = bucket["rows"]
        print()
        print(
            f"arm={label}: {bucket['shards']} shards "
            f"({bucket['shards_profiled']} profiled), {rows} rows, "
            f"{wall:.4f}s wall"
        )
        ordered = [key for key in WALL_PHASES if key in bucket["phases"]]
        ordered += sorted(set(bucket["phases"]) - set(WALL_PHASES))
        width = max((len(key) for key in ordered), default=5)
        print(f"  {'phase'.ljust(width)}  {'seconds':>10}  {'% wall':>7}  {'rows/s':>12}")
        for key in ordered:
            seconds = bucket["phases"][key]
            share = f"{seconds / wall:7.1%}" if wall > 0 else "      -"
            rate = f"{rows / seconds:12.0f}" if seconds > 0 else f"{'-':>12}"
            print(f"  {key.ljust(width)}  {seconds:10.4f}  {share}  {rate}")
        if bucket["attribution"] is not None:
            print(
                f"  attributed: {bucket['attribution']:.1%} of wall time "
                f"({bucket['attributed_seconds']:.4f}s of {wall:.4f}s)"
            )
    if profile["ipc"]:
        print()
        print("worker IPC (measured inside the worker, per shard):")
        print(f"  {'shard':<18} {'arm':<16} {'serialize':>10}  {'pipe send':>10}  {'bytes':>10}")
        for row in profile["ipc"]:
            print(
                f"  {row['shard_id'][:16]:<18} {row['arm'][:16]:<16} "
                f"{row['serialize_seconds']:10.6f}  {row['pipe_send_seconds']:10.6f}  "
                f"{row['bytes']:>10}"
            )
    return 0


def _cmd_obs_list(args: argparse.Namespace) -> int:
    from repro import obs

    active = obs.mode()
    print(
        f"observability mode: {active}  (set {obs.MODE_ENV}=off|on; "
        f"{obs.TRACE_ENV}=<path> writes a Chrome/Perfetto trace and implies on)"
    )
    rows = obs.all_instruments()
    width = max(len(instrument.id) for instrument in rows)
    print(f"{'instrument'.ljust(width)}  kind     description")
    for instrument in rows:
        print(f"{instrument.id.ljust(width)}  {instrument.kind:<7}  {instrument.doc}")
    print(f"{len(rows)} instruments registered")
    return 0


# -- service subcommands ----------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging as logging_module

    from repro.service import ServiceDaemon
    from repro.util.logging import get_logger, json_log_handler

    root = get_logger("repro")
    root.addHandler(json_log_handler(sys.stderr))
    root.setLevel(getattr(logging_module, args.log_level.upper()))

    campaign_options = {
        "workers": args.workers,
        "lease_timeout": args.lease_timeout,
    }
    if args.shard_timeout is not None:
        campaign_options["shard_timeout"] = args.shard_timeout
    daemon = ServiceDaemon(
        args.service_dir,
        host=args.host,
        port=args.port,
        depth_limit=args.depth_limit,
        max_concurrent=args.max_concurrent,
        max_attempts=args.max_attempts,
        campaign_options=campaign_options,
    )
    daemon.run_until_signal()
    return 0


def _submit_spec_from_args(args: argparse.Namespace):
    """The spec of a ``repro submit``: same file-or-inline rules as campaign run."""
    return _campaign_spec_from_args(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _submit_spec_from_args(args)
    spec.validate_algorithms()
    url = args.url
    if url is None:
        from repro.service import read_daemon_file

        info = read_daemon_file(args.service_dir)
        if info is not None:
            # A daemon owns the directory: route through its API rather than
            # racing it on the journal (one live writer per directory).
            url = f"http://{info['host']}:{info['port']}"
        else:
            return _submit_direct(args.service_dir, spec)
    return _submit_http(url, spec)


def _submit_direct(service_dir: str, spec) -> int:
    """Journal the submission directly (no daemon running on the directory)."""
    from repro.service import JobQueue

    queue = JobQueue(service_dir)
    job, created = queue.submit(spec)
    verb = "accepted" if created else "deduplicated"
    print(f"{verb}: job {job.digest} ({job.state}); "
          f"a daemon on {service_dir} will run it")
    return 0


def _submit_http(url: str, spec) -> int:
    """POST the spec to a running daemon; exit codes follow the CLI contract."""
    import json as json_module
    import urllib.error
    import urllib.request

    body = spec.to_json().encode()
    request = urllib.request.Request(
        f"{url.rstrip('/')}/campaigns",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json_module.loads(response.read())
            code = response.status
    except urllib.error.HTTPError as error:
        detail = error.read().decode(errors="replace").strip()
        try:
            detail = json_module.loads(detail).get("error", detail)
        except (ValueError, AttributeError):
            pass
        if error.code in (429, 503):
            # Backpressure / draining: the daemon is healthy but refusing new
            # work right now — retry later (same exit class as "incomplete").
            print(f"refused ({error.code}): {detail}", file=sys.stderr)
            return 3
        print(f"error: daemon rejected the submission ({error.code}): {detail}",
              file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as error:
        raise ReproError(f"cannot reach daemon at {url}: {error}")
    verb = "accepted" if code == 201 else "deduplicated"
    print(f"{verb}: job {payload['digest']} ({payload['state']})")
    print(f"status: GET {url.rstrip('/')}/campaigns/{payload['digest']}/status")
    return 0


def _cmd_contracts_list(args: argparse.Namespace) -> int:
    from repro import contracts

    active = contracts.mode()
    print(f"contract checking mode: {active}  (set {contracts.MODE_ENV}=off|check|raise)")
    rows = contracts.all_contracts()
    width = max(len(contract.id) for contract in rows)
    print(f"{'contract'.ljust(width)}  severity  description")
    for contract in rows:
        print(f"{contract.id.ljust(width)}  {contract.severity:<8}  {contract.doc}")
    print(f"{len(rows)} contracts registered")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Almost Universal Anonymous Rendezvous in the Plane — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser("classify", help="classify an instance")
    _add_instance_arguments(classify_parser)
    classify_parser.set_defaults(handler=_cmd_classify)

    simulate_parser = subparsers.add_parser("simulate", help="simulate one algorithm on one instance")
    _add_instance_arguments(simulate_parser)
    simulate_parser.add_argument(
        "--algorithm", default="almost-universal", choices=available_algorithms()
    )
    simulate_parser.add_argument("--max-time", type=float, default=1e12)
    simulate_parser.add_argument("--max-segments", type=int, default=600_000)
    simulate_parser.add_argument("--timebase", default="exact", choices=("float", "exact"))
    simulate_parser.add_argument(
        "--engine", default="event", choices=("event", "vectorized"),
        help="simulation backend (vectorized requires --timebase float)",
    )
    simulate_parser.add_argument("--radius-a", type=float, default=None,
                                 help="agent A's visibility radius (Section 5 extension)")
    simulate_parser.add_argument("--radius-b", type=float, default=None,
                                 help="agent B's visibility radius (Section 5 extension)")
    simulate_parser.add_argument("--speed-a", type=float, default=1.0,
                                 help="agent A's speed factor (heterogeneous-speed scenario)")
    simulate_parser.add_argument("--speed-b", type=float, default=1.0,
                                 help="agent B's speed factor (heterogeneous-speed scenario)")
    simulate_parser.add_argument("--stall-agent", default=None, choices=("A", "B"),
                                 help="agent that stalls once (stalling scenario; "
                                      "requires --stall-time and --stall-duration)")
    simulate_parser.add_argument("--stall-time", type=float, default=None,
                                 help="stall onset in absolute time units (snaps to the "
                                      "next segment boundary)")
    simulate_parser.add_argument("--stall-duration", type=float, default=None,
                                 help="stall length in absolute time units")
    simulate_parser.add_argument("--render", action="store_true", help="ASCII rendering of the run")
    simulate_parser.add_argument(
        "--allow-miss", action="store_true",
        help="exit 0 even when rendezvous does not occur within the budget",
    )
    simulate_parser.set_defaults(handler=_cmd_simulate)

    experiment_parser = subparsers.add_parser("experiment", help="run a DESIGN.md experiment")
    experiment_parser.add_argument(
        "name",
        choices=(
            "figures", "thm31", "thm32", "thm41", "section5",
            "speeds", "stalling", "measure", "scaling", "ablation", "all",
        ),
    )
    experiment_parser.add_argument("--samples", type=int, default=6, help="samples per class/type/set")
    experiment_parser.add_argument(
        "--engine", default="auto", choices=("auto", "event", "vectorized"),
        help="backend for the Monte-Carlo sweeps (thm31, thm32, section5, speeds, stalling)",
    )
    experiment_parser.add_argument("--results-dir", default=None)
    experiment_parser.add_argument(
        "--campaign-dir", default=None, metavar="DIR",
        help="run the Monte-Carlo sweeps (thm32, section5, speeds, stalling) "
             "as checkpointed campaigns under DIR/<experiment>: interrupted "
             "runs resume, finished shards are never recomputed",
    )
    experiment_parser.add_argument("--no-save", action="store_true", help="print only, write nothing")
    experiment_parser.set_defaults(handler=_cmd_experiment)

    algorithms_parser = subparsers.add_parser("algorithms", help="list registered algorithms")
    algorithms_parser.set_defaults(handler=_cmd_algorithms)

    scenarios_parser = subparsers.add_parser(
        "scenarios",
        help="list registered scenario families and event kinds",
    )
    scenarios_parser.set_defaults(handler=_cmd_scenarios)

    contracts_parser = subparsers.add_parser(
        "contracts",
        help="inspect the declared runtime invariants (REPRO_CONTRACTS)",
    )
    contracts_sub = contracts_parser.add_subparsers(
        dest="contracts_command", required=True
    )
    contracts_list = contracts_sub.add_parser(
        "list", help="list every registered contract with severity and doc"
    )
    contracts_list.set_defaults(handler=_cmd_contracts_list)

    obs_parser = subparsers.add_parser(
        "obs",
        help="inspect the declared observability instruments (REPRO_OBS)",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_list = obs_sub.add_parser(
        "list", help="list every declared span and counter with its doc"
    )
    obs_list.set_defaults(handler=_cmd_obs_list)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="sharded, checkpointed, resumable simulation campaigns",
        description="Run simulation campaigns as checkpointed shards in a campaign "
                    "directory: `run` executes (or continues) a campaign, `resume` "
                    "continues one from its stored spec, `status`/`report` summarize "
                    "the on-disk columns by streaming them (exit code 3 = incomplete), "
                    "`doctor` verifies (and with --repair, fixes) store integrity. "
                    "Execution is fault-tolerant: `--workers N` fans whole shards out "
                    "over N spawned worker processes that survive worker death, "
                    "hangs and poison shards (the only way to run a campaign, "
                    "exact timebase included, in parallel), and lease files make "
                    "concurrent runners on one store safe.",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    def _add_execution_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--campaign-dir", required=True, metavar="DIR",
                         help="campaign directory (spec + manifest + shard columns)")
        sub.add_argument("--max-shards", type=int, default=None, metavar="N",
                         help="stop after N shards (exit code 3; resume later)")
        sub.add_argument("--workers", type=int, default=1, metavar="N",
                         help="shard slots: 1 computes shards in-process, >= 2 "
                              "spawns that many worker processes (adding per-shard "
                              "timeouts and worker-death recovery); retries, "
                              "quarantine and leases work for every value, and "
                              "results are byte-identical for every value")
        sub.add_argument("--shard-timeout", type=float, default=None, metavar="SEC",
                         help="kill and retry a shard attempt running longer than "
                              "SEC seconds (needs --workers >= 2)")
        sub.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="attempts per shard before it is quarantined to the "
                              "failed/ ledger and the campaign continues without it")
        sub.add_argument("--lease-timeout", type=float, default=60.0, metavar="SEC",
                         help="seconds without a heartbeat before a shard lease "
                              "counts as stale and may be taken over (keep above "
                              "the slowest shard's wall time)")

    def _add_spec_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--spec", default=None, metavar="FILE",
                         help="campaign spec JSON (alternative: the inline "
                              "--algorithm/--classes/... flags below)")
        sub.add_argument("--name", default="campaign", help="inline spec: campaign name")
        sub.add_argument("--algorithm", action="append", default=[], metavar="NAME",
                         help="inline spec: algorithm arm (repeatable)")
        sub.add_argument("--classes", default="uniform",
                         help="inline spec: comma-separated instance classes "
                              "(e.g. type-1,type-2) or 'uniform'")
        sub.add_argument("--instances-per-cell", type=int, default=256,
                         help="inline spec: instances sampled per class")
        sub.add_argument("--seed", type=int, default=0, help="inline spec: master seed")
        sub.add_argument("--max-time", type=float, default=1e6,
                         help="inline spec: simulated-time budget")
        sub.add_argument("--max-segments", type=int, default=100_000,
                         help="inline spec: combined segment budget")
        sub.add_argument("--timebase", default="float", choices=("float", "exact"),
                         help="inline spec: timebase (exact forces the event engine)")
        sub.add_argument("--shard-size", type=int, default=None, metavar="N",
                         help="instances per shard (changes the shard plan, "
                              "i.e. the campaign identity)")

    campaign_run = campaign_sub.add_parser(
        "run", help="run a campaign (continues an existing directory)")
    _add_spec_arguments(campaign_run)
    _add_execution_arguments(campaign_run)
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="continue a campaign from its stored spec")
    _add_execution_arguments(campaign_resume)
    campaign_resume.set_defaults(handler=_cmd_campaign_run)

    campaign_status = campaign_sub.add_parser(
        "status", help="shard completion and streaming per-cell aggregates")
    campaign_status.add_argument("--campaign-dir", required=True, metavar="DIR")
    campaign_status.add_argument("--json", action="store_true",
                                 help="emit the status as one JSON object "
                                      "(same exit-code contract)")
    campaign_status.set_defaults(handler=_cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate table over the stored columns")
    campaign_report.add_argument("--campaign-dir", required=True, metavar="DIR")
    campaign_report.add_argument("--output-csv", default=None, metavar="FILE",
                                 help="also write the table as CSV")
    campaign_report.add_argument("--check", action="store_true",
                                 help="verify completeness and shard checksums; "
                                      "non-zero exit on any problem")
    campaign_report.add_argument("--json", action="store_true",
                                 help="emit the report as one JSON object "
                                      "(same exit-code contract)")
    campaign_report.set_defaults(handler=_cmd_campaign_report)

    campaign_profile = campaign_sub.add_parser(
        "profile",
        help="phase-level wall-time breakdown per arm from the manifest's "
             "observability records (campaigns run with REPRO_OBS=on)",
    )
    campaign_profile.add_argument("--campaign-dir", required=True, metavar="DIR")
    campaign_profile.add_argument("--json", action="store_true",
                                  help="emit the profile as one JSON object")
    campaign_profile.set_defaults(handler=_cmd_campaign_profile)

    campaign_doctor = campaign_sub.add_parser(
        "doctor",
        help="verify store integrity (checksums, orphans, leases, quarantine); "
             "--repair deletes the broken pieces so resume recomputes them",
    )
    campaign_doctor.add_argument("--campaign-dir", required=True, metavar="DIR")
    campaign_doctor.add_argument("--repair", action="store_true",
                                 help="delete corrupt/orphaned shard files and "
                                      "stale leases, clear the quarantine ledger "
                                      "(healthy shards and fresh leases are never "
                                      "touched)")
    campaign_doctor.add_argument("--lease-timeout", type=float, default=60.0,
                                 metavar="SEC",
                                 help="staleness threshold for lease files")
    campaign_doctor.set_defaults(handler=_cmd_campaign_doctor)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the campaign service daemon (durable queue + scheduler + "
             "HTTP API) over a service directory",
    )
    serve_parser.add_argument("--service-dir", required=True, metavar="DIR",
                              help="service directory (journal, stores/, daemon.json)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: loopback)")
    serve_parser.add_argument("--port", type=int, default=0, metavar="N",
                              help="bind port (default 0 = ephemeral; the bound "
                                   "port is published in daemon.json)")
    serve_parser.add_argument("--depth-limit", type=int, default=None, metavar="N",
                              help="max unfinished jobs before submissions are "
                                   "refused with 429 (default: unbounded)")
    serve_parser.add_argument("--max-concurrent", type=int, default=1, metavar="N",
                              help="campaigns run at once (shards parallelize "
                                   "via --workers inside each)")
    serve_parser.add_argument("--max-attempts", type=int, default=3, metavar="N",
                              help="dispatches per job before it is quarantined")
    serve_parser.add_argument("--workers", type=int, default=1, metavar="N",
                              help="shard workers per campaign run; >= 2 spawns "
                                   "them at the first job and keeps them for later jobs")
    serve_parser.add_argument("--shard-timeout", type=float, default=None, metavar="SEC",
                              help="per-shard deadline (needs --workers >= 2)")
    serve_parser.add_argument("--lease-timeout", type=float, default=60.0, metavar="SEC",
                              help="shard lease staleness threshold")
    serve_parser.add_argument("--log-level", default="info",
                              choices=("debug", "info", "warning", "error"),
                              help="JSON-lines log level on stderr")
    serve_parser.set_defaults(handler=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit a campaign spec to the service (idempotent by spec digest)",
    )
    target = submit_parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", default=None, metavar="URL",
                        help="base URL of a running daemon (e.g. "
                             "http://127.0.0.1:8440)")
    target.add_argument("--service-dir", default=None, metavar="DIR",
                        help="service directory; routes to its daemon when one "
                             "is serving (daemon.json), else journals directly")
    _add_spec_arguments(submit_parser)
    submit_parser.set_defaults(handler=_cmd_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
