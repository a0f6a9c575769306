"""Check the stores a ``service-campaigns`` run left behind (untimed).

    python3 perfbench/service_verify.py JOBS.json

``JOBS.json`` lists ``{"service_dir", "digest", "spec", "reference"}``.  For
each job: ``repro campaign report --check`` must pass on its store, and its
exported columns must be byte-identical to an inline ``run_campaign`` of the
same spec written to ``reference``.  Prints one JSON line with a verdict and
the manifest's per-shard wall seconds for every job.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main() -> int:
    from repro.campaign import CampaignSpec, CampaignStore, run_campaign
    from repro.cli import main as cli_main
    from repro.service.queue import JobQueue

    with open(sys.argv[1]) as handle:
        jobs = json.load(handle)
    verdicts = []
    for job in jobs:
        store_dir = os.path.join(job["service_dir"], JobQueue.STORE_DIR, job["digest"])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            check = cli_main(["campaign", "report", "--campaign-dir", store_dir, "--check"])
        reference = run_campaign(job["reference"], CampaignSpec.from_dict(job["spec"]))
        served = CampaignStore(store_dir).export_columns()
        inline = CampaignStore(job["reference"]).export_columns()
        identical = reference.complete and served.keys() == inline.keys() and all(
            served[name].tobytes() == inline[name].tobytes() for name in inline
        )
        walls = [
            record["wall_seconds"] for record in CampaignStore(store_dir).completed().values()
        ]
        verdicts.append(
            {"digest": job["digest"], "check": check, "identical": identical, "shard_walls": walls}
        )
    print(json.dumps({"jobs": verdicts, "env": common.environment()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
