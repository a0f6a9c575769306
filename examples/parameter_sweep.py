"""Campaign example: sweep a parameter over many instances.

Declares a two-arm campaign (the dedicated witnesses and
``AlmostUniversalRV``) over type-1 and type-4 instances on the exact
timebase, runs it with :func:`repro.experiments.sweep.run_sweep` and writes
the per-(class, algorithm) table under ``results/``.  The sweep runs in this
process in a temporary campaign directory; to keep the columns, resume or
spread the shards over processes, save the spec and use ``repro campaign
run --spec ... --workers N``.

Run with::

    PYTHONPATH=src python examples/parameter_sweep.py
"""

import os

from repro.campaign import CampaignArm, CampaignSpec
from repro.experiments.report import format_table, results_directory, write_csv
from repro.experiments.sweep import run_sweep

SAMPLES_PER_CLASS = 12
CLASSES = ("type-1", "type-4")
ALGORITHMS = ("dedicated", "almost-universal")


def sweep_spec() -> CampaignSpec:
    return CampaignSpec(
        name="parameter-sweep",
        arms=tuple(CampaignArm(algorithm) for algorithm in ALGORITHMS),
        classes=CLASSES,
        instances_per_cell=SAMPLES_PER_CLASS,
        seed=2024,
        sampler={"min_distance": 1.5, "max_distance": 3.0, "min_radius": 0.4, "max_radius": 0.9},
        simulator={
            "max_time": 1e30,
            "max_segments": 400_000,
            "timebase": "exact",
            "radius_slack": 1e-9,
        },
    )


def main() -> None:
    spec = sweep_spec()
    print(f"Running {spec.total_instances} simulations...")
    result = run_sweep(
        spec,
        None,
        ("count", "successes", "meeting_time_mean", "segments_mean"),
        grid=("algorithm", ALGORITHMS),
    )
    print(format_table(result.rows))

    out = os.path.join(results_directory(), "parameter_sweep.csv")
    write_csv(result.rows, out)
    print(f"\nTable written to {out}")


if __name__ == "__main__":
    main()
