"""Campaign example: sweep a parameter over many instances.

Uses the stratified sampler and the batch runner to measure how the meeting
time of ``AlmostUniversalRV`` and of the dedicated witnesses behaves across
a population of type-1 and type-4 instances on the exact timebase, then
writes the aggregate table and the raw records under ``results/``.  The
runner works in this process; for parallel runs, express the sweep as a
campaign and use ``repro campaign run --workers N``.

Run with::

    PYTHONPATH=src python examples/parameter_sweep.py
"""

import os
from collections import defaultdict

from repro.analysis.sampler import InstanceSampler, SamplerConfig
from repro.core.classification import InstanceClass
from repro.experiments.report import format_table, results_directory, write_csv
from repro.parallel.runner import BatchRunner, BatchTask

SAMPLES_PER_CLASS = 12
CLASSES = (InstanceClass.TYPE_1, InstanceClass.TYPE_4)
ALGORITHMS = ("dedicated", "almost-universal")


def build_tasks():
    config = SamplerConfig(min_distance=1.5, max_distance=3.0, min_radius=0.4, max_radius=0.9)
    sampler = InstanceSampler(config, seed=2024)
    tasks = []
    for cls in CLASSES:
        for instance in sampler.batch_of_class(cls, SAMPLES_PER_CLASS):
            for algorithm in ALGORITHMS:
                tasks.append(
                    BatchTask.make(
                        instance,
                        algorithm,
                        tag=cls.value,
                        max_time=1e30,
                        max_segments=400_000,
                        timebase="exact",
                        radius_slack=1e-9,
                    )
                )
    return tasks


def main() -> None:
    tasks = build_tasks()
    print(f"Running {len(tasks)} simulations...")
    records = BatchRunner().run(tasks)

    grouped = defaultdict(list)
    for record in records:
        grouped[(record["tag"], record["algorithm"])].append(record)

    rows = []
    for (cls, algorithm), group in sorted(grouped.items()):
        met = [r for r in group if r["met"]]
        rows.append(
            {
                "class": cls,
                "algorithm": algorithm,
                "runs": len(group),
                "met": len(met),
                "mean meeting time": (
                    round(sum(r["meeting_time"] for r in met) / len(met), 3) if met else None
                ),
                "mean segments": round(sum(r["segments_a"] + r["segments_b"] for r in group) / len(group), 1),
            }
        )
    print(format_table(rows))

    out = os.path.join(results_directory(), "parameter_sweep_records.csv")
    write_csv(records, out)
    print(f"\nRaw per-run records written to {out}")


if __name__ == "__main__":
    main()
