"""Batch runner for simulation campaigns: vectorized groups, event-engine rest.

The Monte-Carlo experiments (Theorem 3.1 / 3.2 characterization sweeps,
scaling studies) simulate hundreds of independent instances.  Since the
vectorized batch engine (:mod:`repro.sim.batch`, one round driver behind
two entry points) solves whole campaigns as array code, the runner's default
mode groups compatible tasks by (algorithm, options) and dispatches each
group to :func:`repro.sim.batch.simulate_batch` (or its asymmetric-radius
counterpart for tasks with per-agent radii).  Tasks the vectorized engine
cannot take (exact timebase — authoritative for the S1/S2 boundary runs —
trajectory recording, ``raise_on_budget``, an explicit ``engine`` option)
run through the per-task event engine.  Everything runs in the calling
process: parallelism is shard-granular (``repro campaign run --workers N``,
see :mod:`repro.campaign.executor`), so results never depend on which
process computed them.

Tasks are *descriptions* (instance dict + algorithm name + simulator
options), not live objects, and results come back as flat records (dicts of
scalars), not :class:`SimulationResult` objects, so a campaign shard can be
shipped to a worker and its table assembled without trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.registry import get_algorithm
from repro.core.instance import Instance
from repro.obs import core as _obs
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import RendezvousSimulator
from repro.sim.results import AsymmetricOutcome, SimulationResult


@dataclass(frozen=True)
class BatchTask:
    """One simulation to run: an instance, an algorithm name, simulator options."""

    instance: Dict[str, float]
    algorithm: str
    simulator_options: Dict[str, Any] = field(default_factory=dict)
    tag: str = ""

    @staticmethod
    def make(
        instance: Instance,
        algorithm: str,
        *,
        tag: str = "",
        **simulator_options: Any,
    ) -> "BatchTask":
        """Build a task from a live :class:`Instance`."""
        return BatchTask(
            instance=instance.as_dict(),
            algorithm=algorithm,
            simulator_options=dict(simulator_options),
            tag=tag,
        )


def _task_record(
    task: BatchTask, result: SimulationResult, outcome: Optional[AsymmetricOutcome]
) -> Dict[str, Any]:
    """The flat record of one task; ``outcome`` adds the freeze event of a radii task."""
    record = result.as_record()
    record["tag"] = task.tag
    if outcome is not None:
        # The campaign store and the Section 5 sweep aggregate these columns.
        record["frozen_agent"] = outcome.frozen_agent
        record["freeze_time"] = outcome.freeze_time
        record["freeze_distance"] = outcome.freeze_distance
    return record


def _execute_task(task: BatchTask) -> Dict[str, Any]:
    """Run one task through the event engine and return a flat result record."""
    instance = Instance.from_dict(task.instance)
    algorithm = get_algorithm(task.algorithm)
    simulator = RendezvousSimulator(**task.simulator_options)
    outcome = simulator._run(instance, algorithm, "BatchRunner")
    return _task_record(task, outcome.result, outcome if _is_asymmetric(task) else None)


#: Simulator options the vectorized engine understands.  A task carrying any
#: other option (or a non-float timebase) is not vectorizable.  Tasks with
#: ``radius_a``/``radius_b`` route to the asymmetric-radius entry point.
_VECTORIZABLE_OPTIONS = frozenset(
    {
        "max_time",
        "max_segments",
        "radius_slack",
        "track_min_distance",
        "timebase",
        "radius_a",
        "radius_b",
        "speed_a",
        "speed_b",
        "stall_agent",
        "stall_time",
        "stall_duration",
    }
)

#: Options that become per-instance *columns* of one stacked batch call
#: rather than part of the grouping key: a whole radius-ratio sweep, a speed
#: grid or a ranged stall schedule with distinct per-task values is one batch
#: engine call.  ``stall_agent`` stays in the key — the batch engine takes
#: one stalled agent per call, so groups are all-stall-A, all-stall-B or
#: stall-free.
_COLUMN_OPTIONS = frozenset(
    {"radius_a", "radius_b", "speed_a", "speed_b", "stall_time", "stall_duration"}
)


def _vectorizable(task: BatchTask) -> bool:
    """Whether the vectorized engine can take this task verbatim."""
    options = task.simulator_options
    if not _VECTORIZABLE_OPTIONS.issuperset(options):
        return False
    return options.get("timebase", "float") == "float"


def _is_asymmetric(task: BatchTask) -> bool:
    options = task.simulator_options
    return "radius_a" in options or "radius_b" in options


def event_routed_radii(task: BatchTask) -> bool:
    """Whether ``task`` carries per-agent radii and runs on the event engine."""
    return _is_asymmetric(task) and not _vectorizable(task)


def _execute_vectorized_group(tasks: Sequence[BatchTask]) -> List[Dict[str, Any]]:
    """Run one compatible group through the batch engine, inline.

    Symmetric groups go to :func:`repro.sim.batch.simulate_batch`.  Groups
    carrying per-agent radii go to
    :func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric` with the
    tasks' radii stacked into per-instance columns — tasks of one group may
    carry *different* radii (the engine takes per-instance arrays), with an
    unset radius defaulting to that task's instance ``r``.  Records are the
    embedded :class:`SimulationResult`, so every path produces the same
    schema as the event-engine fallback.
    """
    options = {
        key: value
        for key, value in tasks[0].simulator_options.items()
        if key != "timebase" and key not in _COLUMN_OPTIONS
    }
    with _obs.span("campaign.sample"):
        instances = [Instance.from_dict(task.instance) for task in tasks]
    algorithm = get_algorithm(tasks[0].algorithm)
    # Stack the scenario column options into per-instance arrays (a task
    # without a value gets the neutral default, like an unset radius).
    for key in ("speed_a", "speed_b"):
        if any(key in task.simulator_options for task in tasks):
            options[key] = [
                task.simulator_options.get(key, 1.0) for task in tasks
            ]
    if "stall_agent" in options:
        try:
            options["stall_time"] = [
                float(task.simulator_options["stall_time"]) for task in tasks
            ]
            options["stall_duration"] = [
                float(task.simulator_options["stall_duration"]) for task in tasks
            ]
        except KeyError:
            raise ValueError(
                "tasks with stall_agent must carry stall_time and stall_duration"
            ) from None
    if any(_is_asymmetric(task) for task in tasks):
        radii_a = [
            task.simulator_options.get("radius_a", instance.r)
            for task, instance in zip(tasks, instances)
        ]
        radii_b = [
            task.simulator_options.get("radius_b", instance.r)
            for task, instance in zip(tasks, instances)
        ]
        outcomes = simulate_batch_asymmetric(
            instances, algorithm, radius_a=radii_a, radius_b=radii_b, **options
        )
        results = [outcome.result for outcome in outcomes]
    else:
        outcomes = None
        results = simulate_batch(instances, algorithm, **options)
    with _obs.span("campaign.collate"):
        return [
            _task_record(task, result, None if outcomes is None else outcomes[k])
            for k, (task, result) in enumerate(zip(tasks, results))
        ]


@dataclass
class BatchRunner:
    """Runs batches of :class:`BatchTask`: vectorized groups, event-engine rest.

    Parameters
    ----------
    engine:
        ``"auto"`` (default) sends vectorizable tasks (float timebase, only
        options the batch engine understands) through
        :func:`repro.sim.batch.simulate_batch` — or, for tasks carrying
        per-agent ``radius_a``/``radius_b``, through
        :func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric` —
        and the rest through the per-task event engine; ``"event"`` forces
        the per-task path for everything; ``"vectorized"`` requires every
        task to be vectorizable (raises ``ValueError`` otherwise).

    This is also the campaign shard body's dispatcher
    (:mod:`repro.campaign.executor`): every shard slot, in-process or
    spawned, takes one ``run()`` call per shard.
    """

    engine: str = "auto"

    def run(self, tasks: Sequence[BatchTask]) -> List[Dict[str, Any]]:
        """Execute all tasks and return their result records, input order preserved."""
        tasks = list(tasks)
        if self.engine not in ("auto", "vectorized", "event"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected 'auto', 'vectorized' or 'event'"
            )
        if self.engine == "event":
            return [_execute_task(task) for task in tasks]

        vector_indices = [i for i, task in enumerate(tasks) if _vectorizable(task)]
        if self.engine == "vectorized" and len(vector_indices) < len(tasks):
            rejected = next(t for i, t in enumerate(tasks) if i not in set(vector_indices))
            raise ValueError(
                "engine='vectorized' requires float-timebase tasks with batch-"
                f"compatible options; offending options: {rejected.simulator_options!r}"
            )

        records: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        # Group vectorizable tasks: each group is one batch-engine call.
        # Per-agent radii are *column* options — they stack into per-instance
        # arrays instead of splitting the group — so the key is (algorithm,
        # asymmetric?, remaining options): a whole radius-ratio sweep lands
        # in one call.
        groups: Dict[Tuple, List[int]] = {}
        for i in vector_indices:
            task = tasks[i]
            key_options = tuple(
                sorted(
                    item
                    for item in task.simulator_options.items()
                    if item[0] not in _COLUMN_OPTIONS
                )
            )
            key = (task.algorithm, _is_asymmetric(task), key_options)
            groups.setdefault(key, []).append(i)
        for indices in groups.values():
            group_records = _execute_vectorized_group([tasks[i] for i in indices])
            for i, record in zip(indices, group_records):
                records[i] = record

        for i, record in enumerate(records):
            if record is None:
                records[i] = _execute_task(tasks[i])
        return records  # type: ignore[return-value]


def run_batch(
    instances: Iterable[Instance],
    algorithm: str,
    *,
    tag: str = "",
    engine: str = "auto",
    **simulator_options: Any,
) -> List[Dict[str, Any]]:
    """Convenience wrapper: same algorithm and options for every instance."""
    tasks = [
        BatchTask.make(instance, algorithm, tag=tag, **simulator_options)
        for instance in instances
    ]
    return BatchRunner(engine=engine).run(tasks)
