"""Batch runner for simulation campaigns: vectorized inline, pooled fallback.

The Monte-Carlo experiments (Theorem 3.1 / 3.2 characterization sweeps,
scaling studies) simulate hundreds of independent instances.  Since the
vectorized batch engine (:mod:`repro.sim.batch`, one round driver behind
two entry points) solves whole campaigns as array code, the runner's default
mode groups compatible tasks by (algorithm, options) and dispatches each
group to :func:`repro.sim.batch.simulate_batch` (or its asymmetric-radius
counterpart for tasks with per-agent radii) *inline* — no worker processes,
and therefore results that are bit-identical regardless of any worker count.
Tasks the vectorized engine cannot take (exact timebase — authoritative for
the S1/S2 boundary runs — trajectory recording, ``raise_on_budget``) fall
back to the per-task event engine, optionally across a process pool.

Design notes, following the hpc-parallel guides:

* tasks are *descriptions* (instance dict + algorithm name + simulator
  options), not live objects, so they pickle cheaply and deterministically;
* the worker re-instantiates the algorithm from the registry by name;
* results come back as flat records (dicts of scalars), not
  :class:`SimulationResult` objects, so the driver can assemble a numpy /
  CSV table without shipping trajectories between processes;
* ``processes=1`` (or batches smaller than ``min_parallel``) bypasses the pool
  entirely, which keeps unit tests fast and stack traces readable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.registry import get_algorithm
from repro.core.instance import Instance
from repro.obs import core as _obs
from repro.sim.batch import simulate_batch
from repro.sim.batch_asymmetric import simulate_batch_asymmetric
from repro.sim.engine import RendezvousSimulator


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


def _execute_task(task: BatchTask) -> Dict[str, Any]:
    """Worker entry point: run one task and return a flat result record."""
    instance = Instance.from_dict(task.instance)
    algorithm = get_algorithm(task.algorithm)
    simulator = RendezvousSimulator(**task.simulator_options)
    result = simulator.run(instance, algorithm)
    record = result.as_record()
    record["tag"] = task.tag
    return record


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
        "kernel_backend",
        "kernel_threads",
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
    options["backend"] = options.pop("kernel_backend", None)
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
        records = []
        for k, (task, result) in enumerate(zip(tasks, results)):
            record = result.as_record()
            record["tag"] = task.tag
            if outcomes is not None:
                # Surface the asymmetric engine's freeze event; the campaign
                # store and the Section 5 sweep aggregate these columns.  The
                # event-engine fallback has no record-level freeze channel, so
                # the keys mark the difference between "did not freeze" and
                # "not recorded".
                record["frozen_agent"] = outcomes[k].frozen_agent
                record["freeze_time"] = outcomes[k].freeze_time
                record["freeze_distance"] = outcomes[k].freeze_distance
            records.append(record)
        return records


@dataclass
class BatchRunner:
    """Runs batches of :class:`BatchTask`: vectorized inline, pooled fallback.

    Parameters
    ----------
    engine:
        ``"auto"`` (default) sends vectorizable tasks (float timebase, only
        options the batch engine understands) through
        :func:`repro.sim.batch.simulate_batch` — or, for tasks carrying
        per-agent ``radius_a``/``radius_b``, through
        :func:`repro.sim.batch_asymmetric.simulate_batch_asymmetric` —
        inline, and the rest through the per-task event engine; ``"event"``
        forces the per-task path for everything; ``"vectorized"`` requires
        every task to be vectorizable (raises ``ValueError`` otherwise).
    processes:
        Worker processes for the per-task fallback.  ``None`` uses
        ``os.cpu_count() - 1`` (at least 1); ``1`` runs everything inline.
        The vectorized path never uses workers: results are identical for
        every ``processes`` value.
    min_parallel:
        Fallback batches smaller than this run inline even when
        ``processes > 1`` — the pool start-up cost would dominate.
    chunksize:
        Tasks handed to a worker at a time (``None`` lets the runner pick
        roughly ``len(tasks) / (4 * processes)``).

    The fallback's worker pool is a persistent
    :class:`concurrent.futures.ProcessPoolExecutor`, created lazily on the
    first pooled run and reused across ``run()`` calls, so repeated campaigns
    pay the spawn cost once.  Call :meth:`close` (or use the runner as a
    context manager) to release it; a closed runner stays usable and simply
    respawns on demand.

    This is also the campaign orchestrator's shard dispatcher
    (:func:`repro.campaign.orchestrator.run_campaign`): one runner spans the
    whole campaign and takes one ``run()`` call per shard, so vectorizable
    shards execute as single inline batch-engine calls while exact-timebase
    shards amortize the worker pool's spawn cost across every shard of the
    campaign.
    """

    engine: str = "auto"
    processes: Optional[int] = None
    min_parallel: int = 8
    chunksize: Optional[int] = None
    _executor: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )
    _executor_workers: int = field(default=0, init=False, repr=False, compare=False)

    def resolved_processes(self) -> int:
        if self.processes is not None:
            return max(1, int(self.processes))
        return max(1, (os.cpu_count() or 2) - 1)

    def run(self, tasks: Sequence[BatchTask]) -> List[Dict[str, Any]]:
        """Execute all tasks and return their result records, input order preserved."""
        tasks = list(tasks)
        if self.engine not in ("auto", "vectorized", "event"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected 'auto', 'vectorized' or 'event'"
            )
        if self.engine == "event":
            return self._run_event(tasks)

        vector_indices = [i for i, task in enumerate(tasks) if _vectorizable(task)]
        if self.engine == "vectorized" and len(vector_indices) < len(tasks):
            rejected = next(t for i, t in enumerate(tasks) if i not in set(vector_indices))
            raise ValueError(
                "engine='vectorized' requires float-timebase tasks with batch-"
                f"compatible options; offending options: {rejected.simulator_options!r}"
            )

        records: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        # Group vectorizable tasks: each group is one inline batch-engine
        # call, deterministic and worker-free.  Per-agent radii are *column*
        # options — they stack into per-instance arrays instead of splitting
        # the group — so the key is (algorithm, asymmetric?, remaining
        # options): a whole radius-ratio sweep lands in one call.
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

        fallback = [i for i in range(len(tasks)) if records[i] is None]
        if fallback:
            fallback_records = self._run_event([tasks[i] for i in fallback])
            for i, record in zip(fallback, fallback_records):
                records[i] = record
        return records  # type: ignore[return-value]

    def _run_event(self, tasks: Sequence[BatchTask]) -> List[Dict[str, Any]]:
        """The per-task event-engine path, pooled when the batch warrants it."""
        workers = self.resolved_processes()
        if workers <= 1 or len(tasks) < self.min_parallel:
            return [_execute_task(task) for task in tasks]
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, len(tasks) // (4 * workers))
        executor = self._ensure_executor(workers)
        return list(executor.map(_execute_task, list(tasks), chunksize=chunksize))

    def _ensure_executor(self, workers: int) -> ProcessPoolExecutor:
        """The lazily created, reusable worker pool of the event fallback.

        Spawn cost is paid once per runner (not once per ``run()`` call) and
        amortized across repeated campaigns; workers are spawned — not forked
        — for determinism and platform parity.  A changed ``processes``
        setting rebuilds the pool on the next use.
        """
        if self._executor is not None and self._executor_workers != workers:
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=get_context("spawn")
            )
            self._executor_workers = workers
        return self._executor

    def close(self) -> None:
        """Shut down the persistent worker pool, if one was ever created.

        Idempotent; the runner remains usable afterwards (a new pool is
        spawned on the next pooled run).  Prefer using the runner as a
        context manager for scoped lifetimes.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._executor_workers = 0

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def run_batch(
    instances: Iterable[Instance],
    algorithm: str,
    *,
    processes: Optional[int] = 1,
    tag: str = "",
    engine: str = "auto",
    **simulator_options: Any,
) -> List[Dict[str, Any]]:
    """Convenience wrapper: same algorithm and options for every instance."""
    tasks = [
        BatchTask.make(instance, algorithm, tag=tag, **simulator_options)
        for instance in instances
    ]
    # Scope the runner so any worker pool the fallback spawned is shut down
    # deterministically instead of lingering until garbage collection.
    with BatchRunner(engine=engine, processes=processes) as runner:
        return runner.run(tasks)
