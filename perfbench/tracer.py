"""Outside-in span tracing for the benchmark.

The benchmark never edits ``src/``: it wraps the public entry points of each
layer with timing shims (:func:`install`) and keeps every span in memory until
the end of the process.  A span records its name, start, end and the span that
caused it (the innermost open span of the same thread).  A layer's *self* time
is its spans' duration minus the part of that interval its child spans cover.

Clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), which is
system-wide, so spans written by the daemon and its spawned workers line up
with the client's own timestamps.

Span names (the layer vocabulary of the per-layer metrics):

* ``sim.engine``           -- ``simulate_batch`` / ``simulate_batch_asymmetric``
* ``algorithms.program``   -- ``LocalProgramBuilder.snapshot`` (instruction generation)
* ``motion.compile``       -- ``IncrementalTableCompiler.table`` (table arithmetic)
* ``sim.build_windows``    -- ``repro.sim.rounds.build_windows``
* ``geometry.kernel``      -- ``repro.sim.rounds.solve_round``
* ``analysis.sample``      -- ``InstanceSampler.batch_of_class`` / ``shard_instances``
* ``campaign.run``         -- ``run_campaign``
* ``campaign.shard``       -- ``BatchRunner.run`` (one shard's compute, in a worker)
* ``campaign.store_write`` -- ``CampaignStore.write_shard``
* ``campaign.lease``       -- ``LeaseManager.acquire``
* ``service.submit``       -- ``JobQueue.submit`` (journal append with fsync)

A span opened while a span of the same name is already open on the thread is
not recorded, so a layer's time is never counted twice.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Environment variable naming the directory traced daemons and workers write
#: their span records into (see ``boot/sitecustomize.py``).
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Float64 columns the fused window kernel reads per window: ``starts``,
#: ``durations``, the eight agent-state columns and the meeting radius.  The
#: asymmetric engine adds a second (freeze) radius column.
KERNEL_COLUMNS = 11

#: Spans whose individual start/end times the records keep.
EVENT_NAMES = ("campaign.run", "service.submit")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent span or None, attrs]
        self.counts: Counter = Counter()
        self.windows: List[int] = []  # per-instance windows_processed
        self.met = 0
        self.frozen = 0
        self._local = threading.local()
        self._flushed = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, after: Optional[Callable] = None) -> Callable:
        """``func`` with a span named ``name`` around every call.

        ``after(tracer, span, args, kwargs, result)`` runs once the span has
        closed, outside the timed interval.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(span[0] == name for span in stack):
                return func(*args, **kwargs)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, {}]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    # -- summaries ---------------------------------------------------------------
    @staticmethod
    def summary(spans: List[list]) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent is not None and end is not None:
                child_time[id(parent)] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for span in spans:
            name, start, end = span[0], span[1], span[2]
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(id(span), 0.0)
        return out

    def record(self, spans: Optional[List[list]] = None) -> Dict[str, Any]:
        """What this process traced (``spans`` defaults to all), as a JSON-able dict."""
        spans = self.spans if spans is None else spans
        return {
            "summary": self.summary(spans),
            "counts": dict(self.counts),
            "windows": list(self.windows),
            "met": self.met,
            "frozen": self.frozen,
            "events": [
                {"name": name, "start": start, "end": end, **attrs}
                for name, start, end, _, attrs in spans
                if name in EVENT_NAMES and end is not None
            ],
        }

    def flush(self, directory: str, tag: Dict[str, Any]) -> None:
        """Append what was traced since the last flush to ``<pid>.jsonl``.

        Used by the daemon and its workers, whose spans must outlive them.
        Spans still open (and everything after the first of them) wait for the
        next flush, so a parent is always written with its children.
        """
        pending = self.spans[self._flushed:]
        ready = next((k for k, span in enumerate(pending) if span[2] is None), len(pending))
        if not ready and not self.counts and not self.windows:
            return
        line = dict(tag, **self.record(pending[:ready]))
        self._flushed += ready
        self.counts.clear()
        self.windows.clear()
        self.met = self.frozen = 0
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, f"{os.getpid()}.jsonl"), "a") as handle:
            handle.write(json.dumps(line) + "\n")


# -- result hooks ------------------------------------------------------------------
def _after_engine(tracer: Tracer, span, args, kwargs, results) -> None:
    for item in results:
        result = getattr(item, "result", item)  # an AsymmetricOutcome wraps one
        tracer.windows.append(int(result.windows_processed))
        tracer.met += bool(result.met)
        tracer.frozen += getattr(item, "frozen_agent", None) is not None


def _after_build_windows(tracer: Tracer, span, args, kwargs, windows) -> None:
    tracer.counts["sim.rounds"] += 1
    tracer.counts["sim.windows"] += len(windows)


def _after_kernel(tracer: Tracer, span, args, kwargs, solution) -> None:
    windows = len(args[0])
    columns = KERNEL_COLUMNS + (kwargs.get("second_radius") is not None)
    tracer.counts["geometry.kernel_bytes_computed"] += windows * columns * 8


def _after_run_campaign(tracer: Tracer, span, args, kwargs, stats) -> None:
    span[4]["digest"] = stats.spec_digest


def _after_submit(tracer: Tracer, span, args, kwargs, result) -> None:
    span[4]["digest"] = result[0].digest


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point named in the module docstring.

    Functions are replaced in every module namespace that imported them by
    name, methods on their classes.
    """
    import repro
    import repro.campaign as campaign_package
    from repro.analysis import sampler
    from repro.campaign import executor, leases, orchestrator, shards, store
    from repro.motion import compiler
    from repro.parallel import runner
    from repro.service import queue, scheduler
    from repro.sim import batch, batch_asymmetric

    engine = tracer.wrap("sim.engine", batch.simulate_batch, _after_engine)
    engine_asym = tracer.wrap(
        "sim.engine", batch_asymmetric.simulate_batch_asymmetric, _after_engine
    )
    for module in (batch, runner, repro):
        if hasattr(module, "simulate_batch"):
            module.simulate_batch = engine
    for module in (batch_asymmetric, runner, repro):
        if hasattr(module, "simulate_batch_asymmetric"):
            module.simulate_batch_asymmetric = engine_asym

    build = tracer.wrap("sim.build_windows", batch.build_windows, _after_build_windows)
    kernel = tracer.wrap("geometry.kernel", batch.solve_round, _after_kernel)
    for module in (batch, batch_asymmetric):
        module.build_windows = build
        module.solve_round = kernel

    builder = compiler.LocalProgramBuilder
    builder.snapshot = tracer.wrap("algorithms.program", builder.snapshot)
    table_compiler = compiler.IncrementalTableCompiler
    table_compiler.table = tracer.wrap("motion.compile", table_compiler.table)

    instance_sampler = sampler.InstanceSampler
    instance_sampler.batch_of_class = tracer.wrap(
        "analysis.sample", instance_sampler.batch_of_class
    )
    sample_shard = tracer.wrap("analysis.sample", shards.shard_instances)
    for module in (shards, orchestrator, executor):
        module.shard_instances = sample_shard

    run = tracer.wrap("campaign.run", orchestrator.run_campaign, _after_run_campaign)
    for module in (orchestrator, campaign_package, scheduler):
        module.run_campaign = run
    runner.BatchRunner.run = tracer.wrap("campaign.shard", runner.BatchRunner.run)
    store.CampaignStore.write_shard = tracer.wrap(
        "campaign.store_write", store.CampaignStore.write_shard
    )
    leases.LeaseManager.acquire = tracer.wrap("campaign.lease", leases.LeaseManager.acquire)
    queue.JobQueue.submit = tracer.wrap("service.submit", queue.JobQueue.submit, _after_submit)


def install_for_service(directory: str) -> Tracer:
    """Tracing inside ``repro serve`` and its workers, flushed to ``directory``.

    Workers flush after every shard, tagged with the shard's campaign digest
    (a terminated worker loses at most the shard in flight); the daemon
    flushes after every campaign run and at exit.
    """
    tracer = Tracer()
    install(tracer)
    from repro.campaign import executor, orchestrator
    from repro.motion import compiler
    from repro.parallel import runner
    from repro.service import scheduler

    current: Dict[str, str] = {}
    sample_shard = orchestrator.shard_instances

    def tagged_sample(spec, shard):
        current["digest"] = spec.digest()
        current["shard"] = shard.shard_id
        return sample_shard(spec, shard)

    for module in (orchestrator, executor):
        module.shard_instances = tagged_sample

    shard_run = runner.BatchRunner.run

    def flushing_shard_run(self, tasks):
        before = compiler.rows_compiled_total()
        try:
            return shard_run(self, tasks)
        finally:
            tracer.counts["motion.rows_compiled"] += compiler.rows_compiled_total() - before
            tracer.flush(directory, {"role": "worker", **current})

    runner.BatchRunner.run = flushing_shard_run

    campaign_run = scheduler.run_campaign

    def flushing_campaign_run(*args, **kwargs):
        try:
            return campaign_run(*args, **kwargs)
        finally:
            tracer.flush(directory, {"role": "daemon"})

    scheduler.run_campaign = flushing_campaign_run
    atexit.register(tracer.flush, directory, {"role": "daemon"})
    return tracer
