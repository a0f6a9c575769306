"""The closed phase vocabulary: every span and counter the repo emits.

Declared once here (importing :mod:`repro.obs` registers everything) so the
vocabulary is a reviewable, documented list — ``repro obs`` prints it — and
instrumentation sites can only fire instruments that exist.  Phases are
namespaced by layer, mirroring the contract ids:

- ``engine.*`` — inside one batch-engine call (both the symmetric and the
  asymmetric engine), tiling the call's wall time;
- ``campaign.*`` — the shard loop around the engines (sampling, collation,
  lease claims, store commits);
- ``ipc.*`` — the worker-pool result path, measured *inside* the worker and
  shipped back with the result tuple;
- ``service.*`` — the durable-queue and scheduler seams.

Manifest compatibility: a shard's ``phases`` dict (written by
``CampaignStore.write_shard`` when observability is on) maps these ids to
seconds — plus the one non-time key ``ipc.bytes`` (payload size in bytes).
The per-shard keys in :data:`WALL_PHASES` are mutually disjoint slices of the
recorded ``wall_seconds``, which is what lets ``repro campaign profile``
attribute wall time without double counting; ``ipc.*`` and
``campaign.store_write`` fall *outside* the wall window (the worker measures
wall before serializing, the inline loop before committing).
"""

from __future__ import annotations

from repro.obs.core import declare_counter, declare_span

__all__ = ["IPC_BYTES_KEY", "IPC_PHASES", "WALL_PHASES"]

# -- engine phases (per round; accumulate over a batch call) ----------------------
ENGINE_COMPILE = declare_span(
    "engine.compile",
    "program resolution and trajectory-table compilation (batch prelude plus "
    "per-round table_for/stall transforms)",
)
ENGINE_BUILD_WINDOWS = declare_span(
    "engine.build_windows",
    "cross-instance merged-window construction (build_windows)",
)
ENGINE_KERNEL_SOLVE = declare_span(
    "engine.kernel_solve",
    "chunked fused-kernel window solve (solve_round)",
)
ENGINE_ASSEMBLE = declare_span(
    "engine.assemble",
    "round classification, columnar result writes and final materialization",
)

# -- campaign phases --------------------------------------------------------------
CAMPAIGN_SAMPLE = declare_span(
    "campaign.sample",
    "per-shard instance sampling (shard_instances, spawn-seeded)",
)
CAMPAIGN_COLLATE = declare_span(
    "campaign.collate",
    "shard result records to store columns (records_to_columns)",
)
CAMPAIGN_STORE_WRITE = declare_span(
    "campaign.store_write",
    "atomic shard commit: npz write, checksum, fsynced manifest append",
)
CAMPAIGN_LEASE = declare_span(
    "campaign.lease",
    "shard lease claim (acquire; concurrent-runner coordination)",
)
CAMPAIGN_SHARD = declare_span(
    "campaign.shard",
    "one whole shard dispatch (umbrella span enclosing the per-shard phases)",
)

# -- worker IPC (measured inside the worker, shipped with the result) -------------
IPC_SERIALIZE = declare_span(
    "ipc.serialize",
    "worker-side pickling of a shard's result columns",
)
IPC_PIPE_SEND = declare_span(
    "ipc.pipe_send",
    "worker-side pipe write of the pickled columns to the parent",
)
IPC_BYTES = declare_counter(
    "ipc.bytes",
    "bytes of pickled shard columns shipped worker-to-parent",
)

# -- service phases ---------------------------------------------------------------
SERVICE_QUEUE_APPEND = declare_span(
    "service.queue_append",
    "durable job-journal append (write + fsync)",
)
SERVICE_QUEUE_REPLAY = declare_span(
    "service.queue_replay",
    "startup journal replay (parse + state machine)",
)
SERVICE_DISPATCH = declare_span(
    "service.dispatch",
    "scheduler job dispatch: running transition through campaign return",
)

# -- compiler-cache counters ------------------------------------------------------
COMPILER_CACHE_HITS = declare_counter(
    "compiler_cache.hits",
    "cross-call compiler-cache entries reused by a batch run",
)
COMPILER_CACHE_MISSES = declare_counter(
    "compiler_cache.misses",
    "cross-call compiler-cache lookups that compiled fresh",
)
COMPILER_CACHE_EVICTIONS = declare_counter(
    "compiler_cache.evictions",
    "compiler-cache entries dropped by the LRU entry/row budgets",
)
BUILDER_CACHE_EVICTIONS = declare_counter(
    "builder_cache.evictions",
    "builder-cache entries dropped by the LRU entry/row budgets",
)
COMPILER_ROWS_COMPILED = declare_counter(
    "compiler.rows_compiled",
    "trajectory rows compiled (the obs view of rows_compiled_total)",
)

#: Per-shard phase keys that are disjoint slices of the manifest record's
#: ``wall_seconds`` — the attribution set of ``repro campaign profile``.
WALL_PHASES = (
    CAMPAIGN_SAMPLE.id,
    ENGINE_COMPILE.id,
    ENGINE_BUILD_WINDOWS.id,
    ENGINE_KERNEL_SOLVE.id,
    ENGINE_ASSEMBLE.id,
    CAMPAIGN_COLLATE.id,
)

#: Per-shard IPC timing keys (outside the wall window; workers >= 2 only).
IPC_PHASES = (IPC_SERIALIZE.id, IPC_PIPE_SEND.id)

#: The one non-time key a ``phases`` dict may carry: payload bytes.
IPC_BYTES_KEY = IPC_BYTES.id
