"""Zero-overhead-when-off spans and counters: the registry and mode switch.

The model mirrors :mod:`repro.contracts.core` exactly: one process-wide mode,
resolved **once at import** from ``REPRO_OBS``, and a registry of named
*instruments* (spans and counters) declared once at module level (in
:mod:`repro.obs.phases`) so ``repro obs`` can list the closed vocabulary the
way ``repro contracts list`` lists the invariants.

- ``off`` — the production default.  Every instrumentation seam costs one
  module-global read: :func:`span` returns a single reusable null context
  manager (no allocation, no-op ``__enter__``/``__exit__``), :func:`add` and
  :func:`record` return immediately, :func:`collect` yields ``None``.  The
  bench gate (``scripts/bench_snapshot.py --check``) pins this claim.
- ``on`` — spans time their block through
  :class:`~repro.util.timers.WallTimer`, accumulate into the registry, feed
  the innermost active :func:`collect` bucket (the per-shard ``phases`` dict
  of the campaign manifest), and emit Chrome trace events when
  ``REPRO_TRACE_FILE`` is set (:mod:`repro.obs.trace`).

``REPRO_TRACE_FILE`` without an explicit ``REPRO_OBS`` selection implies
``on`` — a trace file is a request for spans.  An unknown mode raises
``ValueError``, an explicit misconfiguration like an unknown contract mode.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.timers import WallTimer

__all__ = [
    "MODE_ENV",
    "MODES",
    "Instrument",
    "add",
    "all_instruments",
    "collect",
    "declare_counter",
    "declare_span",
    "enabled",
    "get",
    "instrument_rows",
    "mode",
    "record",
    "reset_counters",
    "resolve_mode",
    "span",
]

#: Environment variable naming the process-wide observability mode.
MODE_ENV = "REPRO_OBS"

#: Valid modes, weakest first.
MODES = ("off", "on")


def resolve_mode(value: Optional[str] = None) -> str:
    """Resolve a mode selection: explicit argument > ``REPRO_OBS`` > trace > off.

    ``REPRO_TRACE_FILE`` set while ``REPRO_OBS`` is unset resolves to ``on``
    (a trace file needs spans); an unknown selection raises ``ValueError``.
    """
    source = "mode"
    if value is None:
        raw = os.environ.get(MODE_ENV)
        if raw is None or not raw.strip():
            if os.environ.get("REPRO_TRACE_FILE", "").strip():
                return "on"
            return "off"
        source = MODE_ENV
        value = raw.strip()
    if value not in MODES:
        raise ValueError(f"{source} must be one of {', '.join(MODES)}; got {value!r}")
    return value


#: The process-wide mode, frozen at import.  Instrumentation seams consult it
#: per call through one module-global read.
_MODE = resolve_mode()


def mode() -> str:
    """The active observability mode (``off`` / ``on``)."""
    return _MODE


def enabled() -> bool:
    """Whether instruments record at all (mode is not ``off``)."""
    return _MODE != "off"


@contextmanager
def _override_mode(value: str):
    """Swap the process mode for a block — test and profiling helper only.

    Same caveat as the contracts twin: only seams that consult the mode per
    call follow the override (all of them here — nothing is decided at
    decoration time), and spans already open when the mode flips record under
    the mode they were opened with.
    """
    global _MODE
    previous = _MODE
    _MODE = resolve_mode(value)
    try:
        yield
    finally:
        _MODE = previous


class Instrument:
    """One named instrument: stable id, kind, docstring, firing totals.

    ``kind`` is ``"span"`` (timed block; ``total`` accumulates seconds) or
    ``"counter"`` (monotonic tally; ``total`` accumulates the added values).
    ``count`` is the number of firings either way.
    """

    __slots__ = ("id", "kind", "doc", "count", "total")

    def __init__(self, instrument_id: str, kind: str, doc: str) -> None:
        if kind not in ("span", "counter"):
            raise ValueError(f"kind must be 'span' or 'counter', got {kind!r}")
        self.id = instrument_id
        self.kind = kind
        self.doc = doc
        self.count = 0
        self.total = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instrument({self.id!r}, kind={self.kind!r}, count={self.count})"


_REGISTRY: Dict[str, Instrument] = {}


def _declare(instrument_id: str, kind: str, doc: str) -> Instrument:
    existing = _REGISTRY.get(instrument_id)
    if existing is not None:
        if existing.kind != kind or existing.doc != doc:
            raise ValueError(
                f"instrument {instrument_id!r} is already declared with a "
                "different kind or doc"
            )
        return existing
    instrument = Instrument(instrument_id, kind, doc)
    _REGISTRY[instrument_id] = instrument
    return instrument


def declare_span(instrument_id: str, doc: str) -> Instrument:
    """Register (or return the already-registered) span ``instrument_id``."""
    return _declare(instrument_id, "span", doc)


def declare_counter(instrument_id: str, doc: str) -> Instrument:
    """Register (or return the already-registered) counter ``instrument_id``."""
    return _declare(instrument_id, "counter", doc)


def get(instrument_id: str) -> Instrument:
    """The registered instrument with this id; ``KeyError`` when unknown."""
    return _REGISTRY[instrument_id]


def all_instruments() -> Tuple[Instrument, ...]:
    """Every registered instrument, sorted by id."""
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


def reset_counters() -> None:
    """Zero every instrument's ``count``/``total`` (test and profile helper)."""
    for instrument in _REGISTRY.values():
        instrument.count = 0
        instrument.total = 0.0


def instrument_rows() -> List[Dict[str, object]]:
    """Machine-readable snapshot, one row per instrument (sorted by id)."""
    return [
        {
            "id": instrument.id,
            "kind": instrument.kind,
            "count": instrument.count,
            "total": round(instrument.total, 6),
        }
        for instrument in all_instruments()
    ]


# -- collection (the per-shard phases dict) --------------------------------------

_TLS = threading.local()


def _collector_stack() -> List[Dict[str, float]]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


@contextmanager
def collect() -> Iterator[Optional[Dict[str, float]]]:
    """Accumulate span seconds into a dict for the duration of the block.

    Yields ``None`` in ``off`` mode (callers pass it straight through, e.g.
    as ``write_shard(..., phases=None)``).  When on, every span closed inside
    the block adds its elapsed seconds under its instrument id — the shape
    that lands as the manifest record's ``phases`` dict.  Collectors nest;
    spans feed the innermost one only.
    """
    if _MODE == "off":
        yield None
        return
    bucket: Dict[str, float] = {}
    stack = _collector_stack()
    stack.append(bucket)
    try:
        yield bucket
    finally:
        stack.pop()


def _deposit(instrument: Instrument, elapsed: float) -> None:
    instrument.count += 1
    instrument.total += elapsed
    stack = _collector_stack()
    if stack:
        bucket = stack[-1]
        bucket[instrument.id] = bucket.get(instrument.id, 0.0) + elapsed


# -- spans -----------------------------------------------------------------------


class _NullSpan:
    """The reusable off-mode span: allocation-free, no-op enter/exit."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """An active span: WallTimer-backed timing plus trace emission."""

    __slots__ = ("instrument", "tags", "timer", "elapsed", "_wall_start")

    def __init__(self, instrument: Instrument, tags: Optional[Dict[str, Any]]) -> None:
        self.instrument = instrument
        self.tags = tags
        self.timer = WallTimer()
        self.elapsed = 0.0
        self._wall_start = 0.0

    def __enter__(self) -> "_Span":
        self._wall_start = time.time()
        self.timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = self.timer.stop()
        _deposit(self.instrument, self.elapsed)
        if trace.active():
            trace.emit(self.instrument.id, self._wall_start, self.elapsed, self.tags)


def span(instrument_id: str, **tags: Any):
    """A context manager timing its block under the named span instrument.

    The off-mode fast path — one module-global read, then the shared
    :data:`_NULL_SPAN` — is the whole zero-cost claim; nothing else runs.
    Tags land in the Chrome trace event's ``args`` (shard id, job digest);
    they are not part of the aggregate registry totals.
    """
    if _MODE == "off":
        return _NULL_SPAN
    return _Span(_REGISTRY[instrument_id], tags or None)


def record(instrument_id: str, seconds: float, **tags: Any) -> None:
    """Record an externally-timed duration under a span instrument.

    For seams where the block shape does not fit a ``with`` (the executor
    times IPC pickling with an explicit :class:`WallTimer` because the
    measured bytes must travel in the same message): feeds the registry, the
    active collector and the trace exactly like a closed span.
    """
    if _MODE == "off":
        return
    instrument = _REGISTRY[instrument_id]
    _deposit(instrument, seconds)
    if trace.active():
        trace.emit(instrument.id, time.time() - seconds, seconds, tags or None)


# -- counters --------------------------------------------------------------------


def add(instrument_id: str, value: float = 1) -> None:
    """Bump a counter instrument; a no-op (one global read) when off."""
    if _MODE == "off":
        return
    instrument = _REGISTRY[instrument_id]
    instrument.count += 1
    instrument.total += value


# Imported last: trace only needs stdlib, but keeping the import at the bottom
# makes the off-mode fast paths above independent of it at definition time.
from repro.obs import trace  # noqa: E402
