"""Chrome trace-event sink: per-process segments, orchestrator-merged.

``REPRO_TRACE_FILE=<path>`` (resolved once at import, like the mode switch)
turns every closed span into one complete (``"ph": "X"``) trace event keyed
by pid/tid.  Each process buffers its own events and flushes them to a
*segment* file next to the target path (``<path>.seg-<pid>.json``) — at
interpreter exit, and explicitly after every shard so terminated pool
workers lose at most the shard in flight.  A segment always holds its
process's whole buffer, so a warm worker serving job after job keeps one
growing segment.  The orchestrator merges all segments into ``<path>`` on
campaign completion (:func:`merge`), and the service daemon once more after
its pool is joined, producing one Perfetto-loadable JSON object whose
timeline shows the pool workers side by side.

Timestamps are wall-clock microseconds (``time.time()``), the one clock the
parent and its spawned workers share; durations come from each span's
``WallTimer`` (``perf_counter``).  The two clocks can disagree by a few
microseconds across a span, so :func:`validate` checks nesting with a small
tolerance rather than exact containment.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Any, Dict, List, Optional

__all__ = ["TRACE_ENV", "active", "emit", "flush", "merge", "trace_path", "validate"]

#: Environment variable naming the merged trace file (empty/unset = no tracing).
TRACE_ENV = "REPRO_TRACE_FILE"

_PATH: Optional[str] = os.environ.get(TRACE_ENV, "").strip() or None

_EVENTS: List[Dict[str, Any]] = []
_LOCK = threading.Lock()
_FLUSH_REGISTERED = False
_MERGED = False
#: Events of segments an earlier merge consumed (their writers had exited).
_ABSORBED: List[Dict[str, Any]] = []
_MERGE_LOCK = threading.Lock()


def active() -> bool:
    """Whether this process writes trace events (``REPRO_TRACE_FILE`` set)."""
    return _PATH is not None


def trace_path() -> Optional[str]:
    """The merged trace target path (None when tracing is off)."""
    return _PATH


def _segment_path(pid: int) -> str:
    assert _PATH is not None
    return f"{_PATH}.seg-{pid}.json"


def emit(
    name: str, wall_start: float, seconds: float, args: Optional[Dict[str, Any]]
) -> None:
    """Buffer one complete span event (timestamps in epoch microseconds)."""
    if _PATH is None:
        return
    event: Dict[str, Any] = {
        "name": name,
        "ph": "X",
        "ts": round(wall_start * 1e6, 1),
        "dur": round(seconds * 1e6, 1),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    if args:
        event["args"] = {key: _jsonable(value) for key, value in args.items()}
    global _FLUSH_REGISTERED
    with _LOCK:
        _EVENTS.append(event)
        if not _FLUSH_REGISTERED:
            _FLUSH_REGISTERED = True
            atexit.register(flush)


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)
    return value


def flush() -> Optional[str]:
    """Write this process's buffered events to its segment file (atomic).

    The buffer is kept (a later flush rewrites the whole segment), so the
    call is idempotent and safe to repeat after every shard.  Returns the
    segment path, or None when tracing is off, the buffer is empty, or this
    process already merged (the merged file supersedes its own segment).
    """
    if _PATH is None or _MERGED:
        return None
    with _LOCK:
        if not _EVENTS:
            return None
        events = list(_EVENTS)
    path = _segment_path(os.getpid())
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(events, handle)
    os.replace(tmp, path)
    return path


def _exited(pid: int) -> bool:
    """Whether process ``pid`` is gone (exited and reaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


def merge() -> Optional[str]:
    """Merge every segment (this process's buffer included) into ``_PATH``.

    Called by the orchestrator after each campaign run and by the service
    daemon after its pool is joined.  A segment whose writer has exited is
    final: it is consumed (deleted) and its events are kept in memory for
    every later merge of this process.  A live writer's segment — a warm
    worker's — stays on disk and is read whole again next time, since the
    worker rewrites it with its full buffer.  So repeated merges hold every
    event exactly once.  The merging process stops flushing its own segment
    afterwards (its events are in the merged file).  Unknown or torn segment
    files are skipped, never fatal.
    """
    if _PATH is None:
        return None
    global _MERGED
    directory = os.path.dirname(os.path.abspath(_PATH)) or "."
    prefix = os.path.basename(_PATH) + ".seg-"
    own_segment = os.path.basename(_segment_path(os.getpid()))
    with _MERGE_LOCK:
        events: List[Dict[str, Any]] = []
        for entry in sorted(os.listdir(directory)):
            if not (entry.startswith(prefix) and entry.endswith(".json")):
                continue
            segment = os.path.join(directory, entry)
            if entry == own_segment:
                # This process's live buffer (merged below) supersedes any
                # segment it flushed earlier — reading both would double-count.
                os.unlink(segment)
                continue
            try:
                pid = int(entry[len(prefix):-len(".json")])
                with open(segment) as handle:
                    data = json.load(handle)
            except (ValueError, OSError):
                continue
            if not isinstance(data, list):
                data = []
            found = [event for event in data if isinstance(event, dict)]
            if _exited(pid):
                _ABSORBED.extend(found)
                os.unlink(segment)
            else:
                events.extend(found)
        with _LOCK:
            events.extend(_ABSORBED)
            events.extend(_EVENTS)
            _MERGED = True
        events.sort(
            key=lambda event: (event.get("pid", 0), event.get("tid", 0), event.get("ts", 0.0))
        )
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        tmp = f"{_PATH}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, _PATH)
    return _PATH


def validate(path: str, *, tolerance_us: float = 1000.0) -> int:
    """Check a merged trace file: parseable, well-formed, spans nest.

    Within each (pid, tid) timeline, any two events must be disjoint or
    contained (up to ``tolerance_us``, absorbing the wall-vs-perf_counter
    skew documented above); partial overlap means broken instrumentation.
    Returns the event count; raises ``ValueError`` on any problem.  Exposed
    so the CI obs smoke leg and the test suite validate the same way.
    """
    with open(path) as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError(f"{path}: no traceEvents")
    timelines: Dict[Any, List[Dict[str, Any]]] = {}
    for event in events:
        for field in ("name", "ph", "ts", "dur", "pid", "tid"):
            if field not in event:
                raise ValueError(f"{path}: event missing {field!r}: {event}")
        timelines.setdefault((event["pid"], event["tid"]), []).append(event)
    for key, timeline in timelines.items():
        timeline.sort(key=lambda event: (event["ts"], -event["dur"]))
        stack: List[Dict[str, Any]] = []
        for event in timeline:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1]["ts"] + stack[-1]["dur"] - tolerance_us:
                stack.pop()
            if stack and end > stack[-1]["ts"] + stack[-1]["dur"] + tolerance_us:
                raise ValueError(
                    f"{path}: spans interleave on pid/tid {key}: "
                    f"{event['name']} overlaps {stack[-1]['name']}"
                )
            stack.append(event)
    return len(events)
