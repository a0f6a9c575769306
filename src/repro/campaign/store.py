"""Append-only on-disk columnar result store with a crash-safe manifest.

Layout of a campaign directory::

    <campaign-dir>/
        spec.json        # the CampaignSpec, written once at initialization
        manifest.jsonl   # one JSON line per *completed* shard, append-only
        shards/<shard_id>.npz   # that shard's result columns

The atomicity contract that makes ``repro campaign resume`` safe:

1. a shard's columns are written to a temporary file in the same directory
   and moved into place with :func:`os.replace` — the ``.npz`` either exists
   completely or not at all;
2. only *after* the data file is in place (and flushed) is the completion
   record appended to the manifest, flushed and fsynced — a manifest line
   therefore never references missing data;
3. readers ignore manifest lines that fail to parse (a torn final line from
   a crash mid-append) and lines whose data file is missing, so a half-dead
   directory degrades to "those shards re-run" rather than to corruption.

Checksum verification is deliberately tiered by read cost: resume and the
streaming aggregates trust the manifest (atomic writes rule torn files out;
start-up stays O(shards) in stat calls), while the readers that touch every
byte anyway — :meth:`CampaignStore.export_columns`, ``repro campaign report
--check`` / :meth:`CampaignStore.verify`, and ``completed(verify=True)`` —
re-hash shard files and treat a mismatch (bit rot, outside edits) as an
error or as "not done".

Everything downstream is *streaming*: :meth:`CampaignStore.aggregate` folds
one shard's columns at a time into per-(arm, class) accumulators, so
``repro campaign status``/``report`` summarize campaigns far larger than RAM;
:meth:`CampaignStore.export_columns` (used by the bit-identical resume tests
and by analysis code that does want everything) is the one deliberately
non-streaming reader.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.shards import Shard, plan_shards
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.contracts import core as _contracts
from repro.contracts.invariants import (
    STORE_MANIFEST_MATCHES_DATA,
    STORE_SHARD_ROUNDTRIP,
)
from repro.sim.columns import TERMINATION_BY_CODE
from repro.sim.results import AsymmetricOutcome

__all__ = ["CampaignStore", "CellAggregate", "outcome_columns", "RESULT_COLUMNS"]

#: Column name -> dtype of every shard file, in canonical order.  Wall-clock
#: fields are deliberately absent: stored columns are a pure function of the
#: spec (that is the bit-identical-resume contract); timing lives in the
#: manifest records instead.
RESULT_COLUMNS: Dict[str, Any] = {
    "arm": np.int32,
    "cls": np.int32,
    "position": np.int64,
    "met": np.bool_,
    "termination": np.int8,
    "meeting_time": np.float64,
    "min_distance": np.float64,
    "min_distance_time": np.float64,
    "simulated_time": np.float64,
    "segments_a": np.int64,
    "segments_b": np.int64,
    "windows": np.int64,
    # Freeze event of the asymmetric engines: -1 = no freeze, 0 = A froze,
    # 1 = B froze.
    "frozen": np.int8,
    "freeze_time": np.float64,
    "freeze_distance": np.float64,
    # The sampled instance, so stored shards are self-contained.
    "instance_r": np.float64,
    "instance_x": np.float64,
    "instance_y": np.float64,
    "instance_phi": np.float64,
    "instance_tau": np.float64,
    "instance_v": np.float64,
    "instance_t": np.float64,
    "instance_chi": np.int8,
}

#: Version of the manifest records :meth:`CampaignStore.write_shard` writes
#: (records without a ``format`` key are version 1).  Version 2: shards of
#: per-agent-radii shards run on the event engine record the freeze columns;
#: version 1 stored ``frozen = -1`` there even when an agent froze.
RECORD_FORMAT = 2

_TERMINATION_CODES = {reason.value: code for code, reason in enumerate(TERMINATION_BY_CODE)}
_FROZEN_CODES = {"A": 0, "B": 1}


def _floats(values: Iterable[Optional[float]]) -> np.ndarray:
    """A float64 column with ``None`` stored as NaN."""
    return np.array([np.nan if value is None else value for value in values], dtype=np.float64)


def outcome_columns(shard: Shard, outcomes: Sequence[AsymmetricOutcome]) -> Dict[str, np.ndarray]:
    """Pack one shard's runner outcomes into the canonical column arrays.

    ``outcomes`` are :meth:`~repro.parallel.runner.BatchRunner.run`'s, one
    per instance in order; the ``instance_*`` columns come from each
    outcome's own instance.  ``None`` fields become NaN, terminations their
    :data:`~repro.sim.columns.TERMINATION_BY_CODE` index and the frozen
    agent ``0``/``1`` (``-1``: no freeze).
    """
    n = len(outcomes)
    results = [outcome.result for outcome in outcomes]
    columns: Dict[str, np.ndarray] = {
        "arm": np.full(n, shard.arm_index, dtype=np.int32),
        "cls": np.full(n, shard.class_index, dtype=np.int32),
        "position": np.arange(shard.start, shard.start + n, dtype=np.int64),
        "met": np.array([result.met for result in results], dtype=np.bool_),
        "termination": np.array(
            [_TERMINATION_CODES[result.termination.value] for result in results],
            dtype=np.int8,
        ),
        "meeting_time": _floats(result.meeting_time for result in results),
        "min_distance": _floats(result.min_distance for result in results),
        "min_distance_time": _floats(result.min_distance_time for result in results),
        "simulated_time": _floats(result.simulated_time for result in results),
        "segments_a": np.array([result.segments_a for result in results], dtype=np.int64),
        "segments_b": np.array([result.segments_b for result in results], dtype=np.int64),
        "windows": np.array([result.windows_processed for result in results], dtype=np.int64),
        "frozen": np.array(
            [_FROZEN_CODES.get(outcome.frozen_agent, -1) for outcome in outcomes],
            dtype=np.int8,
        ),
        "freeze_time": _floats(outcome.freeze_time for outcome in outcomes),
        "freeze_distance": _floats(outcome.freeze_distance for outcome in outcomes),
    }
    for name, dtype in RESULT_COLUMNS.items():
        if name.startswith("instance_"):
            attribute = name[len("instance_"):]
            columns[name] = np.array(
                [getattr(result.instance, attribute) for result in results], dtype=dtype
            )
    return columns


def _missing_trailing_newline(path: str) -> bool:
    """True when ``path`` exists, is non-empty and its last byte is not ``\\n``
    — the signature of an append torn by a crash before the newline landed."""
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except (OSError, ValueError):
        return False


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class CellAggregate:
    """Streaming accumulator of one (arm, class) cell's stored columns.

    Holds only scalars, so aggregating a campaign touches one shard's columns
    at a time no matter how large the store grows.  Medians are deliberately
    not offered — they need the full value set; load
    :meth:`CampaignStore.export_columns` when an exact median matters.
    """

    count: int = 0
    successes: int = 0
    meeting_time_sum: float = 0.0
    meeting_time_max: Optional[float] = None
    min_distance_sum: float = 0.0
    min_distance_count: int = 0
    segments_sum: int = 0
    simulated_sum: float = 0.0
    windows_sum: int = 0
    frozen_count: int = 0
    freeze_time_sum: float = 0.0
    termination_counts: List[int] = field(
        default_factory=lambda: [0] * len(TERMINATION_BY_CODE)
    )

    #: The stored columns :meth:`fold` reads.
    COLUMNS = (
        "met", "meeting_time", "min_distance", "segments_a", "segments_b",
        "simulated_time", "windows", "frozen", "freeze_time", "termination",
    )

    def fold(self, columns: Mapping[str, np.ndarray], rows: np.ndarray) -> None:
        """Fold the selected ``rows`` of one shard's columns into the totals."""
        if not rows.size:
            return
        met = columns["met"][rows]
        meeting = columns["meeting_time"][rows][met]
        self.count += int(rows.size)
        self.successes += int(met.sum())
        if meeting.size:
            self.meeting_time_sum += float(meeting.sum())
            peak = float(meeting.max())
            if self.meeting_time_max is None or peak > self.meeting_time_max:
                self.meeting_time_max = peak
        distances = columns["min_distance"][rows]
        finite = np.isfinite(distances)
        self.min_distance_sum += float(distances[finite].sum())
        self.min_distance_count += int(finite.sum())
        self.segments_sum += int(
            columns["segments_a"][rows].sum() + columns["segments_b"][rows].sum()
        )
        self.simulated_sum += float(columns["simulated_time"][rows].sum())
        self.windows_sum += int(columns["windows"][rows].sum())
        frozen = columns["frozen"][rows] >= 0
        self.frozen_count += int(frozen.sum())
        if frozen.any():
            self.freeze_time_sum += float(columns["freeze_time"][rows][frozen].sum())
        codes, counts = np.unique(columns["termination"][rows], return_counts=True)
        for code, n in zip(codes.tolist(), counts.tolist()):
            self.termination_counts[code] += n

    def as_row(self) -> Dict[str, Any]:
        """Flat summary row (rates and means derived from the totals)."""
        met = self.successes
        return {
            "count": self.count,
            "successes": met,
            "success_rate": met / self.count if self.count else float("nan"),
            "meeting_time_mean": self.meeting_time_sum / met if met else None,
            "meeting_time_max": self.meeting_time_max,
            "min_distance_mean": (
                self.min_distance_sum / self.min_distance_count
                if self.min_distance_count
                else float("inf")
            ),
            "segments_mean": self.segments_sum / self.count if self.count else float("nan"),
            "windows_mean": self.windows_sum / self.count if self.count else float("nan"),
            "freeze_rate": self.frozen_count / self.count if self.count else float("nan"),
            "freeze_time_mean": (
                self.freeze_time_sum / self.frozen_count if self.frozen_count else None
            ),
            "budget_exhausted": sum(
                self.termination_counts[code]
                for code, reason in enumerate(TERMINATION_BY_CODE)
                if reason.value in ("max-time", "max-segments")
            ),
        }


class CampaignStore:
    """One campaign directory: spec, manifest and shard column files."""

    SPEC_FILE = "spec.json"
    MANIFEST_FILE = "manifest.jsonl"
    SHARD_DIR = "shards"
    LEASE_DIR = "leases"
    FAILED_DIR = "failed"

    #: Test-only crash seam: a callable invoked with a named commit point
    #: (:data:`CRASH_POINTS`) during :meth:`write_shard`.  The crash-consistency
    #: suite installs a hook that SIGKILLs the process at one point, proving the
    #: atomicity contract holds at every seam; production leaves it ``None``.
    crash_hook: Optional[Any] = None

    #: The named :attr:`crash_hook` points, in commit order: after the npz
    #: :func:`os.replace` (data durable, manifest silent) and after the manifest
    #: line is written but before its fsync (the torn-tail window).
    CRASH_POINTS = ("shard-data-replaced", "manifest-pre-fsync")

    @classmethod
    def _crash_point(cls, point: str) -> None:
        if cls.crash_hook is not None:
            cls.crash_hook(point)

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)

    # -- paths ----------------------------------------------------------------------
    @property
    def spec_path(self) -> str:
        return os.path.join(self.directory, self.SPEC_FILE)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, self.MANIFEST_FILE)

    @property
    def lease_dir(self) -> str:
        return os.path.join(self.directory, self.LEASE_DIR)

    def shard_path(self, shard_id: str) -> str:
        return os.path.join(self.directory, self.SHARD_DIR, f"{shard_id}.npz")

    def failed_path(self, shard_id: str) -> str:
        return os.path.join(self.directory, self.FAILED_DIR, f"{shard_id}.json")

    def exists(self) -> bool:
        return os.path.exists(self.spec_path)

    # -- spec lifecycle ----------------------------------------------------------------
    def initialize(self, spec: CampaignSpec) -> CampaignSpec:
        """Create the directory for ``spec``, or re-open it if it already holds it.

        Idempotent on an equal spec (same digest): re-running ``repro
        campaign run`` against an existing directory simply continues it.  A
        *different* spec raises — finished shards of one campaign must never
        be misread as finished shards of another.
        """
        if self.exists():
            existing = self.load_spec()
            if existing.digest() != spec.digest():
                raise CampaignError(
                    f"campaign directory {self.directory} already holds campaign "
                    f"{existing.name!r} (digest {existing.digest()}); refusing to "
                    f"overwrite it with {spec.name!r} (digest {spec.digest()})"
                )
            return existing
        os.makedirs(os.path.join(self.directory, self.SHARD_DIR), exist_ok=True)
        self._write_atomic(self.spec_path, spec.to_json().encode())
        return spec

    def load_spec(self) -> CampaignSpec:
        if not self.exists():
            raise CampaignError(
                f"{self.directory} is not a campaign directory (no {self.SPEC_FILE})"
            )
        with open(self.spec_path) as handle:
            return CampaignSpec.from_json(handle.read())

    def _write_atomic(self, path: str, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- manifest ----------------------------------------------------------------------
    def manifest_records(self) -> List[Dict[str, Any]]:
        """All parseable manifest records, in append order (torn lines skipped)."""
        records: List[Dict[str, Any]] = []
        if not os.path.exists(self.manifest_path):
            return records
        with open(self.manifest_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    # A crash mid-append tears at most the final line; the
                    # shard it described simply re-runs.
                    continue
        return records

    def completed(self, *, verify: bool = False) -> Dict[str, Dict[str, Any]]:
        """Completion records by shard id, dropping records whose data is gone.

        **Last record wins** on duplicate lines for one ``shard_id``: two
        concurrent runners racing a lease takeover can both legally append a
        completion record (the shard data they wrote is byte-identical, only
        the bookkeeping — wall seconds, timestamp — differs), and every
        reader built on this dict (``aggregate``, ``status_rows``,
        ``export_columns``, row totals) must count such a shard exactly once.

        ``verify=True`` additionally re-hashes every shard file against its
        recorded checksum (``repro campaign report --check``); the default
        trusts the manifest and only requires the file to exist, which keeps
        resume start-up O(shards) in stat calls rather than in reads.
        """
        done: Dict[str, Dict[str, Any]] = {}
        for record in self.manifest_records():
            shard_id = record.get("shard_id")
            path = self.shard_path(shard_id) if shard_id else None
            if not shard_id or not os.path.exists(path):
                continue
            if verify and _sha256_file(path) != record.get("sha256"):
                continue
            done[shard_id] = record
        return done

    def write_shard(
        self,
        shard: Shard,
        columns: Mapping[str, np.ndarray],
        *,
        wall_seconds: float = 0.0,
        phases: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, Any]:
        """Persist one completed shard: atomic data file, then manifest record.

        ``phases`` (observability on only) is a phase-id -> seconds breakdown
        recorded in the manifest record next to ``wall_seconds``; the npz
        column bytes stay a pure function of the spec either way, and manifest
        readers ignore keys they do not know.
        """
        unknown = set(columns) - set(RESULT_COLUMNS)
        missing = set(RESULT_COLUMNS) - set(columns)
        if unknown or missing:
            raise CampaignError(
                f"shard columns mismatch: unknown={sorted(unknown)} missing={sorted(missing)}"
            )
        rows = {len(np.asarray(column)) for column in columns.values()}
        if len(rows) != 1 or rows != {shard.count}:
            raise CampaignError(
                f"shard {shard.shard_id} expects {shard.count} rows, got {sorted(rows)}"
            )
        path = self.shard_path(shard.shard_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-", suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **{name: np.asarray(columns[name]) for name in RESULT_COLUMNS})
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._crash_point("shard-data-replaced")
        record = {
            "shard_id": shard.shard_id,
            "index": shard.index,
            "arm": shard.arm_index,
            "cls": shard.class_index,
            "start": shard.start,
            "rows": shard.count,
            "sha256": _sha256_file(path),
            "format": RECORD_FORMAT,
            "wall_seconds": round(float(wall_seconds), 6),
            "completed_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        if phases:
            record["phases"] = {
                key: round(float(value), 6) for key, value in sorted(phases.items())
            }
        with open(self.manifest_path, "a") as handle:
            # A crash can tear the previous append after its bytes but before
            # its newline; appending straight after would merge this record
            # into the torn fragment.  A leading newline isolates the fragment
            # as its own (skipped) torn line and keeps this record parseable.
            if _missing_trailing_newline(self.manifest_path):
                handle.write("\n")
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            self._crash_point("manifest-pre-fsync")
            os.fsync(handle.fileno())
        if _contracts.enabled():
            self._check_write_contracts(shard, columns, record)
        return record

    def _check_write_contracts(
        self,
        shard: Shard,
        columns: Mapping[str, np.ndarray],
        record: Dict[str, Any],
    ) -> None:
        """Post-write contracts: manifest ↔ bytes on disk ↔ computed columns."""
        path = self.shard_path(shard.shard_id)
        latest = None
        for line in self.manifest_records():
            if line.get("shard_id") == shard.shard_id:
                latest = line
        STORE_MANIFEST_MATCHES_DATA.check(
            latest is not None
            and latest.get("sha256") == _sha256_file(path)
            and latest.get("rows") == shard.count,
            f"shard {shard.shard_id}: manifest record {latest} vs "
            f"npz at {path}",
        )
        reread = self.read_shard(shard.shard_id)
        roundtrip = set(reread) == set(RESULT_COLUMNS) and all(
            np.array_equal(
                reread[name],
                np.asarray(columns[name]),
                equal_nan=bool(np.issubdtype(np.asarray(columns[name]).dtype, np.floating)),
            )
            for name in RESULT_COLUMNS
        )
        STORE_SHARD_ROUNDTRIP.check(
            roundtrip, f"shard {shard.shard_id} columns changed across npz roundtrip"
        )

    # -- readers -------------------------------------------------------------------------
    def read_shard(
        self, shard_id: str, names: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        """One shard's columns: all of them, or only ``names``."""
        path = self.shard_path(shard_id)
        if not os.path.exists(path):
            raise CampaignError(f"shard {shard_id} has no data file in {self.directory}")
        try:
            with np.load(path) as data:
                return {name: data[name] for name in (data.files if names is None else names)}
        except (OSError, ValueError) as error:
            # In-place corruption (atomic writes rule out torn files, but not
            # a bad disk or an outside edit): surface as a campaign problem —
            # `report --check` names the shard — instead of a numpy traceback.
            raise CampaignError(f"shard {shard_id} is unreadable: {error}") from None

    def iter_completed(
        self, plan: Optional[Sequence[Shard]] = None, names: Optional[Sequence[str]] = None
    ) -> Iterator[Tuple[Shard, Dict[str, np.ndarray]]]:
        """Completed shards with their columns (or only ``names``), in plan order."""
        if plan is None:
            plan = plan_shards(self.load_spec())
        done = self.completed()
        for shard in plan:
            if shard.shard_id in done:
                yield shard, self.read_shard(shard.shard_id, names)

    def export_columns(self, plan: Optional[Sequence[Shard]] = None) -> Dict[str, np.ndarray]:
        """All stored columns concatenated in plan order (completeness required).

        The one whole-campaign reader; everything else streams.  Raises when
        any planned shard is missing *or checksum-corrupt* — this is the
        reader the bit-identical-resume contract is pinned on, it reads every
        byte anyway, so the integrity hash is nearly free here — because a
        partial or corrupted export silently standing in for a finished
        campaign is exactly the bug the manifest exists to prevent.
        """
        if plan is None:
            plan = plan_shards(self.load_spec())
        done = self.completed(verify=True)
        missing = [shard.shard_id for shard in plan if shard.shard_id not in done]
        if missing:
            raise CampaignError(
                f"campaign is incomplete or corrupt: {len(missing)}/{len(plan)} "
                f"shards unusable (first: {missing[0]})"
            )
        parts = [self.read_shard(shard.shard_id) for shard in plan]
        return {
            name: np.concatenate([part[name] for part in parts])
            for name in RESULT_COLUMNS
        }

    def aggregate(
        self, plan: Optional[Sequence[Shard]] = None
    ) -> Dict[Tuple[int, int], CellAggregate]:
        """Streaming per-(arm, class) aggregates over every completed shard."""
        cells: Dict[Tuple[int, int], CellAggregate] = {}
        for shard, columns in self.iter_completed(plan, CellAggregate.COLUMNS):
            key = (shard.arm_index, shard.class_index)
            aggregate = cells.setdefault(key, CellAggregate())
            aggregate.fold(columns, np.arange(shard.count))
        return cells

    def verify(self, plan: Optional[Sequence[Shard]] = None) -> List[str]:
        """Consistency problems of the directory (empty list = all good).

        Checks that every planned shard has a matching record whose checksum
        and row count hold; used by ``repro campaign report --check``.
        """
        if plan is None:
            plan = plan_shards(self.load_spec())
        problems: List[str] = []
        records = self.completed()
        for shard in plan:
            record = records.get(shard.shard_id)
            if record is None:
                problems.append(f"shard {shard.shard_id} (index {shard.index}) incomplete")
                continue
            path = self.shard_path(shard.shard_id)
            if _sha256_file(path) != record.get("sha256"):
                problems.append(f"shard {shard.shard_id} checksum mismatch")
                continue
            if int(record.get("rows", -1)) != shard.count:
                problems.append(
                    f"shard {shard.shard_id} rows {record.get('rows')} != planned {shard.count}"
                )
        return problems

    # -- quarantine ledger -------------------------------------------------------------
    def quarantine(self, shard: Shard, *, error: str, attempts: int) -> Dict[str, Any]:
        """Record a poison shard in the ``failed/`` ledger (graceful degradation).

        Written atomically like every other store file.  A quarantined shard
        is skipped by subsequent runs — the campaign stays partial-but-valid
        instead of aborting — until ``doctor(repair=True)`` (or
        :meth:`clear_failed`) removes the entry, after which ``resume``
        retries exactly that shard.
        """
        entry = {
            "shard_id": shard.shard_id,
            "index": shard.index,
            "arm": shard.arm_index,
            "cls": shard.class_index,
            "start": shard.start,
            "rows": shard.count,
            "attempts": int(attempts),
            "error": str(error),
            "quarantined_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        os.makedirs(os.path.join(self.directory, self.FAILED_DIR), exist_ok=True)
        self._write_atomic(
            self.failed_path(shard.shard_id),
            (json.dumps(entry, sort_keys=True, indent=2) + "\n").encode(),
        )
        return entry

    def failed_shards(self) -> Dict[str, Dict[str, Any]]:
        """Quarantine entries by shard id (unreadable entries surface as stubs)."""
        failed_dir = os.path.join(self.directory, self.FAILED_DIR)
        entries: Dict[str, Dict[str, Any]] = {}
        if not os.path.isdir(failed_dir):
            return entries
        for name in sorted(os.listdir(failed_dir)):
            if not name.endswith(".json"):
                continue
            shard_id = name[: -len(".json")]
            try:
                with open(os.path.join(failed_dir, name)) as handle:
                    entries[shard_id] = json.load(handle)
            except (OSError, json.JSONDecodeError):
                entries[shard_id] = {"shard_id": shard_id, "error": "unreadable ledger entry"}
        return entries

    def clear_failed(self, shard_id: str) -> None:
        try:
            os.unlink(self.failed_path(shard_id))
        except FileNotFoundError:
            pass

    # -- doctor ------------------------------------------------------------------------
    def doctor(
        self,
        plan: Optional[Sequence[Shard]] = None,
        *,
        repair: bool = False,
        lease_timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Full integrity pass over the directory (``repro campaign doctor``).

        Re-hashes every recorded shard against its manifest checksum and
        reports, by category:

        * ``corrupt`` — checksum mismatch or unreadable/short npz;
        * ``wrong_rows`` — row count disagrees with the plan;
        * ``orphaned`` — npz files no (last-wins) manifest record references,
          e.g. from a crash between the data replace and the manifest append;
        * ``stale_leases`` / ``active_leases`` — dead vs heartbeating claims;
        * ``quarantined`` — ``failed/`` ledger entries;
        * ``incomplete`` — planned shards with no usable record.

        With ``repair=True`` the store is brought back to a state where
        ``resume`` recomputes exactly the broken work: corrupt and orphaned
        data files are deleted (their manifest records then dangle and are
        ignored), stale leases are removed, and quarantine entries are
        cleared so the poisoned shards get a fresh ``max_attempts`` budget.
        Fresh leases and healthy shards are never touched.
        """
        from repro.campaign.leases import DEFAULT_STALE_AFTER, LeaseManager

        if plan is None:
            plan = plan_shards(self.load_spec())
        planned_ids = {shard.shard_id for shard in plan}
        counts = {shard.shard_id: shard.count for shard in plan}
        records = {}
        for record in self.manifest_records():  # last record wins, like completed()
            if record.get("shard_id"):
                records[record["shard_id"]] = record

        report: Dict[str, Any] = {
            "shards_planned": len(plan),
            "shards_recorded": 0,
            "healthy": 0,
            "corrupt": [],
            "wrong_rows": [],
            "orphaned": [],
            "stale_leases": [],
            "active_leases": [],
            "quarantined": sorted(self.failed_shards()),
            "incomplete": [],
            "repaired": [],
        }
        for shard_id, record in sorted(records.items()):
            path = self.shard_path(shard_id)
            if not os.path.exists(path):
                continue  # dangling record: the shard simply re-runs
            report["shards_recorded"] += 1
            if _sha256_file(path) != record.get("sha256"):
                report["corrupt"].append(shard_id)
            elif shard_id in counts and int(record.get("rows", -1)) != counts[shard_id]:
                report["wrong_rows"].append(shard_id)
            elif shard_id in planned_ids:
                report["healthy"] += 1

        shard_dir = os.path.join(self.directory, self.SHARD_DIR)
        if os.path.isdir(shard_dir):
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".npz"):
                    continue
                shard_id = name[: -len(".npz")]
                if shard_id not in records or shard_id not in planned_ids:
                    report["orphaned"].append(shard_id)

        leases = LeaseManager(
            self.lease_dir,
            stale_after=lease_timeout if lease_timeout is not None else DEFAULT_STALE_AFTER,
        )
        report["stale_leases"] = leases.stale_leases()
        report["active_leases"] = leases.active_leases()

        usable = {
            shard_id
            for shard_id, record in records.items()
            if os.path.exists(self.shard_path(shard_id))
            and shard_id not in report["corrupt"]
            and shard_id not in report["wrong_rows"]
        }
        report["incomplete"] = [
            shard.shard_id for shard in plan if shard.shard_id not in usable
        ]

        if repair:
            for shard_id in report["corrupt"] + report["wrong_rows"] + report["orphaned"]:
                try:
                    os.unlink(self.shard_path(shard_id))
                    report["repaired"].append(f"deleted shard {shard_id}")
                except FileNotFoundError:
                    pass
            for shard_id in leases.remove_stale():
                report["repaired"].append(f"removed stale lease {shard_id}")
            for shard_id in report["quarantined"]:
                self.clear_failed(shard_id)
                report["repaired"].append(f"cleared quarantine {shard_id}")

        # "clean" is an *integrity* verdict (nothing corrupt, orphaned, stale
        # or quarantined); "complete" is coverage.  A half-run campaign is
        # clean-but-incomplete, which is healthy — resume finishes it.  After
        # a repair every integrity problem has been remediated (the broken
        # work moved into "incomplete", which resume recomputes).
        problems = (
            report["corrupt"]
            or report["wrong_rows"]
            or report["orphaned"]
            or report["stale_leases"]
            or report["quarantined"]
        )
        report["clean"] = not problems or bool(repair)
        report["complete"] = not report["incomplete"]
        return report
