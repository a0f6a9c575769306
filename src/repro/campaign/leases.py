"""Atomic shard leases: the claim protocol of concurrent campaign runners.

A *lease* is a small JSON file under ``<campaign-dir>/leases/<shard_id>.lease``
claiming the right to compute one shard.  The protocol is deliberately the
weakest thing that is safe on a shared POSIX directory (local disk or NFSv4):

1. **Claim** — create the lease file with ``O_CREAT | O_EXCL``.  Exclusive
   create is the one primitive the filesystem makes atomic across processes
   *and hosts*, so exactly one of any number of racing claimants wins.
2. **Heartbeat** — the holder refreshes the file's mtime (``os.utime``) while
   it works.  The mtime is the liveness signal; the file *content* (owner id,
   pid, host) is for humans and for the release-only-your-own check.
3. **Stale takeover** — a lease whose mtime is older than ``stale_after``
   seconds belongs to a dead or wedged worker.  A claimant unlinks it and
   retries the exclusive create; if two claimants race the takeover, the
   unlink happens at most twice but the re-create is again exclusive, so at
   most one wins.  (The unlink re-stats first: a lease that was heartbeated
   since we looked is left alone.)
4. **Release** — the holder unlinks the file, but only after verifying the
   content still names it as owner — a lease stolen after a stall is never
   clobbered by its previous holder.

Because shards are deterministic and commits are atomic (npz replace + append
manifest), a violated lease costs only duplicated *work*, never wrong bytes:
two holders of the same shard write identical data files and the manifest
reader is last-record-wins.  Leases therefore need to be safe, not perfect.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import time
import uuid
from typing import Dict, List, Optional

from repro.contracts import core as _contracts
from repro.contracts.invariants import LEASE_RELEASE_OWN_ONLY

__all__ = ["DEFAULT_STALE_AFTER", "LeaseManager", "default_owner_id"]

#: Default seconds without a heartbeat before a lease counts as stale.  Long
#: enough that a healthy holder (heartbeats every ``stale_after / 4``) is
#: never stolen from; short enough that a SIGKILLed runner's shards are taken
#: over within a minute.
DEFAULT_STALE_AFTER = 60.0


def default_owner_id() -> str:
    """A process-unique owner id: host, pid and a random suffix.

    The random suffix guards against pid reuse — a recycled pid on the same
    host must not look like the (dead) previous owner of its leases.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def _owner_is_dead(owner: Optional[str]) -> bool:
    """Whether ``owner`` is a :func:`default_owner_id` of a gone pid on this host.

    Only ``os.kill(pid, 0)`` raising ``ProcessLookupError`` proves it; a
    recycled live pid just leaves the lease to the stale timeout.
    """
    host, _, pid = str(owner).rpartition(":")[0].rpartition(":")
    if host != socket.gethostname() or not pid.isdigit() or int(pid) <= 0:
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except OSError:
        pass
    return False


class LeaseManager:
    """Claims, heartbeats and releases shard leases in one campaign directory.

    One manager per ``run_campaign`` call; ``owner`` identifies the runner in
    lease files and defaults to :func:`default_owner_id`.  The manager tracks
    which leases *it* holds, so :meth:`release_all` on shutdown never touches
    a foreign claim.
    """

    def __init__(
        self,
        directory: str,
        *,
        owner: Optional[str] = None,
        stale_after: float = DEFAULT_STALE_AFTER,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.owner = owner if owner else default_owner_id()
        self.stale_after = float(stale_after)
        self.takeovers = 0
        self.conflicts = 0
        self._held: Dict[str, str] = {}  # shard_id -> lease path

    # -- paths -------------------------------------------------------------------
    def lease_path(self, shard_id: str) -> str:
        return os.path.join(self.directory, f"{shard_id}.lease")

    def held(self) -> List[str]:
        """Shard ids this manager currently holds leases for."""
        return list(self._held)

    # -- claim protocol ----------------------------------------------------------
    def acquire(self, shard_id: str) -> bool:
        """Try to claim ``shard_id``; True on success, False if held elsewhere.

        A stale foreign lease (no heartbeat for ``stale_after`` seconds) is
        taken over: unlink + exclusive re-create, counted in ``takeovers``.
        A *fresh* foreign lease counts in ``conflicts`` and returns False —
        the shard is being computed by a live peer.
        """
        if shard_id in self._held:
            return True
        os.makedirs(self.directory, exist_ok=True)
        path = self.lease_path(shard_id)
        for attempt in range(2):  # initial claim + one post-takeover retry
            if self._try_create(path, shard_id):
                return True
            age = self._age(path)
            if age is None:
                # The holder released between our failed create and the stat:
                # loop and race for the exclusive create again.
                continue
            if age < self.stale_after:
                self.conflicts += 1
                return False
            # Stale: steal it.  Re-stat inside _remove_if_stale so a lease
            # heartbeated since the age check above is left alone.
            if self._remove_if_stale(path):
                self.takeovers += 1
            # Whether we unlinked it or a racer did, retry the exclusive
            # create; losing that race is an ordinary conflict.
        self.conflicts += 1
        return False

    def _try_create(self, path: str, shard_id: str) -> bool:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        payload = {
            "shard_id": shard_id,
            "owner": self.owner,
            "acquired_unix": time.time(),
        }
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        self._held[shard_id] = path
        return True

    def _age(self, path: str) -> Optional[float]:
        try:
            return max(0.0, time.time() - os.stat(path).st_mtime)
        except OSError:
            return None

    def _remove_if_stale(self, path: str) -> bool:
        age = self._age(path)
        if age is None or age < self.stale_after:
            return False
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    # -- liveness ----------------------------------------------------------------
    def heartbeat(self, shard_id: Optional[str] = None) -> None:
        """Refresh the mtime of one held lease (or all of them)."""
        targets = [shard_id] if shard_id is not None else list(self._held)
        for target in targets:
            path = self._held.get(target)
            if path is None:
                continue
            try:
                os.utime(path)
            except OSError:
                # The lease was stolen (we stalled past stale_after) or the
                # directory vanished; drop it so release never clobbers the
                # thief's claim.
                self._held.pop(target, None)

    def owner_of(self, shard_id: str) -> Optional[str]:
        """The recorded owner of a lease file, or None if absent/unreadable."""
        try:
            with open(self.lease_path(shard_id)) as handle:
                return json.load(handle).get("owner")
        except (OSError, json.JSONDecodeError):
            return None

    # -- release -----------------------------------------------------------------
    def release(self, shard_id: str) -> None:
        """Release one held lease (no-op for leases we do not hold).

        Verifies the on-disk owner first: a lease stolen during a stall is
        the thief's to release, not ours.
        """
        path = self._held.pop(shard_id, None)
        if path is None:
            return
        recorded = self.owner_of(shard_id)
        if recorded != self.owner:
            return
        if _contracts.enabled():
            # The guard above is the enforcement; the contract pins it: at
            # the unlink point the on-disk lease always carries our owner id.
            LEASE_RELEASE_OWN_ONLY.check(
                recorded == self.owner,
                f"unlinking {shard_id} owned by {recorded!r} as {self.owner!r}",
            )
        try:
            os.unlink(path)
        except OSError as error:
            if error.errno != errno.ENOENT:
                raise

    def release_all(self) -> None:
        for shard_id in list(self._held):
            self.release(shard_id)

    # -- inspection (doctor) -----------------------------------------------------
    def stale_leases(self) -> List[str]:
        """Shard ids of every stale lease file in the directory."""
        return [shard_id for shard_id, age in self._lease_ages() if age >= self.stale_after]

    def active_leases(self) -> List[str]:
        """Shard ids of every fresh (heartbeating) lease file."""
        return [shard_id for shard_id, age in self._lease_ages() if age < self.stale_after]

    def _lease_ages(self):
        if not os.path.isdir(self.directory):
            return
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".lease"):
                continue
            age = self._age(os.path.join(self.directory, name))
            if age is not None:
                yield name[: -len(".lease")], age

    def remove_dead_owners(self) -> List[str]:
        """Unlink every (fresh or stale) lease of a gone owner; returns the ids."""
        dead = [s for s, _ in self._lease_ages() if _owner_is_dead(self.owner_of(s))]
        for shard_id in dead:
            try:
                os.unlink(self.lease_path(shard_id))
            except OSError:
                pass
        return dead

    def remove_stale(self) -> List[str]:
        """Unlink every stale lease (doctor --repair); returns the shard ids."""
        removed = []
        for shard_id in self.stale_leases():
            if self._remove_if_stale(self.lease_path(shard_id)):
                removed.append(shard_id)
        return removed
