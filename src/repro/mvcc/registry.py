"""The refcounted snapshot registry: publish / pin / release / GC.

One :class:`SnapshotRegistry` per served database.  Writers publish a
fresh :class:`~repro.mvcc.versions.Version` after every commit (under
the database's write mutex); readers pin the current version with no
lock ordering against writers at all — ``pin`` is a refcount bump
under the registry's own (never-held-across-IO) mutex.

Garbage collection is immediate and exact: a superseded version is
dropped the moment its pin count reaches zero, and a version that was
already unpinned when superseded is dropped at publish time.  The
version chain therefore only grows while long-running readers hold
old versions — the gauges below surface exactly that.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional


class SnapshotError(RuntimeError):
    """Registry misuse: pinning before the first publish, double release."""


class SnapshotRegistry:
    """Refcounted version chain for one served database."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Any] = None
        # superseded versions still pinned by in-flight readers,
        # oldest first
        self._retired: List[Any] = []
        self.versions_published = 0
        self.versions_gced = 0

    def publish(self, version: Any) -> Any:
        """Install ``version`` as current; GC the predecessor if unpinned."""
        with self._lock:
            previous = self._current
            self._current = version
            self.versions_published += 1
            version.sequence = self.versions_published
            if previous is not None:
                if previous.pins > 0:
                    self._retired.append(previous)
                else:
                    self.versions_gced += 1
            return version

    def pin(self) -> Any:
        """Refcount-pin and return the current version (O(1), no IO)."""
        with self._lock:
            version = self._current
            if version is None:
                raise SnapshotError("no version has been published yet")
            version.pins += 1
            return version

    def release(self, version: Any) -> None:
        """Drop one pin; GC the version if superseded and unpinned."""
        with self._lock:
            if version.pins <= 0:
                raise SnapshotError("release without a matching pin")
            version.pins -= 1
            if version.pins == 0 and version is not self._current:
                try:
                    self._retired.remove(version)
                except ValueError:  # pragma: no cover - defensive
                    pass
                else:
                    self.versions_gced += 1

    @property
    def current(self) -> Optional[Any]:
        """The currently published version (or ``None`` before first publish)."""
        with self._lock:
            return self._current

    def gauges(self) -> Dict[str, int]:
        """The STATS payload: pins, chain length, GC count, shared bytes."""
        with self._lock:
            versions = ([self._current] if self._current is not None else []) + self._retired
            pinned = sum(version.pins for version in versions)
            shared = sum(version.estimated_bytes for version in versions if version.pins > 0)
            return {
                "snapshots_pinned": pinned,
                "version_chain_length": len(versions),
                "versions_published": self.versions_published,
                "versions_gced": self.versions_gced,
                "snapshot_bytes_shared": shared,
            }


__all__ = ["SnapshotRegistry", "SnapshotError"]
