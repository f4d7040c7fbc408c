"""Read-only facades over pinned versions.

A :class:`SnapshotReader` looks exactly like a
:class:`~repro.server.catalog.ServedDatabase` to the session layer —
same ``matchings`` / ``explain`` / ``browse`` / ``to_json`` / ``save``
verbs — but every verb executes against one pinned immutable version,
so no read lock is ever taken and a writer can commit mid-query
without the reader noticing.

It also serves ``QUERY`` (``query_program``), the one verb only a
reader has: each run gets a fresh mutable copy-on-write clone of the
pinned version (``GraphStore.copy`` through ``Session.query``), so any
number of concurrent queries coexist — and none of them can perturb
the snapshot or the live database's plan cache.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.interactive import Session
from repro.server.catalog import CatalogError, ServedDatabase


class SnapshotReader(ServedDatabase):
    """One pinned version behind the ServedDatabase read API."""

    def __init__(self, database: Any, version: Any) -> None:
        # deliberately not calling ServedDatabase.__init__: this facade
        # wraps an existing version instead of publishing one
        self.name = database.name
        self.durability = None
        self.last_commit_lsn = database.last_commit_lsn
        self._pending_ticket = None
        self._owner = database
        self._version = version
        self._released = False
        self.session = Session(version.instance)

    @property
    def version(self) -> Any:
        """The pinned version this reader serves."""
        return self._version

    def release(self) -> None:
        """Unpin the version (idempotent); the registry may GC it."""
        if not self._released:
            self._released = True
            self._owner.snapshots.release(self._version)

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.release()

    # -- reads that need snapshot-specific handling ---------------------
    def query_program(self, source: str) -> Tuple[List[Any], Tuple[int, int]]:
        # Session.query copies the instance first: an O(1) mutable
        # clone of the frozen store, with a plan cache of its own
        result = self.session.query(self._compile(source))
        return list(result.reports), (result.instance.node_count, result.instance.edge_count)

    # -- writes are a bug, not a verb -----------------------------------
    def run_program(self, source: str) -> List[Any]:
        raise CatalogError("snapshot readers are read-only; RUN must go to the live database")

    def undo(self) -> Tuple[int, int]:
        raise CatalogError("snapshot readers are read-only; UNDO must go to the live database")

    def checkpoint(self) -> Any:
        raise CatalogError("snapshot readers cannot checkpoint; use the live database")


__all__ = ["SnapshotReader"]
