"""Immutable version snapshots.

A :class:`Version` is one published state of a served database: an
:class:`~repro.core.instance.Instance` over a frozen
:meth:`GraphStore.fork <repro.graph.store.GraphStore.fork>`, captured in
O(1) — never O(store) — at commit time.  The fork shares every index
and cached view with the live store, and the live store privatizes
exactly what it touches before its next write.

Section 5's relational and Tarski engines are library code and are not
served, so they publish no versions.

Versions are value objects; pin counting and garbage collection live
in :class:`~repro.mvcc.registry.SnapshotRegistry`.
"""

from __future__ import annotations

from typing import Any

from repro.core.instance import Instance


class Version:
    """One published database state."""

    def __init__(self, instance: Instance) -> None:
        #: the frozen instance every read verb of the version runs on
        self.instance = instance
        #: the snapshot's own scheme copy — live scheme evolution
        #: (declare/extend) never reaches a published version
        self.scheme = instance.scheme
        #: reader refcount, managed by the registry under its lock
        self.pins = 0
        #: publish ordinal stamped by the registry
        self.sequence = 0

    @property
    def estimated_bytes(self) -> int:
        """Bytes this version references without copying: the
        columnar store accounts for its own resident columns."""
        return self.instance.store.store_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Version(seq={self.sequence}, pins={self.pins})"


def capture_version(database: Any) -> Version:
    """Snapshot a :class:`~repro.server.catalog.ServedDatabase` in O(1).

    Called under the database's write mutex (or before serving starts),
    so the state cannot move underneath the capture.
    """
    live = database.session.instance
    return Version(Instance(live.scheme.copy(), _store=live.store.fork()))


__all__ = ["Version", "capture_version"]
