"""Per-backend immutable version snapshots.

A :class:`Version` is one published state of a served database: enough
shared structure to answer every read verb, captured in O(changes) —
never O(store) — at commit time:

* **native** — an :class:`~repro.core.instance.Instance` over a frozen
  :meth:`GraphStore.fork`: the fork shares every index and cached view
  with the live store, and the live store privatizes exactly what it
  touches before its next write.
* **relational** — a :meth:`Database.fork` of the minirel database:
  O(#tables) pointer copies; each table privatizes its row storage on
  its first post-fork mutation.
* **tarski** — the engine's relations update functionally, so the
  version is just the current (immutable) relation family plus the oid
  counter.

Versions are value objects; pin counting and garbage collection live
in :class:`~repro.mvcc.registry.SnapshotRegistry`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.instance import Instance
from repro.txn.journal import EST_BYTES_PER_ITEM


class Version:
    """One published database state. Subclasses are per-backend."""

    backend = "abstract"

    def __init__(self, scheme: Any, epoch: int, items: int) -> None:
        #: the snapshot's own scheme copy — live scheme evolution
        #: (declare/extend) never reaches a published version
        self.scheme = scheme
        #: the store's ``stats_epoch`` at publish (native) or the
        #: publish ordinal (engines); plan-cache entries key on this
        self.epoch = epoch
        #: node+edge (or row/pair) count, for the bytes-shared gauge
        self.items = items
        #: reader refcount, managed by the registry under its lock
        self.pins = 0
        #: publish ordinal stamped by the registry
        self.sequence = 0

    @property
    def estimated_bytes(self) -> int:
        """Rough payload bytes this version references without copying
        (same per-item constant the txn journals use)."""
        return self.items * EST_BYTES_PER_ITEM

    # -- read surface ---------------------------------------------------
    def reader_instance(self) -> Instance:
        """A native instance view of the version (native backend only)."""
        raise NotImplementedError

    def reader_engine(self) -> Any:
        """A shared read-only engine over the version (engines only)."""
        raise NotImplementedError

    def query_target(self) -> Any:
        """A fresh *mutable* clone for one QUERY run (engines only).

        Query mode executes a program against a temporary state; each
        call gets its own COW clone so concurrent queries on the same
        pinned version never share mutable structure.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(seq={self.sequence}, epoch={self.epoch}, "
            f"pins={self.pins}, items={self.items})"
        )


class NativeVersion(Version):
    backend = "native"

    def __init__(self, instance: Instance) -> None:
        store = instance.store
        super().__init__(instance.scheme, store.stats_epoch, store.node_count + store.edge_count)
        self.instance = instance

    @property
    def estimated_bytes(self) -> int:
        # the columnar store accounts for its own resident columns, so
        # the gauge can report real bytes instead of a per-item guess
        return self.instance.store.store_bytes()

    def reader_instance(self) -> Instance:
        return self.instance


class RelationalVersion(Version):
    backend = "relational"

    def __init__(self, scheme: Any, db: Any, next_oid: int, epoch: int) -> None:
        items = sum(table.count() for table in db._tables.values())
        super().__init__(scheme, epoch, items)
        self.db = db
        self.next_oid = next_oid
        self._engine: Any = None

    def _make_engine(self, scheme: Any, db: Any) -> Any:
        from repro.storage.engine import RelationalEngine
        from repro.storage.layout import GoodLayout

        # GoodLayout.__init__ scans the node directory to recover the
        # oid counter; we already know it, so build the layout directly
        layout = GoodLayout.__new__(GoodLayout)
        layout.scheme = scheme
        layout.db = db
        layout._next_oid = self.next_oid
        return RelationalEngine(scheme, layout)

    def reader_engine(self) -> Any:
        if self._engine is None:
            # benign race: two pinning readers may both build; either
            # result is valid and the last assignment wins
            self._engine = self._make_engine(self.scheme, self.db)
        return self._engine

    def query_target(self) -> Any:
        return self._make_engine(self.scheme.copy(), self.db.fork())


class TarskiVersion(Version):
    backend = "tarski"

    def __init__(
        self,
        scheme: Any,
        member: Any,
        values: Dict[str, Any],
        edges: Dict[str, Any],
        next_oid: int,
        epoch: int,
    ) -> None:
        items = len(member) + sum(len(relation) for relation in edges.values())
        super().__init__(scheme, epoch, items)
        self.member = member
        self.values = values
        self.edges = edges
        self.next_oid = next_oid
        self._engine: Any = None

    def _make_engine(self, scheme: Any) -> Any:
        from repro.tarski.engine import TarskiEngine

        engine = TarskiEngine(scheme)
        engine.member = self.member
        engine.values = dict(self.values)
        engine.edges = dict(self.edges)
        engine._next_oid = self.next_oid
        return engine

    def reader_engine(self) -> Any:
        if self._engine is None:
            self._engine = self._make_engine(self.scheme)
        return self._engine

    def query_target(self) -> Any:
        return self._make_engine(self.scheme.copy())


def capture_version(database: Any) -> Version:
    """Snapshot a :class:`~repro.server.catalog.ServedDatabase`.

    Called under the database's write mutex (or before serving starts),
    so the state cannot move underneath the capture.  Cost: O(1) for
    native and tarski, O(#tables) for relational.
    """
    if database.session is not None:
        live = database.session.instance
        frozen = Instance(live.scheme.copy(), _store=live.store.fork())
        return NativeVersion(frozen)
    engine = database.target
    if database.backend == "relational":
        return RelationalVersion(
            engine.scheme.copy(),
            engine.layout.db.fork(),
            engine.layout._next_oid,
            database.snapshots.next_epoch(),
        )
    return TarskiVersion(
        engine.scheme.copy(),
        engine.member,
        dict(engine.values),
        dict(engine.edges),
        engine._next_oid,
        database.snapshots.next_epoch(),
    )


__all__ = [
    "Version",
    "NativeVersion",
    "RelationalVersion",
    "TarskiVersion",
    "capture_version",
]
