"""The database catalog: named scheme+instance pairs, served natively.

A :class:`ServedDatabase` wraps one GOOD object base — the in-memory
graph :class:`~repro.core.instance.Instance` inside an
:class:`~repro.interactive.Session` (which supplies query/update modes,
browsing and the undo frames) — behind a verb-shaped API (run /
matchings / browse / export; query mode runs on a pinned version,
:class:`~repro.mvcc.readers.SnapshotReader`).

Section 5's relational and Tarski engines are implementation strategies
kept as library code; they are not served.  A ``CREATE`` or ``LOAD``
naming another backend is refused with the migration (EXPORT with the
previous release, then LOAD the document as native).  ``LIST`` and
``EXPLAIN`` still reply ``"backend": "native"``.

Each write runs under exactly one
:class:`~repro.txn.transaction.Transaction`; its committed journal
rolls a failed run back, becomes the WAL commit record, and is kept as
the undo frame.  ``UNDO`` is a write like any other: it reverse-replays
the newest frame in a transaction of its own and logs that journal as
an ordinary commit.

:class:`Catalog` is the name -> database directory with create / drop /
load / save.  It is deliberately synchronous and lock-free: the server
layer serialises catalog mutations and per-database writes; reads run
against pinned snapshot versions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import GoodError
from repro.core.instance import Instance
from repro.core.program import Program
from repro.dsl import parse_pattern, parse_program
from repro.interactive import Session, Subinstance
from repro.io.serialize import (
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    scheme_from_json,
)
from repro.mvcc import SnapshotRegistry, capture_version
from repro.server.protocol import register_error_code
from repro.txn import guards
from repro.txn.snapshot import summarize
from repro.wal import DataDirLockedError, WalError

#: The one served backend, as LIST and EXPLAIN replies name it.
BACKEND = "native"


class CatalogError(GoodError):
    """Catalog misuse: duplicate create, bad backend, invalid name."""


class UnknownDatabaseError(CatalogError):
    """The named database does not exist."""


register_error_code(CatalogError, "CATALOG")
register_error_code(UnknownDatabaseError, "NO_SUCH_DATABASE")
register_error_code(WalError, "WAL")
register_error_code(DataDirLockedError, "DATA_DIR_LOCKED")


def require_native(backend: Any) -> None:
    """Refuse a ``CREATE``/``LOAD`` that asks for a backend other than native."""
    if backend != BACKEND:
        raise CatalogError(
            f"backend {backend!r} is not served (only {BACKEND!r} is); to migrate a "
            "database served on an engine, EXPORT it with the previous release, "
            "then LOAD the exported document as native"
        )


class ServedDatabase:
    """One named object base behind the uniform serving API."""

    def __init__(self, name: str, instance: Instance) -> None:
        self.name = name
        # wired by DataDirectory when serving from a durable data dir
        self.durability: Any = None
        # the LSN of the most recent commit THIS database acknowledged;
        # unlike ``durability.lsn`` it is captured inside the commit
        # path, so a RUN response can carry exactly its own commit's LSN
        self.last_commit_lsn = 0
        self._pending_ticket: Any = None
        self.session = Session(instance)
        # MVCC: every commit publishes an immutable version here; query
        # verbs pin one and read without any lock (repro.mvcc)
        self.snapshots = SnapshotRegistry()
        # a deferred checkpoint job handed to the session layer so the
        # state streams to disk *after* the write lock is released
        self._pending_checkpoint: Any = None
        self._defer_checkpoints = False
        self.publish_version()

    # ------------------------------------------------------------------
    # MVCC snapshots
    # ------------------------------------------------------------------
    def publish_version(self) -> Any:
        """Publish the current state as an immutable pinned-able version.

        Called after every state change, under whatever exclusion the
        caller already holds (the server's write mutex, or none before
        serving starts).  O(1) thanks to the store's copy-on-write forks.
        """
        return self.snapshots.publish(capture_version(self))

    def read_view(self) -> Any:
        """Pin the current version; returns a read-only facade.

        The caller must :meth:`~repro.mvcc.readers.SnapshotReader.release`
        it (or use it as a context manager) so the registry can GC.
        """
        from repro.mvcc.readers import SnapshotReader

        return SnapshotReader(self, self.snapshots.pin())

    @property
    def target(self) -> Instance:
        """The transactional target holding the current state."""
        return self.session.instance

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def scheme(self):
        """The live scheme (patterns and programs parse against it)."""
        return self.session.instance.scheme

    def counts(self) -> Tuple[int, int]:
        """``(node_count, edge_count)`` of the current state."""
        return summarize(self.target)

    def describe(self) -> Dict[str, Any]:
        """The ``LIST`` entry for this database."""
        nodes, edges = self.counts()
        return {"name": self.name, "backend": BACKEND, "nodes": nodes, "edges": edges}

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def _compile(self, source: str) -> Program:
        return parse_program(source, self.scheme)

    def run_program(self, source: str) -> List[Any]:
        """Atomic in-place run of DSL ``source``; per-operation reports.

        On any failure the state (scheme included) is exactly the
        pre-run state — the :mod:`repro.txn` guarantee — and the
        exception carries a ``failure_report``.
        """
        result = self.session.update(self._compile(source))
        self._commit(result.journal)
        return list(result.reports)

    def _commit(self, journal: Any) -> None:
        """Make a committed write durable, then visible.

        With a data directory nothing is acknowledged until the commit
        record read *forwards* from ``journal`` (:mod:`repro.wal.redo`)
        is on disk, per the writer's fsync policy.  If the append fails,
        ``journal`` is reverted so memory never diverges from disk, and
        the writer stays poisoned — exactly as if the process had died.
        A reverted write leaves the session's undo frames behind
        a state they do not end at, so :meth:`Session.undo
        <repro.interactive.Session.undo>` refuses them.
        """
        if self.durability is None:
            self.publish_version()
            return
        try:
            ticket = self.durability.commit_journal(self, journal)
        except BaseException as error:
            journal.revert()
            self.durability.poison(error)
            raise
        self._pending_ticket = ticket
        self.last_commit_lsn = self.durability.lsn
        # publish before a possible checkpoint so the checkpoint pins
        # a version that includes this very commit
        self.publish_version()
        job = self.durability.maybe_checkpoint(self)
        if job is not None:
            if self._defer_checkpoints:
                # the session layer streams it after the lock drops
                self._pending_checkpoint = job
            else:
                job.stream()

    def take_ticket(self) -> Any:
        """Claim the durability ticket of the last run (or ``None``).

        The session layer appends under the database write lock but
        waits on the ticket *after* releasing it, which is what lets
        concurrent commits share one group fsync.
        """
        ticket, self._pending_ticket = self._pending_ticket, None
        return ticket

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot state to disk and truncate the replayed WAL."""
        return self.checkpoint_begin().stream()

    def checkpoint_begin(self) -> Any:
        """Pin a snapshot and rotate the WAL (the fast, locked half).

        Returns a :class:`~repro.wal.manager.CheckpointJob`; its
        ``stream()`` writes the pinned state to disk and may run after
        the write lock is released — writers keep committing into the
        fresh segment while the checkpoint streams.
        """
        if self.durability is None:
            raise CatalogError(
                f"database {self.name!r} is not served from a data directory; "
                "CHECKPOINT needs a server started with --data-dir"
            )
        return self.durability.begin_checkpoint(self)

    def take_checkpoint_job(self) -> Any:
        """Claim the checkpoint job deferred by the last run (or ``None``)."""
        job, self._pending_checkpoint = self._pending_checkpoint, None
        return job

    def explain(self, pattern_source: str) -> Dict[str, Any]:
        """The compiled match plan for a DSL pattern (no execution)."""
        from repro.core.pattern import NegatedPattern
        from repro.plan import explain_pattern, plan_for

        pattern, bindings = parse_pattern(pattern_source, self.scheme)
        instance = self.to_instance()
        # plan first so ``cached`` reflects the cache state on entry
        # (explain_pattern re-plans and would always report a hit)
        positive = pattern.positive if isinstance(pattern, NegatedPattern) else pattern
        plan, cached = plan_for(positive, instance)
        text = explain_pattern(pattern, instance)
        return {
            "backend": BACKEND,
            "text": text,
            "strategy": plan.strategy,
            "plan": plan.to_json(),
            "crossed_extensions": (
                len(pattern.extensions) if isinstance(pattern, NegatedPattern) else 0
            ),
            "cached": cached,
            "bindings": dict(bindings),
        }

    def matchings(self, pattern_source: str, limit: Optional[int] = None) -> Dict[str, Any]:
        """All matchings of a DSL pattern, keyed by variable name."""
        pattern, bindings = parse_pattern(pattern_source, self.scheme)
        found = self.session.matchings(pattern)
        # the session does not charge its own matchings; charge here so
        # the per-session budget binds
        guards.charge_matchings(len(found))
        total = len(found)
        if limit is not None:
            found = found[:limit]
        named = [
            {variable: matching[node] for variable, node in bindings.items()}
            for matching in found
        ]
        return {"total": total, "returned": len(named), "matchings": named}

    def browse(self, node: int, hops: int = 1) -> Subinstance:
        """The neighbourhood slice around ``node``."""
        return self.session.browse(node, hops=hops)

    def undo(self) -> Tuple[int, int]:
        """Reverse the most recent update.

        The reversal is a commit of its own: its journal is logged,
        published and counted toward auto-checkpoints exactly like a
        ``RUN``, so replicas and recovery apply it incrementally.
        """
        self._commit(self.session.undo())
        return self.counts()

    # ------------------------------------------------------------------
    # import / export
    # ------------------------------------------------------------------
    def to_instance(self) -> Instance:
        """The current state as an instance (the live one, not a copy)."""
        return self.session.instance

    def to_json(self) -> Dict[str, Any]:
        """The current state as a serialisable instance document."""
        return instance_to_json(self.to_instance())

    def save(self, path: Union[str, Path]) -> None:
        """Write the current state to a JSON file."""
        save_instance(self.to_instance(), path)


class Catalog:
    """The name -> :class:`ServedDatabase` directory."""

    def __init__(self) -> None:
        self._databases: Dict[str, ServedDatabase] = {}
        # a repro.wal.DataDirectory when serving durably, else None;
        # attached by recover_catalog AFTER recovery has populated the
        # catalog (so add() below does not re-create on-disk state)
        self.durability: Any = None

    def __len__(self) -> int:
        return len(self._databases)

    def __contains__(self, name: str) -> bool:
        return name in self._databases

    def names(self) -> List[str]:
        """All database names, sorted."""
        return sorted(self._databases)

    def describe(self) -> List[Dict[str, Any]]:
        """The ``LIST`` payload."""
        return [self._databases[name].describe() for name in self.names()]

    def get(self, name: str) -> ServedDatabase:
        """Look a database up, or fail with a structured error."""
        try:
            return self._databases[name]
        except KeyError:
            known = ", ".join(self.names()) or "none"
            raise UnknownDatabaseError(
                f"no database named {name!r} (known: {known})"
            ) from None

    def add(self, name: str, instance: Instance) -> ServedDatabase:
        """Serve an already-built instance under ``name``."""
        if not name or not isinstance(name, str):
            raise CatalogError(f"invalid database name {name!r}")
        if name in self._databases:
            raise CatalogError(f"database {name!r} already exists")
        database = ServedDatabase(name, instance)
        if self.durability is not None:
            self.durability.attach_new(database)
        self._databases[name] = database
        return database

    def create(
        self,
        name: str,
        scheme_data: Optional[Dict[str, Any]] = None,
        instance_data: Optional[Dict[str, Any]] = None,
    ) -> ServedDatabase:
        """Create a database from a scheme document (empty instance) or
        a full instance document."""
        if scheme_data is not None and instance_data is not None:
            raise CatalogError("pass either a scheme or an instance, not both")
        if instance_data is not None:
            instance = instance_from_json(instance_data)
        elif scheme_data is not None:
            instance = Instance(scheme_from_json(scheme_data))
        else:
            raise CatalogError("creating a database needs a scheme or an instance document")
        return self.add(name, instance)

    def drop(self, name: str) -> None:
        """Forget a database (its on-disk state, if any, included)."""
        database = self.get(name)
        if self.durability is not None:
            self.durability.drop_database(database)
        del self._databases[name]

    def close_durability(self) -> None:
        """Flush and close every WAL writer and release the data dir."""
        for database in self._databases.values():
            if database.durability is not None:
                database.durability.close()
                database.durability = None
        if self.durability is not None:
            self.durability.close()
            self.durability = None

    def load_file(self, name: str, path: Union[str, Path]) -> ServedDatabase:
        """Serve a JSON instance file under ``name``."""
        return self.add(name, load_instance(path))
