"""Undo journals: O(changes) transactions, savepoints and rollback.

The snapshot protocol of :mod:`repro.txn.snapshot` pays O(nodes+edges)
at ``Transaction`` begin, per savepoint, and again on every restore —
full-copy costs that dominate small-write workloads on large instances.
An *undo journal* replaces all three with O(changes) bookkeeping:

* **begin** attaches a journal to the target's mutable state (the
  :class:`~repro.graph.store.GraphStore`, the minirel
  :class:`~repro.storage.minirel.Database`, or the Tarski relation
  family) and a :class:`SchemeRecorder` to the live scheme.  Both are
  O(1);
* every subsequent mutation appends one **inverse-describing entry**
  (node add/remove with label and print value, edge add/remove, print
  rewrite, per-table pre-images, old relation references, scheme
  snapshots, scheme rebinding);
* a **savepoint** is a watermark — the current entry count plus the
  id-counter value — also O(1);
* **rollback** replays the entries *after* a watermark in reverse,
  through the target's normal mutators where the target has them, so
  indexes, cached views and any *outer* journals observe the replay;
* **revert** replays a *committed* journal in reverse.  It is how the
  served path takes back a write whose WAL append failed, and how
  ``UNDO`` reverses the newest kept update: the UNDO runs in a fresh
  transaction, whose journal records the replay like any other change
  and becomes an ordinary commit record.

Targets take part through two duck-typed hooks next to the snapshot
protocol: ``begin_journal() -> journal`` and
``rollback_journal(journal, mark) -> None``.  A full-copy transaction
built on the snapshot hooks is the equivalence oracle for the journal
implementation (see ``tests/property/test_journal_equivalence.py``).

Journal entries are tagged tuples; the tag vocabulary per target lives
in the matching :class:`UndoJournal` subclass below.  Scheme changes
are captured lazily: the recorder listens on the live scheme object(s)
and snapshots the pre-mutation content at most once per watermark
segment (redundant snapshots are harmless — a reverse replay ends on
the oldest).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.errors import TransactionError


class _Missing:
    """Sentinel: "this label had no relation before the mutation"."""

    _instance = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "MISSING"


#: Absent-mapping marker used in Tarski journal entries.
MISSING = _Missing()

#: Rough per-item (node or edge) byte cost of a full-copy snapshot,
#: used for the ``txn_bytes_avoided`` counter estimate.  Deliberately
#: conservative: a GraphStore copy rebuilds several dict/set indexes
#: per item.
EST_BYTES_PER_ITEM = 200


class SchemeRecorder:
    """Lazily snapshots scheme content ahead of mutations.

    Registered in ``Scheme._listeners`` of every scheme object the
    journalled target has been bound to; ``scheme_changed`` fires
    *before* each content mutation and appends at most one
    ``("scheme", scheme, copy)`` entry per scheme per watermark
    segment — exactly the pre-mutation content a rollback to the
    segment's watermark needs.
    """

    def __init__(self, journal: "UndoJournal") -> None:
        # the entry list, not the journal: no reference cycle, so a
        # committed journal (an undo frame) is freed by refcounting
        # the moment it is dropped, not by a later full collection
        self._entries = journal.entries
        self._listening: List[Any] = []
        self._snapshotted: set = set()
        self._suspended = False

    def listen(self, scheme: Any) -> None:
        """Start recording changes of ``scheme`` (idempotent)."""
        if any(existing is scheme for existing in self._listening):
            return
        scheme._listeners.append(self)
        self._listening.append(scheme)

    def scheme_changed(self, scheme: Any) -> None:
        """Scheme notification hook: snapshot once per segment."""
        if self._suspended or id(scheme) in self._snapshotted:
            return
        self._snapshotted.add(id(scheme))
        self._entries.append(("scheme", scheme, scheme.copy()))

    def new_segment(self) -> None:
        """Forget per-segment snapshot dedup (at marks and rollbacks)."""
        self._snapshotted = set()

    def detach(self) -> None:
        """Unregister from every scheme (journal close)."""
        for scheme in self._listening:
            try:
                scheme._listeners.remove(self)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._listening = []


class UndoJournal:
    """Base journal: entry list, watermarks, reverse replay.

    Subclasses bind to one target kind and provide ``_replay`` (apply
    the inverse of one entry), ``_mark_extra``/``_restore_extra`` (the
    id-counter piggybacked on watermarks), ``_check_target`` (refuse to
    roll back if the journalled state was swapped out from under us),
    and ``_suspend``/``_resume`` (detach from the mutation hooks during
    the journal's own replay so it does not record its inverses).
    """

    def __init__(self, scheme: Any) -> None:
        self.entries: List[Tuple] = []
        self.closed = False
        self._entries_replayed = 0
        self.recorder = SchemeRecorder(self)
        self.recorder.listen(scheme)
        #: The watermark of the empty journal (transaction begin).
        self.begin_mark = self.mark()

    # ------------------------------------------------------------------
    # watermarks
    # ------------------------------------------------------------------
    def mark(self) -> Tuple[int, Any]:
        """An O(1) watermark: rollback target for :meth:`rollback_to`."""
        self.recorder.new_segment()
        return (len(self.entries), self._mark_extra())

    @property
    def entries_recorded(self) -> int:
        """Lifetime entry count (live plus replayed-and-truncated)."""
        return len(self.entries) + self._entries_replayed

    def scheme_dirty(self, since: int = 0) -> bool:
        """Whether any scheme content/binding change is journalled."""
        return any(entry[0] in ("scheme", "bind") for entry in self.entries[since:])

    def note_rebind(self, old_scheme: Any, new_scheme: Any) -> None:
        """Record that the target rebound to a different scheme object.

        ``restrict_to`` (method-call semantics, footnote 4) swaps the
        target's scheme *object*; the journal must restore the old
        binding on rollback and must keep recording content changes of
        the new object in the meantime.
        """
        self.entries.append(("bind", old_scheme))
        self.recorder.listen(new_scheme)
        # the new binding's content changes must snapshot afresh even
        # if this object was already captured this segment
        self.recorder._snapshotted.discard(id(new_scheme))

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback_to(self, mark: Tuple[int, Any]) -> int:
        """Reverse-replay every entry after ``mark``; returns the count.

        The journal stays usable afterwards: the replayed entries are
        truncated and recording continues from the watermark, so a
        savepoint can be rolled back to any number of times.
        """
        if self.closed:
            raise TransactionError("the journal is closed")
        index, extra = mark
        if index > len(self.entries):
            raise TransactionError(
                f"watermark at entry {index} is beyond the journal "
                f"({len(self.entries)} entries) — was it already rolled past?"
            )
        self._check_target()
        replayed = len(self.entries) - index
        self._suspend()
        self.recorder._suspended = True
        try:
            for entry in reversed(self.entries[index:]):
                self._replay(entry)
        finally:
            self.recorder._suspended = False
            self._resume()
        del self.entries[index:]
        self._entries_replayed += replayed
        self._restore_extra(extra)
        self.recorder.new_segment()
        return replayed

    def revert(self) -> None:
        """Reverse-replay every entry of this committed journal.

        The journal is closed, so it records nothing itself: the replay
        reaches only the journals attached now (the transaction an UNDO
        runs in).  The id counter stays where it is — an undone write
        does not hand its ids out again (:func:`repro.wal.redo.set_next_id`
        never moves a counter back either).  The caller must know the
        target still holds the state this journal ended at.
        """
        if not self.closed:
            raise TransactionError("only a committed journal can be reverted")
        self._check_target()
        for entry in reversed(self.entries):
            self._replay(entry)

    def close(self) -> None:
        """Stop recording; detach from the target (commit/rollback end)."""
        if self.closed:
            return
        self.closed = True
        self.recorder.detach()
        self._detach()

    # ------------------------------------------------------------------
    # subclass responsibilities
    # ------------------------------------------------------------------
    def _replay(self, entry: Tuple) -> None:
        raise NotImplementedError

    def _mark_extra(self) -> Any:
        raise NotImplementedError

    def _restore_extra(self, extra: Any) -> None:
        raise NotImplementedError

    def _check_target(self) -> None:
        raise NotImplementedError

    def _suspend(self) -> None:
        raise NotImplementedError

    def _resume(self) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "closed" if self.closed else "recording"
        return f"{type(self).__name__}({len(self.entries)} entries, {status})"


class InstanceJournal(UndoJournal):
    """Undo journal over a native :class:`~repro.core.instance.Instance`.

    Store entries come straight from the
    :class:`~repro.graph.store.GraphStore` mutators (the same hook
    point as PR 3's :class:`~repro.graph.store.Delta` tracking):

    ``("add_node", id, label, print)`` / ``("remove_node", id, label,
    print)`` / ``("set_print", id, old, new)`` / ``("add_edge", s, l,
    t)`` / ``("remove_edge", s, l, t)``, plus the base ``("scheme",
    obj, copy)`` and ``("bind", old_scheme)`` entries.  Each entry
    carries enough to replay in *either* direction: the trailing
    fields feed the redo extraction of :mod:`repro.wal.redo` while
    ``_replay`` below only reads the undo prefix.

    Replay goes through the store's normal mutators, so adjacency
    indexes, cardinality statistics, cached views and any *outer*
    journals all observe the rollback.
    """

    def __init__(self, instance: Any) -> None:
        self.instance = instance
        self.store = instance._store
        super().__init__(instance._scheme)
        self.store.attach_journal(self)
        instance._journals.append(self)

    def _mark_extra(self) -> int:
        return self.store._next_id

    def _restore_extra(self, next_id: int) -> None:
        # safe: after replay the store holds exactly the watermark
        # content, whose ids were all below the recorded counter
        self.store._next_id = next_id

    def _check_target(self) -> None:
        if self.instance._store is not self.store:
            raise TransactionError(
                "the instance's store was swapped while journalled "
                "(full-snapshot restore during an active journal?); "
                "journal rollback is impossible"
            )

    def _suspend(self) -> None:
        self.store.detach_journal(self)

    def _resume(self) -> None:
        self.store.attach_journal(self)

    def _detach(self) -> None:
        if self in self.store._journals:
            self.store.detach_journal(self)
        try:
            self.instance._journals.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass

    @staticmethod
    def _label(value: Any) -> str:
        # columnar stores journal interned label ids (ints); the
        # reference store journals strings — replay speaks both
        if isinstance(value, str):
            return value
        from repro.graph.columns import label_name

        return label_name(value)

    def _replay(self, entry: Tuple) -> None:
        tag = entry[0]
        store = self.store
        if tag == "add_edge":
            store.remove_edge(entry[1], self._label(entry[2]), entry[3])
        elif tag == "remove_edge":
            store.add_edge(entry[1], self._label(entry[2]), entry[3])
        elif tag == "add_node":
            store.remove_node(entry[1])
        elif tag == "remove_node":
            store.add_node(self._label(entry[2]), entry[3], node_id=entry[1])
        elif tag == "set_print":
            store.set_print(entry[1], entry[2])
        elif tag == "scheme":
            entry[1].restore_from(entry[2])
        elif tag == "bind":
            # other journals (an UNDO's transaction) must record the
            # rebinding like restrict_to's, so they can replay it back
            for journal in self.instance._journals:
                if journal is not self:
                    journal.note_rebind(self.instance._scheme, entry[1])
            self.instance._scheme = entry[1]
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown journal entry {tag!r}")


class RelationalJournal(UndoJournal):
    """Undo journal over a :class:`~repro.storage.engine.RelationalEngine`.

    Per-relation dirty tracking: the minirel
    :class:`~repro.storage.minirel.Database` notifies the journal
    *before* any table mutates, and the journal copies that table at
    most once per watermark segment — a copy-on-first-write pre-image
    (``("table", name, snapshot)``).  DDL records ``("create", name)``
    and ``("drop", name, table)``.  Rollback installs the pre-images by
    reference (each entry replays at most once before truncation), so
    a rollback costs O(dirty tables), never O(database).
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.db = engine.layout.db
        self._clean: set = set()
        super().__init__(engine.scheme)
        self.db.attach_journal(self)

    # -- database hooks -------------------------------------------------
    def table_dirty(self, table: Any) -> None:
        """Pre-mutation hook: snapshot the table once per segment."""
        if table.name in self._clean:
            return
        self._clean.add(table.name)
        self.entries.append(("table", table.name, table.copy()))

    def table_created(self, name: str) -> None:
        """DDL hook: a fresh table needs no pre-image, only removal."""
        self._clean.add(name)
        self.entries.append(("create", name))

    def table_dropped(self, name: str, table: Any) -> None:
        """DDL hook: keep the dropped table for reinstatement."""
        self.entries.append(("drop", name, table))

    # -- UndoJournal ----------------------------------------------------
    def _mark_extra(self) -> int:
        self._clean = set()
        return self.engine.layout._next_oid

    def _restore_extra(self, next_oid: int) -> None:
        self.engine.layout._next_oid = next_oid
        self._clean = set()

    def _check_target(self) -> None:
        if self.engine.layout.db is not self.db:
            raise TransactionError(
                "the engine's database was swapped while journalled; "
                "journal rollback is impossible"
            )

    def _suspend(self) -> None:
        self.db.detach_journal(self)

    def _resume(self) -> None:
        self.db.attach_journal(self)

    def _detach(self) -> None:
        if self in self.db._journals:
            self.db.detach_journal(self)

    def _replay(self, entry: Tuple) -> None:
        tag = entry[0]
        if tag == "table":
            entry[2]._db = self.db
            self.db._tables[entry[1]] = entry[2]
        elif tag == "create":
            self.db._tables.pop(entry[1], None)
        elif tag == "drop":
            entry[2]._db = self.db
            self.db._tables[entry[1]] = entry[2]
        elif tag == "scheme":
            entry[1].restore_from(entry[2])
        elif tag == "bind":
            self.engine.scheme = entry[1]
            self.engine.layout.scheme = entry[1]
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown journal entry {tag!r}")


class TarskiJournal(UndoJournal):
    """Undo journal over a :class:`~repro.tarski.engine.TarskiEngine`.

    The Tarski engine updates its relations *functionally* (every write
    installs a new immutable :class:`~repro.tarski.algebra.BinaryRelation`),
    so the journal simply keeps the old reference per write — O(1) per
    entry, recorded on **every** write (not first-write-wins) so any
    watermark replays exactly: ``("member", old)``, ``("value", label,
    old_or_MISSING)``, ``("edges", label, old_or_MISSING)``.

    Replay installs old references directly; before each install it
    re-notes the current value to every *other* attached journal (the
    engine has no mutator layer that would do it for us), keeping
    nested journals correct.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self._values_dict = engine.values
        self._edges_dict = engine.edges
        super().__init__(engine.scheme)
        engine._journals.append(self)

    def _mark_extra(self) -> int:
        return self.engine._next_oid

    def _restore_extra(self, next_oid: int) -> None:
        self.engine._next_oid = next_oid

    def _check_target(self) -> None:
        if self.engine.values is not self._values_dict or self.engine.edges is not self._edges_dict:
            raise TransactionError(
                "the engine's relation family was swapped while journalled "
                "(full-snapshot restore during an active journal?); "
                "journal rollback is impossible"
            )

    def _suspend(self) -> None:
        try:
            self.engine._journals.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass

    def _resume(self) -> None:
        self.engine._journals.append(self)

    def _detach(self) -> None:
        try:
            self.engine._journals.remove(self)
        except ValueError:
            pass

    @staticmethod
    def _install(mapping: dict, label: str, old: Any) -> None:
        if old is MISSING:
            mapping.pop(label, None)
        else:
            mapping[label] = old

    def _replay(self, entry: Tuple) -> None:
        tag = entry[0]
        engine = self.engine
        if tag == "member":
            engine._note_member()
            engine.member = entry[1]
        elif tag == "value":
            engine._note_value(entry[1])
            self._install(engine.values, entry[1], entry[2])
        elif tag == "edges":
            engine._note_edges(entry[1])
            self._install(engine.edges, entry[1], entry[2])
        elif tag == "scheme":
            entry[1].restore_from(entry[2])
        elif tag == "bind":
            engine.scheme = entry[1]
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown journal entry {tag!r}")


def supports_journal(target: Any) -> bool:
    """Whether ``target`` implements the undo-journal hooks."""
    return callable(getattr(target, "begin_journal", None)) and callable(
        getattr(target, "rollback_journal", None)
    )
